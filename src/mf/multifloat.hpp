#pragma once
// MultiFloat<T, N>: an extended-precision number represented as a
// nonoverlapping floating-point expansion of N machine-precision terms
// ("limbs"), limb[0] being the most significant.
//
// The value represented is exactly limb[0] + limb[1] + ... + limb[N-1]
// (as a real number). The nonoverlapping invariant (Eq. 8 of the paper),
//
//     |limb[i]| <= (1/2) * ulp(limb[i-1]),
//
// guarantees an effective precision of N*p + N - 1 bits, where p is the
// precision of T (p = 53 for double): quadruple, sextuple, or octuple
// precision for N = 2, 3, 4 on double-precision hardware.
//
// All arithmetic is branch-free straight-line code built from error-free
// transformations; see add.hpp, mul.hpp, div_sqrt.hpp.

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

#include "eft.hpp"

namespace mf {

template <FloatingPoint T, int N>
    requires(N >= 1 && N <= 8)
struct MultiFloat {
    using value_type = T;
    static constexpr int num_limbs = N;

    /// Precision of the base type in bits (e.g. 53 for double).
    static constexpr int base_precision = std::numeric_limits<T>::digits;

    /// Effective precision of a nonoverlapping N-term expansion (Eq. 7).
    static constexpr int precision = N * base_precision + (N - 1);

    std::array<T, N> limb{};

    constexpr MultiFloat() noexcept = default;

    /// Exact embedding of a machine number (remaining limbs zero).
    constexpr MultiFloat(T x) noexcept {
        limb[0] = x;
        for (int i = 1; i < N; ++i) limb[i] = T{};
    }

    /// Construct from raw limbs. Caller promises nonoverlapping order.
    explicit constexpr MultiFloat(const std::array<T, N>& limbs) noexcept
        : limb(limbs) {}

    /// Convenience: any other arithmetic type converts through the base
    /// type (one rounding; exact for integers up to 2^p).
    template <typename U>
        requires(std::is_arithmetic_v<U> && !std::is_same_v<U, T>)
    constexpr MultiFloat(U v) noexcept : MultiFloat(static_cast<T>(v)) {}

    /// Best single-T approximation of the represented value: faithful
    /// (within 1 ulp) for every nonoverlapping expansion, and correctly
    /// rounded except when the value lies exactly on a half-ulp tie (the
    /// low-to-high summation can then double-round by one ulp).
    [[nodiscard]] constexpr T to_float() const noexcept {
        T acc = limb[N - 1];
        for (int i = N - 2; i >= 0; --i) acc += limb[i];
        return acc;
    }

    explicit constexpr operator T() const noexcept { return to_float(); }

    [[nodiscard]] constexpr bool is_zero() const noexcept {
        return limb[0] == T(0);
    }

    [[nodiscard]] bool is_finite() const noexcept {
        bool ok = true;
        for (int i = 0; i < N; ++i) ok = ok && std::isfinite(limb[i]);
        return ok;
    }

    constexpr MultiFloat operator-() const noexcept {
        MultiFloat r;
        for (int i = 0; i < N; ++i) r.limb[i] = -limb[i];
        return r;
    }

    constexpr MultiFloat operator+() const noexcept { return *this; }

    /// Widen or truncate to a different expansion length. Widening is exact;
    /// truncation keeps the M most significant limbs (a valid nonoverlapping
    /// expansion of reduced precision).
    template <int M>
    [[nodiscard]] constexpr MultiFloat<T, M> resize() const noexcept {
        MultiFloat<T, M> r;
        constexpr int K = (M < N) ? M : N;
        for (int i = 0; i < K; ++i) r.limb[i] = limb[i];
        for (int i = K; i < M; ++i) r.limb[i] = T(0);
        return r;
    }
};

namespace detail {

/// `scalar` embedded with a zero tail when `fixup` holds, else `fast`. A
/// per-limb conditional select; compilers emit cmov/blend, not branches.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> select(bool fixup, T scalar,
                                                       const MultiFloat<T, N>& fast) noexcept {
    MultiFloat<T, N> r;
    r.limb[0] = fixup ? scalar : fast.limb[0];
    for (int i = 1; i < N; ++i) r.limb[i] = fixup ? T(0) : fast.limb[i];
    return r;
}

}  // namespace detail

/// Debug/test helper: does this expansion satisfy the strict nonoverlapping
/// invariant |limb[i]| <= (1/2) ulp(limb[i-1])? (Branchy; not used by the
/// arithmetic hot paths.)
template <FloatingPoint T, int N>
[[nodiscard]] bool is_nonoverlapping(const MultiFloat<T, N>& x) noexcept {
    constexpr int p = std::numeric_limits<T>::digits;
    for (int i = 1; i < N; ++i) {
        const T hi = x.limb[i - 1];
        const T lo = x.limb[i];
        if (hi == T(0)) {
            if (lo != T(0)) return false;
            continue;
        }
        if (lo == T(0)) continue;
        // ulp(hi) = 2^(exponent(hi) - p + 1); |lo| <= 2^(exponent(hi) - p)
        const int e_hi = std::ilogb(hi);
        const int e_lo = std::ilogb(lo);
        if (e_lo > e_hi - p) return false;
        // Boundary case |lo| == 2^(e_hi - p) exactly is allowed by Eq. 8.
        if (e_lo == e_hi - p && std::abs(lo) != std::ldexp(T(1), e_lo))
            return false;
    }
    return true;
}

/// Weaker diagnostic: limbs decrease by at least `slack` bits fewer than the
/// full precision p. is_nonoverlapping == is_p_overlapping with slack 0.
template <FloatingPoint T, int N>
[[nodiscard]] bool overlap_bits(const MultiFloat<T, N>& x, int* worst = nullptr) noexcept {
    constexpr int p = std::numeric_limits<T>::digits;
    int w = 0;
    for (int i = 1; i < N; ++i) {
        if (x.limb[i - 1] == T(0) || x.limb[i] == T(0)) continue;
        const int gap = std::ilogb(x.limb[i - 1]) - std::ilogb(x.limb[i]);
        if (p - gap > w) w = p - gap;
    }
    if (worst) *worst = w;
    return w <= 0;
}

// Common aliases used throughout the paper's evaluation.
using Float64x2 = MultiFloat<double, 2>;  ///< ~quadruple precision (107 bits)
using Float64x3 = MultiFloat<double, 3>;  ///< ~sextuple precision (161 bits)
using Float64x4 = MultiFloat<double, 4>;  ///< ~octuple precision (215 bits)
using Float32x2 = MultiFloat<float, 2>;
using Float32x3 = MultiFloat<float, 3>;
using Float32x4 = MultiFloat<float, 4>;

}  // namespace mf
