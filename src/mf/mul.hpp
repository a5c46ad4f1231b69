#pragma once
// Branch-free multiplication of nonoverlapping floating-point expansions
// (paper §4.2, Figures 5-7).
//
// Strategy: by distributivity, x*y is the exact sum of the n^2 pairwise limb
// products. TwoProd makes each pairwise product exact. Two optimizations from
// the paper are applied:
//
//  * Discard optimization: writing e_x, e_y for the exponents of x0, y0, any
//    term with exponent below e_x + e_y - n(p+1) cannot affect an n-term
//    result. Hence p_ij is dropped for i+j >= n and the TwoProd error e_ij is
//    dropped for i+j+1 >= n: only n(n-1)/2 TwoProds and n plain products are
//    needed, and the accumulation network has n^2 inputs instead of 2n^2.
//
//  * Commutativity layer: the symmetric pairs (p_ij, p_ji) and (e_ij, e_ji)
//    are first combined with commutative gates so that mul(x, y) and
//    mul(y, x) are bit-identical -- the property §4.2 highlights for complex
//    conjugate products.
//
// The expansion step below is the only code here: it lays the terms out on
// the wires of fpan::mul_table<N> (fpan/gates.hpp, the object the checker
// verifies). N = 2 is the optimal 3-gate, depth-3 Figure 5 network (error
// <= 2^-(2p-3)|xy|); N = 3, 4 are reconstructions whose bounds (2^-(3p-3),
// 2^-(4p-4)) the test suite enforces against the exact BigFloat oracle.

#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "add.hpp"  // detail::run_fpan
#include "eft.hpp"
#include "multifloat.hpp"

namespace mf {
namespace detail {

/// Non-commutative 2-term multiplication (DWTimesDW-style FMA chain).
/// Slightly cheaper than mul2 but mul_fast2(x, y) != mul_fast2(y, x) in
/// general; kept for the §4.2 commutativity ablation.
template <FloatingPoint T>
MultiFloat<T, 2> mul2_noncommutative(const MultiFloat<T, 2>& x,
                                     const MultiFloat<T, 2>& y) noexcept {
    using std::fma;  // ADL: pack-level fma for SIMD value types
    const auto [p00, e00] = two_prod(x.limb[0], y.limb[0]);
    T w[] = {p00, e00, fma(x.limb[0], y.limb[1], x.limb[1] * y.limb[0])};
    return run_fpan<fpan::mul2_fma_table>(w);
}

}  // namespace detail

/// Expansion multiplication. The expansion step forms the products the
/// discard rule keeps -- TwoProd for i+j <= N-2, a plain product for
/// i+j == N-1 -- in the wire order of fpan::mul_table<N>.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> mul(const MultiFloat<T, N>& x,
                                   const MultiFloat<T, N>& y) noexcept {
    const auto& a = x.limb;
    const auto& b = y.limb;
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(a[0] * b[0]);
    } else if constexpr (N == 2) {
        // (a1*b1 falls entirely below the threshold and is never formed.)
        const auto [p00, e00] = two_prod(a[0], b[0]);
        T w[] = {p00, e00, a[0] * b[1], a[1] * b[0]};
        return detail::run_fpan<fpan::mul_table<2>>(w);
    } else if constexpr (N == 3) {
        const auto [p00, e00] = two_prod(a[0], b[0]);
        const auto [p01, e01] = two_prod(a[0], b[1]);
        const auto [p10, e10] = two_prod(a[1], b[0]);
        T w[] = {p00, e00, p01, p10, e01, e10, a[0] * b[2], a[2] * b[0], a[1] * b[1]};
        return detail::run_fpan<fpan::mul_table<3>>(w);
    } else {
        static_assert(N == 4, "mul: expansion lengths 1-4 are supported");
        const auto [p00, e00] = two_prod(a[0], b[0]);
        const auto [p01, e01] = two_prod(a[0], b[1]);
        const auto [p10, e10] = two_prod(a[1], b[0]);
        const auto [p02, e02] = two_prod(a[0], b[2]);
        const auto [p20, e20] = two_prod(a[2], b[0]);
        const auto [p11, e11] = two_prod(a[1], b[1]);
        T w[] = {p00, e00, p01, p10, e01, e10, p02, p20,
                 e02, e20, p11, e11, a[0] * b[3], a[3] * b[0], a[1] * b[2], a[2] * b[1]};
        return detail::run_fpan<fpan::mul_table<4>>(w);
    }
}

/// Mixed expansion-scalar multiplication: (p_i, e_i) = TwoProd(x_i, y) for
/// i < N-1 and a plain product for the last limb, laid out for
/// fpan::mul_scalar_table<N>.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> mul(const MultiFloat<T, N>& x, T y) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(x.limb[0] * y);
    } else {
        T w[2 * N - 1];
#pragma GCC unroll 8
        for (int i = 0; i < N - 1; ++i) {
            const auto [p, e] = two_prod(x.limb[i], y);
            w[i == 0 ? 0 : 2 * i - 1] = p;
            w[2 * i + 2] = e;
        }
        w[2 * N - 3] = x.limb[N - 1] * y;
        return detail::run_fpan<fpan::mul_scalar_table<N>>(w);
    }
}

/// Multiplication by 2^e, limb by limb. Where 2^e is a normal number of an
/// IEEE binary32/binary64 T, each limb is multiplied by that power, built
/// from its bit pattern: one correctly rounded multiply by an exact power of
/// two is std::ldexp bit for bit (subnormal results, +-0, inf and NaN
/// included), and the limb loop has no libm call. Outside that range (and
/// for other value types) each limb takes std::ldexp. Exact while every limb
/// stays normal: a limb scaled into the subnormal range rounds, and a large
/// e overflows to +-Inf.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> ldexp(const MultiFloat<T, N>& x, int e) noexcept {
    MultiFloat<T, N> r;
    if constexpr (std::floating_point<T> && std::numeric_limits<T>::is_iec559 &&
                  (sizeof(T) == 4 || sizeof(T) == 8)) {
        using L = std::numeric_limits<T>;
        using U = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
        if (e >= L::min_exponent - 1 && e <= L::max_exponent - 1) {
            // Biased exponent e + (1 - (min_exponent - 1)), zero significand.
            const T scale =
                std::bit_cast<T>(static_cast<U>(e - L::min_exponent + 2) << (L::digits - 1));
            for (int i = 0; i < N; ++i) r.limb[i] = x.limb[i] * scale;
            return r;
        }
    }
    for (int i = 0; i < N; ++i) r.limb[i] = std::ldexp(x.limb[i], e);
    return r;
}

namespace detail {

/// x/2, each limb times T(0.5): the same correctly rounded limbs as
/// ldexp(x, -1) without a libm call, and exact unless a limb is subnormal.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> halve(const MultiFloat<T, N>& x) noexcept {
    MultiFloat<T, N> r;
    for (int i = 0; i < N; ++i) r.limb[i] = x.limb[i] * T(0.5);
    return r;
}

}  // namespace detail

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> operator*(const MultiFloat<T, N>& x,
                                         const MultiFloat<T, N>& y) noexcept {
    return mul(x, y);
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> operator*(const MultiFloat<T, N>& x, T y) noexcept {
    return mul(x, y);
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> operator*(T x, const MultiFloat<T, N>& y) noexcept {
    return mul(y, x);
}

template <FloatingPoint T, int N>
MultiFloat<T, N>& operator*=(MultiFloat<T, N>& x, const MultiFloat<T, N>& y) noexcept {
    x = mul(x, y);
    return x;
}

template <FloatingPoint T, int N>
MultiFloat<T, N>& operator*=(MultiFloat<T, N>& x, T y) noexcept {
    x = mul(x, y);
    return x;
}

}  // namespace mf
