#pragma once
// Division and square root via division-free Newton-Raphson iteration
// (paper §4.3).
//
// The reciprocal iterate  r <- r + r*(1 - a*r)  and the inverse-square-root
// iterate  r <- r + (r/2)*(1 - a*r^2)  double the number of correct bits per
// step (multiplication by 1/2 is exact). Starting from the machine-precision
// estimate, ceil(log2(N)) + 1 full-width iterations saturate an N-term
// expansion. A final Karp-Markstein-style correction step fuses the last
// refinement with the multiplication by the dividend / radicand, fixing the
// trailing bits at the cost of one extra multiply-add.
//
// The iteration counts below were validated against the exact BigFloat
// oracle (see tests/divsqrt_test.cpp); progressive-width variants are
// benchmarked in bench/ablation_divsqrt.cpp.

#include <cmath>

#include "add.hpp"
#include "mul.hpp"
#include "multifloat.hpp"

namespace mf {
namespace detail {

/// Newton iterations needed to refine a machine-precision seed to N terms.
template <int N>
inline constexpr int newton_iters = (N <= 2) ? 2 : 3;

}  // namespace detail

/// Reciprocal 1/a of an expansion, full target precision.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> recip(const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(T(1) / a.limb[0]);
    } else {
        const MultiFloat<T, N> one(T(1));
        MultiFloat<T, N> r(T(1) / a.limb[0]);
        for (int k = 0; k < detail::newton_iters<N>; ++k) {
            r = r + r * (one - a * r);
        }
        return r;
    }
}

/// Progressive-width reciprocal (the §4.3 optimization): the k-th Newton
/// iterate only carries ~2^k * p correct bits, so early iterations are run
/// at half the expansion width, then widened for one full-width iteration.
/// Same accuracy contract as recip(); benchmarked in bench/ablation_divsqrt.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> recip_progressive(const MultiFloat<T, N>& a) noexcept {
    if constexpr (N <= 2) {
        return recip(a);
    } else {
        constexpr int H = (N + 1) / 2;
        const MultiFloat<T, H> half = recip_progressive(a.template resize<H>());
        const MultiFloat<T, N> one(T(1));
        MultiFloat<T, N> r = half.template resize<N>();
        r = r + r * (one - a * r);
        return r;
    }
}

/// Quotient b/a using the progressive-width reciprocal.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> div_progressive(const MultiFloat<T, N>& b,
                                               const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(b.limb[0] / a.limb[0]);
    } else {
        const MultiFloat<T, N> r = recip_progressive(a);
        MultiFloat<T, N> q = b * r;
        q = q + r * (b - a * q);
        return q;
    }
}

/// Quotient b/a with a Karp-Markstein correction step.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> div(const MultiFloat<T, N>& b,
                                   const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(b.limb[0] / a.limb[0]);
    } else {
        const MultiFloat<T, N> r = recip(a);
        MultiFloat<T, N> q = b * r;
        q = q + r * (b - a * q);  // correction: fixes the trailing bits
        return q;
    }
}

/// Inverse square root 1/sqrt(a) for a > 0.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> rsqrt(const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(T(1) / std::sqrt(a.limb[0]));
    } else {
        const MultiFloat<T, N> one(T(1));
        MultiFloat<T, N> r(T(1) / std::sqrt(a.limb[0]));
        for (int k = 0; k < detail::newton_iters<N>; ++k) {
            const MultiFloat<T, N> d = one - a * (r * r);
            r = r + ldexp(r * d, -1);
        }
        return r;
    }
}

/// Square root for a >= 0 (a == 0 returns 0; negative a yields NaN limbs,
/// matching the base type's sqrt semantics).
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> sqrt(const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(std::sqrt(a.limb[0]));
    } else {
        if (a.is_zero()) return MultiFloat<T, N>(std::sqrt(a.limb[0]));
        const MultiFloat<T, N> r = rsqrt(a);
        MultiFloat<T, N> s = a * r;
        // Karp-Markstein correction: s <- s + (r/2) * (a - s^2).
        s = s + ldexp(r, -1) * (a - s * s);
        return s;
    }
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> operator/(const MultiFloat<T, N>& b,
                                         const MultiFloat<T, N>& a) noexcept {
    return div(b, a);
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> operator/(const MultiFloat<T, N>& b, T a) noexcept {
    return div(b, MultiFloat<T, N>(a));
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> operator/(T b, const MultiFloat<T, N>& a) noexcept {
    return div(MultiFloat<T, N>(b), a);
}

template <FloatingPoint T, int N>
MultiFloat<T, N>& operator/=(MultiFloat<T, N>& x, const MultiFloat<T, N>& y) noexcept {
    x = div(x, y);
    return x;
}

template <FloatingPoint T, int N>
MultiFloat<T, N>& operator/=(MultiFloat<T, N>& x, T y) noexcept {
    x = x / y;
    return x;
}

}  // namespace mf
