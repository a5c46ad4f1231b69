#pragma once
// Division and square root via division-free Newton-Raphson iteration
// (paper §4.3).
//
// The reciprocal iterate  r <- r + r*(1 - a*r)  and the inverse-square-root
// iterate  r <- r + (r/2)*(1 - a*r^2)  double the number of correct bits per
// step (the halving is exact). Since the k-th iterate carries only about
// 2^k * p correct bits, the early iterates run narrow: an N-term result is
// the ceil(N/2)-term result (recursively, down to the one-limb
// machine-precision seed) widened and refined by full-width steps. A final
// Karp-Markstein-style correction step fuses the last refinement with the
// multiplication by the dividend / radicand, fixing the trailing bits at the
// cost of one extra multiply-add.
//
// The schedule (detail::newton_steps) was validated against the exact
// BigFloat oracle (tests/divsqrt_test.cpp, tools/mf_fuzz);
// bench/ablation_divsqrt.cpp times it against a full-width loop.

#include <cmath>

#include "add.hpp"
#include "mul.hpp"
#include "multifloat.hpp"

namespace mf {
namespace detail {

/// Full-width Newton steps that take the ceil(N/2)-term result to N terms.
/// The one-limb seed (N = 2) takes two steps, the second absorbing the first
/// one's rounding; a wider half-width result needs one.
template <int N>
inline constexpr int newton_steps = (N == 2) ? 2 : 1;

}  // namespace detail

/// Reciprocal 1/a of an expansion, full target precision.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> recip(const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(T(1) / a.limb[0]);
    } else {
        const MultiFloat<T, N> one(T(1));
        MultiFloat<T, N> r = recip(a.template resize<(N + 1) / 2>()).template resize<N>();
        for (int k = 0; k < detail::newton_steps<N>; ++k) {
            r = add(r, mul(r, sub(one, mul(a, r))));
        }
        return r;
    }
}

/// Quotient b/a with a Karp-Markstein correction step.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> div(const MultiFloat<T, N>& b,
                                                    const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(b.limb[0] / a.limb[0]);
    } else {
        const MultiFloat<T, N> r = recip(a);
        const MultiFloat<T, N> q = mul(b, r);
        return add(q, mul(r, sub(b, mul(a, q))));  // correction: fixes the trailing bits
    }
}

/// Inverse square root 1/sqrt(a) for a > 0.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> rsqrt(const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(T(1) / std::sqrt(a.limb[0]));
    } else {
        const MultiFloat<T, N> one(T(1));
        MultiFloat<T, N> r = rsqrt(a.template resize<(N + 1) / 2>()).template resize<N>();
        for (int k = 0; k < detail::newton_steps<N>; ++k) {
            const MultiFloat<T, N> d = sub(one, mul(a, mul(r, r)));
            r = add(r, detail::halve(mul(r, d)));
        }
        return r;
    }
}

/// Square root for a >= 0 (+-0 returns +-0; negative a yields NaN limbs,
/// matching the base type's sqrt semantics).
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> sqrt(const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(std::sqrt(a.limb[0]));
    } else {
        const MultiFloat<T, N> r = rsqrt(a);
        const MultiFloat<T, N> s = mul(a, r);
        // Karp-Markstein correction: s <- s + (r/2) * (a - s^2). A zero
        // radicand makes r infinite and s NaN; the select returns +-0.
        return detail::select(a.limb[0] == T(0), a.limb[0],
                              add(s, mul(detail::halve(r), sub(a, mul(s, s)))));
    }
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> operator/(const MultiFloat<T, N>& b,
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
