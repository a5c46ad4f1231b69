#pragma once
// Elementary transcendental functions on expansions: exp, log, sin, cos,
// tan, pow, sinh, cosh.
//
// These extend the paper's arithmetic core the way mature expansion
// libraries (QD, MultiFloats.jl) do, using only the branch-free +,-,*,/ of
// this library plus classical argument reduction:
//
//   exp: x = m*ln2 + r, r scaled by 2^-kScale, Horner Taylor, repeated
//        squaring, exact ldexp by m.
//   log: Newton's method on exp (y <- y - 1 + x*exp(-y)), double-precision
//        seed, quadratically convergent.
//   sin/cos: reduce modulo pi/2 at full working precision, quadrant
//        dispatch, Horner Taylor with precomputed inverse factorials.
//
// Accuracy: a few ulps of the expansion's working precision (tested against
// exact series oracles and algebraic identities in tests/elementary_test.cpp).
// Argument reduction uses the working precision, so trigonometric accuracy
// degrades for |x| >> 2^p as usual.
//
// Requires linking the `bigfloat` library (high-precision constants are
// parsed once per (T, N) instantiation via convert.hpp).

#include <array>
#include <cmath>

#include "add.hpp"
#include "convert.hpp"
#include "div_sqrt.hpp"
#include "mul.hpp"

namespace mf {

namespace detail {

/// High-precision constants, parsed once per instantiation (100 decimal
/// digits; plenty for N <= 8 limbs of any base type).
template <FloatingPoint T, int N>
const MultiFloat<T, N>& const_ln2() {
    static const MultiFloat<T, N> v = from_string<T, N>(
        "0.693147180559945309417232121458176568075500134360255254120680009493393"
        "6219696947156058633269964186875");
    return v;
}

template <FloatingPoint T, int N>
const MultiFloat<T, N>& const_pi() {
    static const MultiFloat<T, N> v = from_string<T, N>(
        "3.141592653589793238462643383279502884197169399375105820974944592307816"
        "4062862089986280348253421170680");
    return v;
}

template <FloatingPoint T, int N>
const MultiFloat<T, N>& const_half_pi() {
    static const MultiFloat<T, N> v = from_string<T, N>(
        "1.570796326794896619231321691639751442098584699687552910487472296153908"
        "2031431044993140174126710585340");
    return v;
}

/// Inverse factorials 1/k! as expansions, computed once by exact integer
/// division at full working precision.
template <FloatingPoint T, int N, int KMax>
const std::array<MultiFloat<T, N>, KMax>& inv_factorials() {
    static const std::array<MultiFloat<T, N>, KMax> table = [] {
        std::array<MultiFloat<T, N>, KMax> t;
        big::BigFloat fact = big::BigFloat::from_int(1);
        for (int k = 0; k < KMax; ++k) {
            if (k > 0) fact = fact * big::BigFloat::from_int(k);
            const big::BigFloat inv = big::BigFloat::div(
                big::BigFloat::from_int(1), fact, MultiFloat<T, N>::precision + 16);
            t[static_cast<std::size_t>(k)] = from_bigfloat<T, N>(inv);
        }
        return t;
    }();
    return table;
}

/// Taylor terms needed so that |r|^K / K! < 2^-(precision + margin) for the
/// reduced arguments used below (|r| < 2^-kExpScale for exp, |r| <= pi/4 for
/// sin/cos). Conservative fixed counts per N keep the code branch-light.
template <int N>
inline constexpr int exp_terms = N == 1 ? 14 : N == 2 ? 18 : N == 3 ? 22 : 26;
template <int N>
inline constexpr int trig_terms = N == 1 ? 18 : N == 2 ? 30 : N == 3 ? 38 : 46;

inline constexpr int kExpScale = 9;  // reduce |r| below ln2/2 / 2^9 ~ 6.8e-4

}  // namespace detail

/// e^x. Overflows (to inf in the leading limb) past the base type's range.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> exp(const MultiFloat<T, N>& x) {
    using MF = MultiFloat<T, N>;
    const double xd = static_cast<double>(x.to_float());
    if (!(std::abs(xd) < 0.99 * static_cast<double>(std::numeric_limits<T>::max_exponent) *
                            0.6931471805599453)) {
        // Out of range (or NaN): defer to the scalar exp for the right
        // special value, exactly as the base type would behave.
        return MF(static_cast<T>(std::exp(xd)));
    }
    // x = m*ln2 + r with |r| <= ln2/2.
    const auto m = static_cast<long>(std::nearbyint(xd / 0.6931471805599453));
    MF r = sub(x, mul(detail::const_ln2<T, N>(), MF(static_cast<T>(m))));
    // Scale r down so the Taylor series needs few terms.
    r = ldexp(r, -detail::kExpScale);
    // Horner over precomputed 1/k!.
    constexpr int K = detail::exp_terms<N>;
    const auto& inv = detail::inv_factorials<T, N, K>();
    MF acc = inv[K - 1];
    for (int k = K - 2; k >= 0; --k) {
        acc = add(mul(acc, r), inv[static_cast<std::size_t>(k)]);
    }
    // Undo the scaling: square kExpScale times, then the exact 2^m.
    for (int s = 0; s < detail::kExpScale; ++s) acc = mul(acc, acc);
    return ldexp(acc, static_cast<int>(m));
}

/// Natural logarithm for x > 0 (NaN limbs otherwise, like the base type).
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> log(const MultiFloat<T, N>& x) {
    using MF = MultiFloat<T, N>;
    const double xd = static_cast<double>(x.to_float());
    if (!(xd > 0.0) || !std::isfinite(xd)) {
        return MF(static_cast<T>(std::log(xd)));
    }
    // Newton on f(y) = e^y - x:  y <- y - 1 + x * e^{-y}; the double seed
    // gives 53 bits and each iteration doubles them.
    MF y(static_cast<T>(std::log(xd)));
    const MF one(T(1));
    const int iters = N <= 2 ? 2 : 3;
    for (int i = 0; i < iters; ++i) {
        const MF e = exp(-y);
        y = add(sub(y, one), mul(x, e));
    }
    return y;
}

namespace detail {

/// sin/cos of a reduced argument |r| <= pi/4 via Horner Taylor.
template <FloatingPoint T, int N>
MultiFloat<T, N> sin_reduced(const MultiFloat<T, N>& r) {
    constexpr int K = trig_terms<N>;
    const auto& inv = inv_factorials<T, N, K>();
    const MultiFloat<T, N> r2 = mul(r, r);
    // sum over odd k: r * (1/1! - r^2/3! + r^4/5! - ...)
    MultiFloat<T, N> acc{};
    for (int k = (K - 1) | 1; k >= 1; k -= 2) {
        const auto& c = inv[static_cast<std::size_t>(k)];
        acc = add(mul(acc, r2), ((k / 2) % 2 == 0) ? c : -c);
    }
    return mul(acc, r);
}

template <FloatingPoint T, int N>
MultiFloat<T, N> cos_reduced(const MultiFloat<T, N>& r) {
    constexpr int K = trig_terms<N>;
    const auto& inv = inv_factorials<T, N, K>();
    const MultiFloat<T, N> r2 = mul(r, r);
    MultiFloat<T, N> acc{};
    for (int k = (K - 1) & ~1; k >= 0; k -= 2) {
        const auto& c = inv[static_cast<std::size_t>(k)];
        acc = add(mul(acc, r2), ((k / 2) % 2 == 0) ? c : -c);
    }
    return acc;
}

/// Argument reduction: r = x - q * pi/2 at full working precision; returns
/// the quadrant q mod 4 (non-negative).
template <FloatingPoint T, int N>
int trig_reduce(const MultiFloat<T, N>& x, MultiFloat<T, N>& r) {
    const double q = std::nearbyint(static_cast<double>(x.to_float()) /
                                    1.5707963267948966);
    r = sub(x, mul(const_half_pi<T, N>(), MultiFloat<T, N>(static_cast<T>(q))));
    const auto qi = static_cast<long long>(q);
    return static_cast<int>(((qi % 4) + 4) % 4);
}

}  // namespace detail

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> sin(const MultiFloat<T, N>& x) {
    using MF = MultiFloat<T, N>;
    if (!x.is_finite()) return MF(static_cast<T>(std::sin(static_cast<double>(x.to_float()))));
    MF r;
    switch (detail::trig_reduce(x, r)) {
        case 0: return detail::sin_reduced(r);
        case 1: return detail::cos_reduced(r);
        case 2: return -detail::sin_reduced(r);
        default: return -detail::cos_reduced(r);
    }
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> cos(const MultiFloat<T, N>& x) {
    using MF = MultiFloat<T, N>;
    if (!x.is_finite()) return MF(static_cast<T>(std::cos(static_cast<double>(x.to_float()))));
    MF r;
    switch (detail::trig_reduce(x, r)) {
        case 0: return detail::cos_reduced(r);
        case 1: return -detail::sin_reduced(r);
        case 2: return -detail::cos_reduced(r);
        default: return detail::sin_reduced(r);
    }
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> tan(const MultiFloat<T, N>& x) {
    MultiFloat<T, N> r;
    const int q = detail::trig_reduce(x, r);
    const auto s = detail::sin_reduced(r);
    const auto c = detail::cos_reduced(r);
    return (q % 2 == 0) ? div(s, c) : -div(c, s);
}

/// x^y = exp(y log x) for x > 0.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> pow(const MultiFloat<T, N>& x, const MultiFloat<T, N>& y) {
    return exp(mul(y, log(x)));
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> sinh(const MultiFloat<T, N>& x) {
    // For small x the direct formula cancels; switch to the sinh series via
    // sinh x = s where e = exp(x): s = (e - 1/e)/2.
    const auto e = exp(x);
    return detail::halve(sub(e, recip(e)));
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> cosh(const MultiFloat<T, N>& x) {
    const auto e = exp(x);
    return detail::halve(add(e, recip(e)));
}

/// pi at the working precision (Eq. 7): handy for user argument reduction.
template <FloatingPoint T, int N>
[[nodiscard]] const MultiFloat<T, N>& pi() {
    return detail::const_pi<T, N>();
}

/// atan via Newton on tan: y <- y - (tan y - x) cos^2 y, double seed,
/// quadratic convergence (2-3 iterations of one sin/cos pair each).
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> atan(const MultiFloat<T, N>& x) {
    using MF = MultiFloat<T, N>;
    const double xd = static_cast<double>(x.to_float());
    if (!std::isfinite(xd)) return MF(static_cast<T>(std::atan(xd)));
    MF y(static_cast<T>(std::atan(xd)));
    const int iters = N <= 2 ? 2 : 3;
    for (int i = 0; i < iters; ++i) {
        // sin/cos of y via quadrant mapping: sin(r + q pi/2), cos(r + q pi/2).
        MF r;
        const int q = detail::trig_reduce(y, r);
        MF s = detail::sin_reduced(r);
        MF c = detail::cos_reduced(r);
        if (q == 1 || q == 3) std::swap(s, c);  // |y| < pi/2, but be safe
        if (q == 1 || q == 2) c = -c;
        if (q == 2 || q == 3) s = -s;
        // y -= (s - x c) * c   ==  y - (tan y - x) cos^2 y
        y = sub(y, mul(sub(s, mul(x, c)), c));
    }
    return y;
}

/// Four-quadrant arc tangent (IEEE-style quadrant handling; a handful of
/// sign branches at the API level, like every atan2).
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> atan2(const MultiFloat<T, N>& y, const MultiFloat<T, N>& x) {
    using MF = MultiFloat<T, N>;
    if (x.is_zero() && y.is_zero()) return MF(T(0));
    if (x.is_zero()) {
        return y.limb[0] > T(0) ? detail::const_half_pi<T, N>()
                                : -detail::const_half_pi<T, N>();
    }
    const MF base = atan(div(y, x));
    if (x.limb[0] > T(0)) return base;
    return y.limb[0] >= T(0) ? add(base, detail::const_pi<T, N>())
                             : sub(base, detail::const_pi<T, N>());
}

/// asin for |x| <= 1: atan(x / sqrt(1 - x^2)) with endpoint handling.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> asin(const MultiFloat<T, N>& x) {
    using MF = MultiFloat<T, N>;
    const MF one(T(1));
    const MF d = sub(one, mul(x, x));
    if (d.limb[0] <= T(0)) {
        // |x| == 1 (or slightly beyond): +-pi/2 / NaN like the base type.
        if (x == one) return detail::const_half_pi<T, N>();
        if (x == -one) return -detail::const_half_pi<T, N>();
        return MF(static_cast<T>(std::asin(static_cast<double>(x.to_float()))));
    }
    return atan(div(x, sqrt(d)));
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> acos(const MultiFloat<T, N>& x) {
    return sub(detail::const_half_pi<T, N>(), asin(x));
}

/// Base-2 and base-10 variants.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> exp2(const MultiFloat<T, N>& x) {
    return exp(mul(x, detail::const_ln2<T, N>()));
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> log2(const MultiFloat<T, N>& x) {
    return div(log(x), detail::const_ln2<T, N>());
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> log10(const MultiFloat<T, N>& x) {
    static const MultiFloat<T, N> ln10 = from_string<T, N>(
        "2.302585092994045684017991454684364207601101488628772976033327900967572"
        "6096773524802359972050895983");
    return div(log(x), ln10);
}

}  // namespace mf
