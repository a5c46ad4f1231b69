#pragma once
// Elementary transcendental functions on expansions: exp, log, sin, cos,
// tan, pow, sinh, cosh.
//
// These extend the paper's arithmetic core the way mature expansion
// libraries (QD, MultiFloats.jl) do, using only the branch-free +,-,*,/ of
// this library plus classical argument reduction:
//
//   exp: x = m*ln2 + r, r scaled by 2^-kScale, Estrin Taylor, repeated
//        squaring, exact ldexp by m.
//   log: Newton's method on exp (y <- y - 1 + x*exp(-y)), double-precision
//        seed, quadratically convergent.
//   sin/cos: reduce modulo pi/2 at full working precision, quadrant
//        dispatch, Estrin Taylor in r^2.
//
// The three Taylor series are one evaluator, detail::estrin4: four Horner
// chains in z^4, one per residue class of the term index mod 4, run side by
// side on the lanes of a MultiFloat<simd::Pack<T, 4>, N> over coefficient
// lanes built once per (T, N) from the precomputed inverse factorials, then
// joined as (C0 + z C1) + z^2 (C2 + z C3). A Pack lane runs the scalar IEEE
// operations, so every backend and ISA level returns the same bits as the
// same order written out with scalar mf::add / mf::mul (tests/
// elementary_test.cpp, Elementary.LaneSeriesMatchesScalarEstrin). The
// chains are independent, so a series takes about a quarter of its serial
// Horner latency plus the join.
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

#include "../simd/pack.hpp"
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

/// The coefficients c_0..c_{M-1} of a series in z dealt onto four lanes:
/// row i holds c_{4i}, c_{4i+2}, c_{4i+1}, c_{4i+3} (zero past c_{M-1}).
/// The lane order puts the even classes in the low half, so halves() splits
/// the four chains into (C0, C2) and (C1, C3).
template <FloatingPoint T, int N, int M>
using LaneSeries = std::array<MultiFloat<simd::Pack<T, 4>, N>, (M + 3) / 4>;

/// Row i, lane l of the table holds c_{4i + kClassOfLane[l]}.
inline constexpr int kClassOfLane[4] = {0, 2, 1, 3};

/// Deal c_j = sign(j) / (step*j + first)! for j < M onto four lanes; sign(j)
/// is -1 for odd j when `alternating`.
template <FloatingPoint T, int N, int M, int KMax>
LaneSeries<T, N, M> deal_inv_factorials(int step, int first, bool alternating) {
    const auto& inv = inv_factorials<T, N, KMax>();
    LaneSeries<T, N, M> rows;
    for (int i = 0; i < (M + 3) / 4; ++i) {
        MultiFloat<T, N> c[4];
        for (int l = 0; l < 4; ++l) {
            const int j = 4 * i + kClassOfLane[l];
            if (j >= M) continue;
            c[l] = inv[static_cast<std::size_t>(step * j + first)];
            if (alternating && j % 2 == 1) c[l] = -c[l];
        }
        for (int k = 0; k < N; ++k) {
            rows[static_cast<std::size_t>(i)].limb[k] =
                simd::Pack<T, 4>::setr(c[0].limb[k], c[1].limb[k], c[2].limb[k], c[3].limb[k]);
        }
    }
    return rows;
}

/// exp: c_j = 1/j!, j < exp_terms.
template <FloatingPoint T, int N>
const LaneSeries<T, N, exp_terms<N>>& exp_series() {
    static const auto rows =
        deal_inv_factorials<T, N, exp_terms<N>, exp_terms<N>>(1, 0, false);
    return rows;
}

/// sin(r) / r in z = r^2: c_j = (-1)^j / (2j+1)!, for the odd k < trig_terms.
template <FloatingPoint T, int N>
const LaneSeries<T, N, trig_terms<N> / 2>& sin_series() {
    static const auto rows =
        deal_inv_factorials<T, N, trig_terms<N> / 2, trig_terms<N>>(2, 1, true);
    return rows;
}

/// cos(r) in z = r^2: c_j = (-1)^j / (2j)!, for the even k < trig_terms.
template <FloatingPoint T, int N>
const LaneSeries<T, N, trig_terms<N> / 2>& cos_series() {
    static const auto rows =
        deal_inv_factorials<T, N, trig_terms<N> / 2, trig_terms<N>>(2, 0, true);
    return rows;
}

/// sum_j c_j z^j by Estrin order 4: the chain of class q runs Horner over
/// c_{4i+q} in v = z^4 on its own lane (a lane past its last term holds
/// zero, and 0 * v + c returns c), and the four chains C0..C3 join as
/// (C0 + z C1) + z^2 (C2 + z C3), the inner pair on two lanes.
template <FloatingPoint T, int N, std::size_t R>
MultiFloat<T, N> estrin4(const std::array<MultiFloat<simd::Pack<T, 4>, N>, R>& rows,
                         const MultiFloat<T, N>& z) {
    using P4 = simd::Pack<T, 4>;
    using P2 = simd::Pack<T, 2>;
    const MultiFloat<T, N> z2 = mul(z, z);
    const MultiFloat<T, N> v = mul(z2, z2);
    MultiFloat<P4, N> v4;
    MultiFloat<P2, N> z_2;
    for (int k = 0; k < N; ++k) {
        v4.limb[k] = P4::broadcast(v.limb[k]);
        z_2.limb[k] = P2::broadcast(z.limb[k]);
    }
    MultiFloat<P4, N> acc = rows[R - 1];
    for (std::size_t i = R - 1; i-- > 0;) acc = add(mul(acc, v4), rows[i]);
    // (C0, C2) + z (C1, C3) on two lanes.
    MultiFloat<P2, N> even, odd;
    for (int k = 0; k < N; ++k) {
        const auto [lo, hi] = acc.limb[k].halves();
        even.limb[k] = lo;
        odd.limb[k] = hi;
    }
    const MultiFloat<P2, N> pair = add(even, mul(z_2, odd));
    MultiFloat<T, N> a, b;
    for (int k = 0; k < N; ++k) {
        a.limb[k] = pair.limb[k][0];
        b.limb[k] = pair.limb[k][1];
    }
    return add(a, mul(z2, b));
}

/// e^r for the reduced |r| <= ln2/2 * 2^-kExpScale.
template <FloatingPoint T, int N>
MultiFloat<T, N> exp_reduced(const MultiFloat<T, N>& r) {
    return estrin4(exp_series<T, N>(), r);
}

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
    MF acc = detail::exp_reduced(r);
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

/// sin/cos of a reduced argument |r| <= pi/4 by their Taylor series in r^2.
template <FloatingPoint T, int N>
MultiFloat<T, N> sin_reduced(const MultiFloat<T, N>& r) {
    return mul(estrin4(sin_series<T, N>(), mul(r, r)), r);
}

template <FloatingPoint T, int N>
MultiFloat<T, N> cos_reduced(const MultiFloat<T, N>& r) {
    return estrin4(cos_series<T, N>(), mul(r, r));
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
