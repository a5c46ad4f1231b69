// Elementary transcendental functions: checked against independent exact
// oracles (Taylor series evaluated in exact BigFloat arithmetic, and pi via
// Machin's formula, both implemented HERE rather than in the library) plus
// algebraic identities.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <type_traits>
#include <vector>

#include "mf/elementary.hpp"
#include "support.hpp"

namespace {

using namespace mf;
using mf::big::BigFloat;
using mf::test::adversarial;
using mf::test::exact;

// ---------------------------------------------------------------------------
// Independent oracles (exact arithmetic; truncation error is bounded by the
// first dropped term, which we drive below 2^-300).
// ---------------------------------------------------------------------------

/// exp(x) for |x| <= 1 via the exact Taylor series.
BigFloat exp_oracle(const BigFloat& x) {
    BigFloat sum = BigFloat::from_int(1);
    BigFloat term = BigFloat::from_int(1);
    for (int k = 1; k < 120; ++k) {
        term = BigFloat::div(term * x, BigFloat::from_int(k), 400);
        sum = sum + term;
    }
    return sum;
}

/// sin(x) for |x| <= 2 via the exact Taylor series.
BigFloat sin_oracle(const BigFloat& x) {
    BigFloat sum = x;
    BigFloat term = x;
    const BigFloat x2 = x * x;
    for (int k = 3; k < 140; k += 2) {
        term = BigFloat::div(term * x2, BigFloat::from_int(k * (k - 1)), 400);
        sum = (((k - 1) / 2) % 2 == 1) ? sum - term : sum + term;
    }
    return sum;
}

BigFloat cos_oracle(const BigFloat& x) {
    BigFloat sum = BigFloat::from_int(1);
    BigFloat term = BigFloat::from_int(1);
    const BigFloat x2 = x * x;
    for (int k = 2; k < 140; k += 2) {
        term = BigFloat::div(term * x2, BigFloat::from_int(k * (k - 1)), 400);
        sum = ((k / 2) % 2 == 1) ? sum - term : sum + term;
    }
    return sum;
}

/// atan(1/q) for integer q >= 2 via the exact Gregory series.
BigFloat atan_inv_oracle(std::int64_t q) {
    const BigFloat invq = BigFloat::div(BigFloat::from_int(1), BigFloat::from_int(q), 400);
    const BigFloat invq2 = (invq * invq).round(400);
    BigFloat pow = invq;
    BigFloat sum = invq;
    for (int k = 3; k < 260; k += 2) {
        pow = (pow * invq2).round(400);
        const BigFloat term = BigFloat::div(pow, BigFloat::from_int(k), 400);
        sum = ((k / 2) % 2 == 1) ? sum - term : sum + term;
    }
    return sum;
}

/// pi via Machin: pi = 16 atan(1/5) - 4 atan(1/239).
BigFloat pi_oracle() {
    return atan_inv_oracle(5).ldexp(4) - atan_inv_oracle(239).ldexp(2);
}

// Working-accuracy bound for transcendental results: a few ulps of N*p plus
// argument-reduction slack.
template <int N, int P>
constexpr int elem_bound = N * P - N - 9;

template <typename MF>
class ElemTyped : public ::testing::Test {};

using Types = ::testing::Types<MultiFloat<double, 2>, MultiFloat<double, 3>,
                               MultiFloat<double, 4>>;
TYPED_TEST_SUITE(ElemTyped, Types);

TYPED_TEST(ElemTyped, ExpMatchesSeriesOracle) {
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(1 + N);
    for (int i = 0; i < 60; ++i) {
        const TypeParam x = adversarial<double, N>(rng, -6, 0);  // |x| <= 1
        const TypeParam got = mf::exp(x);
        const BigFloat want = exp_oracle(exact(x));
        MF_EXPECT_REL_BOUND(got, want, (elem_bound<N, 53>));
    }
}

TYPED_TEST(ElemTyped, SinCosMatchSeriesOracle) {
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(2 + N);
    for (int i = 0; i < 60; ++i) {
        const TypeParam x = adversarial<double, N>(rng, -6, 0);
        const TypeParam s = mf::sin(x);
        const TypeParam c = mf::cos(x);
        MF_EXPECT_REL_BOUND(s, sin_oracle(exact(x)), (elem_bound<N, 53>));
        MF_EXPECT_REL_BOUND(c, cos_oracle(exact(x)), (elem_bound<N, 53>));
    }
}

TYPED_TEST(ElemTyped, ExpLogRoundTrip) {
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(3 + N);
    for (int i = 0; i < 40; ++i) {
        const TypeParam x = abs(adversarial<double, N>(rng, -8, 8));
        if (x.is_zero()) continue;
        const TypeParam back = mf::exp(mf::log(x));
        MF_EXPECT_REL_BOUND(back, exact(x), (elem_bound<N, 53>));
        // And the other direction on a bounded range.
        const TypeParam y = adversarial<double, N>(rng, -4, 3);
        const TypeParam back2 = mf::log(mf::exp(y));
        const BigFloat wy = exact(y);
        if (!wy.is_zero()) {
            // log(exp y) - y is an ABSOLUTE error comparison near y = 0.
            const BigFloat diff = (exact(back2) - wy).abs();
            const double lhs =
                diff.is_zero() ? -1e9 : static_cast<double>(diff.ilogb());
            const double rhs =
                static_cast<double>(wy.ilogb()) - (elem_bound<N, 53>)+6;
            EXPECT_LE(lhs, rhs) << "case " << i;
        }
    }
}

TYPED_TEST(ElemTyped, ExpFunctionalEquation) {
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(4 + N);
    for (int i = 0; i < 40; ++i) {
        const TypeParam a = adversarial<double, N>(rng, -4, 2);
        const TypeParam b = adversarial<double, N>(rng, -4, 2);
        const TypeParam lhs = mf::exp(add(a, b));
        const TypeParam rhs = mul(mf::exp(a), mf::exp(b));
        MF_EXPECT_REL_BOUND(lhs, exact(rhs), (elem_bound<N, 53> - 3));
    }
}

TYPED_TEST(ElemTyped, PythagoreanIdentity) {
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(5 + N);
    for (int i = 0; i < 60; ++i) {
        const TypeParam x = adversarial<double, N>(rng, -6, 6);
        const TypeParam s = mf::sin(x);
        const TypeParam c = mf::cos(x);
        const TypeParam one = add(mul(s, s), mul(c, c));
        MF_EXPECT_REL_BOUND(one, BigFloat::from_int(1), (elem_bound<N, 53> - 2));
    }
}

TYPED_TEST(ElemTyped, TrigAdditionFormula) {
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(6 + N);
    for (int i = 0; i < 30; ++i) {
        const TypeParam a = adversarial<double, N>(rng, -4, 2);
        const TypeParam b = adversarial<double, N>(rng, -4, 2);
        const TypeParam lhs = mf::sin(add(a, b));
        const TypeParam rhs =
            add(mul(mf::sin(a), mf::cos(b)), mul(mf::cos(a), mf::sin(b)));
        const BigFloat want = exact(rhs);
        if (!want.is_zero()) {
            MF_EXPECT_REL_BOUND(lhs, want, (elem_bound<N, 53> - 6));
        }
    }
}

TYPED_TEST(ElemTyped, PiAgreesWithMachin) {
    constexpr int N = TypeParam::num_limbs;
    const TypeParam p = mf::pi<double, N>();
    MF_EXPECT_REL_BOUND(p, pi_oracle(), TypeParam::precision - 1);
    // sin(pi) == 0 to working accuracy (absolute).
    const TypeParam sp = mf::sin(p);
    EXPECT_LT(std::abs(sp.limb[0]), std::ldexp(1.0, -(N * 53 - N - 6)));
    // cos(pi) == -1.
    const TypeParam cp = mf::cos(p);
    MF_EXPECT_REL_BOUND(cp, BigFloat::from_int(-1), (elem_bound<N, 53>));
}

TYPED_TEST(ElemTyped, PowAndHyperbolics) {
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(7 + N);
    for (int i = 0; i < 20; ++i) {
        const TypeParam x = abs(adversarial<double, N>(rng, -2, 2));
        if (x.is_zero()) continue;
        // x^3 via pow matches repeated multiplication.
        const TypeParam p3 = mf::pow(x, TypeParam(3.0));
        const TypeParam want = mul(mul(x, x), x);
        MF_EXPECT_REL_BOUND(p3, exact(want), (elem_bound<N, 53> - 3));
        // cosh^2 - sinh^2 == 1.
        const TypeParam y = adversarial<double, N>(rng, -3, 1);
        const TypeParam ch = mf::cosh(y);
        const TypeParam sh = mf::sinh(y);
        const TypeParam one = sub(mul(ch, ch), mul(sh, sh));
        MF_EXPECT_REL_BOUND(one, BigFloat::from_int(1), (elem_bound<N, 53> - 6));
    }
}

TYPED_TEST(ElemTyped, TanConsistency) {
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(8 + N);
    for (int i = 0; i < 30; ++i) {
        const TypeParam x = adversarial<double, N>(rng, -4, 1);
        const TypeParam t = mf::tan(x);
        const TypeParam want = div(mf::sin(x), mf::cos(x));
        const BigFloat w = exact(want);
        if (!w.is_zero()) MF_EXPECT_REL_BOUND(t, w, (elem_bound<N, 53> - 4));
    }
}

TYPED_TEST(ElemTyped, AtanMatchesGregoryOracle) {
    constexpr int N = TypeParam::num_limbs;
    // atan(1/q) for small integers against the exact Gregory series.
    for (std::int64_t q : {2, 3, 5, 7, 239}) {
        const TypeParam x = div(TypeParam(1.0), TypeParam(static_cast<double>(q)));
        const TypeParam got = mf::atan(x);
        MF_EXPECT_REL_BOUND(got, atan_inv_oracle(q), (elem_bound<N, 53> - 4));
    }
    // tan(atan(x)) == x round trip.
    std::mt19937_64 rng(10 + N);
    for (int i = 0; i < 20; ++i) {
        const TypeParam x = adversarial<double, N>(rng, -4, 4);
        if (x.is_zero()) continue;
        const TypeParam back = mf::tan(mf::atan(x));
        MF_EXPECT_REL_BOUND(back, exact(x), (elem_bound<N, 53> - 8));
    }
}

TYPED_TEST(ElemTyped, AsinAcosIdentities) {
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(11 + N);
    for (int i = 0; i < 20; ++i) {
        TypeParam x = adversarial<double, N>(rng, -4, -1);  // |x| < 1/2
        const TypeParam s = mf::asin(x);
        const TypeParam back = mf::sin(s);
        if (!exact(x).is_zero()) {
            MF_EXPECT_REL_BOUND(back, exact(x), (elem_bound<N, 53> - 8));
        }
        // asin + acos == pi/2.
        const TypeParam total = add(s, mf::acos(x));
        MF_EXPECT_REL_BOUND(total, pi_oracle().ldexp(-1).round(400),
                            (elem_bound<N, 53> - 6));
    }
    // Endpoints.
    const TypeParam one(1.0);
    MF_EXPECT_REL_BOUND(mf::asin(one), pi_oracle().ldexp(-1), (elem_bound<N, 53>));
    MF_EXPECT_REL_BOUND(mf::acos(-one), pi_oracle(), (elem_bound<N, 53>));
}

TYPED_TEST(ElemTyped, Atan2Quadrants) {
    constexpr int N = TypeParam::num_limbs;
    const TypeParam one(1.0);
    // atan2(1, 1) = pi/4; atan2(1, -1) = 3pi/4; atan2(-1, -1) = -3pi/4.
    const BigFloat quarter_pi = pi_oracle().ldexp(-2);
    MF_EXPECT_REL_BOUND(mf::atan2(one, one), quarter_pi, (elem_bound<N, 53> - 4));
    MF_EXPECT_REL_BOUND(mf::atan2(one, -one),
                        (pi_oracle() * BigFloat::from_int(3)).ldexp(-2).round(400),
                        (elem_bound<N, 53> - 4));
    MF_EXPECT_REL_BOUND(mf::atan2(-one, -one),
                        (-(pi_oracle() * BigFloat::from_int(3))).ldexp(-2).round(400),
                        (elem_bound<N, 53> - 4));
    MF_EXPECT_REL_BOUND(mf::atan2(one, TypeParam(0.0)), pi_oracle().ldexp(-1),
                        (elem_bound<N, 53>));
    EXPECT_TRUE(mf::atan2(TypeParam(0.0), TypeParam(0.0)).is_zero());
}

TYPED_TEST(ElemTyped, Base2And10Logs) {
    constexpr int N = TypeParam::num_limbs;
    // log2(2^k) == k and log10(10^k) == k exactly to working accuracy.
    for (int k : {1, 3, 10}) {
        const TypeParam p2 = mf::log2(TypeParam(std::ldexp(1.0, k)));
        MF_EXPECT_REL_BOUND(p2, BigFloat::from_int(k), (elem_bound<N, 53> - 4));
        const TypeParam e2 = mf::exp2(TypeParam(static_cast<double>(k)));
        MF_EXPECT_REL_BOUND(e2, BigFloat::from_int(std::int64_t(1) << k),
                            (elem_bound<N, 53> - 4));
    }
    const TypeParam l10 = mf::log10(TypeParam(1000.0));
    MF_EXPECT_REL_BOUND(l10, BigFloat::from_int(3), (elem_bound<N, 53> - 4));
}

TEST(Elementary, KnownDigits) {
    // e to 60 digits through the octuple-precision exp.
    const auto e = mf::exp(Float64x4(1.0));
    const std::string ref_e = "2.718281828459045235360287471352662497757";
    EXPECT_EQ(to_string(e, 50).substr(0, 40), ref_e.substr(0, 40));
    // log(2) against the library's own ln2 constant (independent paths:
    // Newton-on-exp vs parsed decimal string).
    const auto l2 = mf::log(Float64x4(2.0));
    const auto diff = sub(l2, mf::detail::const_ln2<double, 4>());
    EXPECT_LT(std::abs(diff.limb[0]), 0x1p-205);
}

TEST(Elementary, SpecialCases) {
    EXPECT_EQ(static_cast<double>(mf::exp(Float64x2(0.0)).to_float()), 1.0);
    EXPECT_TRUE(mf::sin(Float64x3(0.0)).is_zero());
    EXPECT_EQ(static_cast<double>(mf::cos(Float64x3(0.0)).to_float()), 1.0);
    EXPECT_TRUE(std::isnan(mf::log(Float64x2(-1.0)).limb[0]));
    EXPECT_TRUE(std::isinf(mf::exp(Float64x2(1e10)).limb[0]));
    EXPECT_EQ(static_cast<double>(mf::exp(Float64x2(-1e10)).to_float()), 0.0);
}

TEST(Elementary, LargeArgumentReduction) {
    // sin(1000) still accurate: the reduction is done at working precision.
    const auto s = mf::sin(Float64x3(1000.0));
    // Reference: reduce 1000 mod 2pi with the oracle pi, then series.
    const BigFloat pi2 = pi_oracle().ldexp(1);
    BigFloat r = BigFloat::from_int(1000);
    // 1000 / (2pi) ~ 159.15 -> subtract 159 * 2pi.
    r = r - (pi2 * BigFloat::from_int(159));
    // r ~ 0.97; bring into series range.
    const BigFloat want = sin_oracle(r.round(400));
    MF_EXPECT_REL_BOUND(s, want, 3 * 53 - 3 - 14);
}

// The Estrin order of detail::estrin4 written out with scalar mf::add /
// mf::mul: four Horner chains in v = z^4, chain q over c_{4i+q} from its own
// last term, joined as (C0 + z C1) + z^2 (C2 + z C3).
template <FloatingPoint T, int N>
MultiFloat<T, N> scalar_estrin(const std::vector<MultiFloat<T, N>>& c,
                               const MultiFloat<T, N>& z) {
    using M = MultiFloat<T, N>;
    const M z2 = mul(z, z);
    const M v = mul(z2, z2);
    M chain[4];
    for (int q = 0; q < 4; ++q) {
        int i = (static_cast<int>(c.size()) - 1 - q) / 4;
        M acc = c[static_cast<std::size_t>(4 * i + q)];
        while (--i >= 0) acc = add(mul(acc, v), c[static_cast<std::size_t>(4 * i + q)]);
        chain[q] = acc;
    }
    return add(add(chain[0], mul(z, chain[1])), mul(z2, add(chain[2], mul(z, chain[3]))));
}

/// c_j = sign(j) / (step*j + first)! for j < count, from the library's 1/k!.
template <FloatingPoint T, int N, int KMax>
std::vector<MultiFloat<T, N>> series(int count, int step, int first, bool alternating) {
    const auto& inv = mf::detail::inv_factorials<T, N, KMax>();
    std::vector<MultiFloat<T, N>> c;
    for (int j = 0; j < count; ++j) {
        const auto& x = inv[static_cast<std::size_t>(step * j + first)];
        c.push_back(alternating && j % 2 == 1 ? -x : x);
    }
    return c;
}

template <FloatingPoint T>
bool same_limb(T got, T want) {
    using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
    return std::bit_cast<Bits>(got) == std::bit_cast<Bits>(want);
}

// Every limb of the lane evaluation of sin_reduced, cos_reduced and
// exp_reduced equals scalar_estrin's: reduced trigonometric arguments
// |r| <= pi/4 (from trig_reduce of random x, from small ladders, and the
// endpoints) and exp's reduced range (from exp's own reduction, and small
// ladders).
template <FloatingPoint T, int N>
void expect_lane_series_matches(std::uint64_t seed, int cases) {
    using M = MultiFloat<T, N>;
    namespace d = mf::detail;
    constexpr int KT = d::trig_terms<N>;
    constexpr int KE = d::exp_terms<N>;
    const auto sin_c = series<T, N, KT>(KT / 2, 2, 1, true);
    const auto cos_c = series<T, N, KT>(KT / 2, 2, 0, true);
    const auto exp_c = series<T, N, KE>(KE, 1, 0, false);
    std::mt19937_64 rng(seed);
    const auto expect_same = [](const M& got, const M& want, const char* what, int i) {
        for (int k = 0; k < N; ++k) {
            EXPECT_TRUE(same_limb(got.limb[k], want.limb[k]))
                << what << " N=" << N << " case " << i << " limb " << k << ": "
                << got.limb[k] << " vs " << want.limb[k];
        }
    };
    const T quarter_pi = static_cast<T>(0.78539816339744831);
    for (int i = 0; i < cases; ++i) {
        M r;
        if (i < 3) {
            r = M(i == 0 ? T(0) : i == 1 ? quarter_pi : -quarter_pi);
        } else if (i % 2 == 0) {
            d::trig_reduce(adversarial<T, N>(rng, -4, 3), r);
        } else {
            r = adversarial<T, N>(rng, -40, -2);
        }
        EXPECT_LE(std::abs(static_cast<double>(r.limb[0])), 0.7854);
        const M r2 = mul(r, r);
        expect_same(d::sin_reduced(r), mul(scalar_estrin(sin_c, r2), r), "sin", i);
        expect_same(d::cos_reduced(r), scalar_estrin(cos_c, r2), "cos", i);

        M e;
        if (i % 2 == 0) {
            // exp's own reduction of x = m ln2 + r, scaled by 2^-kExpScale.
            const M x = adversarial<T, N>(rng, -6, 5);
            const double m = std::nearbyint(static_cast<double>(x.limb[0]) / 0.6931471805599453);
            e = ldexp(sub(x, mul(d::const_ln2<T, N>(), M(static_cast<T>(m)))), -d::kExpScale);
        } else {
            e = adversarial<T, N>(rng, -60, -12);
        }
        EXPECT_LE(std::abs(static_cast<double>(e.limb[0])), 0x1p-10);
        expect_same(d::exp_reduced(e), scalar_estrin(exp_c, e), "exp", i);
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(Elementary, LaneSeriesMatchesScalarEstrin) {
    expect_lane_series_matches<double, 1>(21, 1000);
    expect_lane_series_matches<double, 2>(22, 1000);
    expect_lane_series_matches<double, 3>(23, 1000);
    expect_lane_series_matches<double, 4>(24, 1000);
    expect_lane_series_matches<float, 1>(25, 1000);
    expect_lane_series_matches<float, 2>(26, 1000);
    expect_lane_series_matches<float, 3>(27, 1000);
    expect_lane_series_matches<float, 4>(28, 1000);
}

}  // namespace
