// Newton-Raphson division and square root (paper §4.3): accuracy against the
// correctly rounded oracle, plus algebraic identities.

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "support.hpp"

namespace {

using namespace mf;
using mf::big::BigFloat;
using mf::test::adversarial;
using mf::test::exact;

// Newton refinement with a final correction converges to within a few ulps
// of the expansion's working precision; we test against bound - margin.
template <int N, int P>
constexpr int newton_bound = N * P - N - 4;

template <typename MF>
class DivSqrtTyped : public ::testing::Test {};

using Types = ::testing::Types<MultiFloat<double, 2>, MultiFloat<double, 3>,
                               MultiFloat<double, 4>, MultiFloat<float, 2>,
                               MultiFloat<float, 3>, MultiFloat<float, 4>>;
TYPED_TEST_SUITE(DivSqrtTyped, Types);

TYPED_TEST(DivSqrtTyped, ReciprocalAccuracy) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(1 + N + p);
    for (int i = 0; i < 2000; ++i) {
        TypeParam a = adversarial<T, N>(rng, -15, 15);
        if (a.is_zero()) a = TypeParam(T(1));
        const TypeParam r = recip(a);
        const BigFloat want = BigFloat::div(BigFloat::from_int(1), exact(a), N * p + 20);
        MF_EXPECT_REL_BOUND(r, want, (newton_bound<N, p>));
    }
}

TYPED_TEST(DivSqrtTyped, DivisionAccuracy) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(2 + N + p);
    for (int i = 0; i < 2000; ++i) {
        const TypeParam b = adversarial<T, N>(rng, -15, 15);
        TypeParam a = adversarial<T, N>(rng, -15, 15);
        if (a.is_zero()) a = TypeParam(T(3));
        const TypeParam q = div(b, a);
        if (b.is_zero()) {
            EXPECT_TRUE(q.is_zero() || std::abs(static_cast<double>(q.limb[0])) < 1e-300);
            continue;
        }
        const BigFloat want = BigFloat::div(exact(b), exact(a), N * p + 20);
        MF_EXPECT_REL_BOUND(q, want, (newton_bound<N, p>));
    }
}

TYPED_TEST(DivSqrtTyped, DivideThenMultiplyRoundTrips) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(3 + N + p);
    for (int i = 0; i < 2000; ++i) {
        TypeParam a = adversarial<T, N>(rng, -10, 10);
        const TypeParam b = adversarial<T, N>(rng, -10, 10);
        if (a.is_zero()) a = TypeParam(T(2));
        if (b.is_zero()) continue;
        const TypeParam back = mul(div(b, a), a);
        MF_EXPECT_REL_BOUND(back, exact(b), (newton_bound<N, p>));
    }
}

TYPED_TEST(DivSqrtTyped, SqrtAccuracy) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(4 + N + p);
    for (int i = 0; i < 2000; ++i) {
        TypeParam a = abs(adversarial<T, N>(rng, -15, 15));
        if (a.is_zero()) a = TypeParam(T(2));
        const TypeParam s = mf::sqrt(a);
        const BigFloat want = BigFloat::sqrt(exact(a), N * p + 20);
        MF_EXPECT_REL_BOUND(s, want, (newton_bound<N, p>));
    }
}

TYPED_TEST(DivSqrtTyped, SqrtSquareRoundTrips) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(5 + N + p);
    for (int i = 0; i < 2000; ++i) {
        TypeParam a = abs(adversarial<T, N>(rng, -10, 10));
        if (a.is_zero()) continue;
        const TypeParam back = sqr(mf::sqrt(a));
        MF_EXPECT_REL_BOUND(back, exact(a), (newton_bound<N, p>));
    }
}

TYPED_TEST(DivSqrtTyped, RsqrtConsistentWithSqrtAndRecip) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(6 + N + p);
    for (int i = 0; i < 1000; ++i) {
        TypeParam a = abs(adversarial<T, N>(rng, -10, 10));
        if (a.is_zero()) a = TypeParam(T(5));
        const TypeParam r = rsqrt(a);
        const BigFloat want = BigFloat::div(
            BigFloat::from_int(1), BigFloat::sqrt(exact(a), N * p + 40), N * p + 20);
        MF_EXPECT_REL_BOUND(r, want, (newton_bound<N, p>));
    }
}

// The N = 2 algorithm before the progressive schedule, written out: two
// full-width Newton steps from the one-limb seed, then the Karp-Markstein
// correction. lu_solve's pivot reciprocals and back-substitution divisions
// rest on these bits, so the shipped N = 2 path must reproduce them.
template <typename T>
MultiFloat<T, 2> recip_two_steps(const MultiFloat<T, 2>& a) {
    const MultiFloat<T, 2> one(T(1));
    MultiFloat<T, 2> r(T(1) / a.limb[0]);
    for (int k = 0; k < 2; ++k) r = r + r * (one - a * r);
    return r;
}

template <typename T>
MultiFloat<T, 2> div_two_steps(const MultiFloat<T, 2>& b, const MultiFloat<T, 2>& a) {
    const MultiFloat<T, 2> r = recip_two_steps(a);
    MultiFloat<T, 2> q = b * r;
    return q + r * (b - a * q);
}

template <typename T>
MultiFloat<T, 2> rsqrt_two_steps(const MultiFloat<T, 2>& a) {
    const MultiFloat<T, 2> one(T(1));
    MultiFloat<T, 2> r(T(1) / std::sqrt(a.limb[0]));
    for (int k = 0; k < 2; ++k) r = r + ldexp(r * (one - a * (r * r)), -1);
    return r;
}

template <typename T>
MultiFloat<T, 2> sqrt_two_steps(const MultiFloat<T, 2>& a) {
    const MultiFloat<T, 2> r = rsqrt_two_steps(a);
    const MultiFloat<T, 2> s = a * r;
    return s + ldexp(r, -1) * (a - s * s);
}

template <typename T>
bool same_bits(const MultiFloat<T, 2>& x, const MultiFloat<T, 2>& y) {
    return std::memcmp(x.limb.data(), y.limb.data(), sizeof x.limb) == 0;
}

template <typename T>
void expect_two_limb_bits_match_full_width() {
    std::mt19937_64 rng(11 + std::numeric_limits<T>::digits);
    int bad_recip = 0, bad_div = 0, bad_rsqrt = 0, bad_sqrt = 0;
    for (int i = 0; i < 20000; ++i) {
        const MultiFloat<T, 2> b = adversarial<T, 2>(rng, -20, 20);
        MultiFloat<T, 2> a = adversarial<T, 2>(rng, -20, 20);
        if (a.is_zero()) a = MultiFloat<T, 2>(T(3));
        const MultiFloat<T, 2> pos = abs(a);
        bad_recip += !same_bits(recip(a), recip_two_steps(a));
        bad_div += !same_bits(div(b, a), div_two_steps(b, a));
        bad_rsqrt += !same_bits(rsqrt(pos), rsqrt_two_steps(pos));
        bad_sqrt += !same_bits(mf::sqrt(pos), sqrt_two_steps(pos));
    }
    EXPECT_EQ(bad_recip, 0);
    EXPECT_EQ(bad_div, 0);
    EXPECT_EQ(bad_rsqrt, 0);
    EXPECT_EQ(bad_sqrt, 0);
}

TEST(DivSqrtDirected, TwoLimbBitsMatchFullWidthSteps) {
    expect_two_limb_bits_match_full_width<double>();
    expect_two_limb_bits_match_full_width<float>();
}

// The raw kernel returns a signed zero for a zero radicand, with a zero
// tail, without the strict-IEEE wrapper.
template <int N>
void expect_sqrt_of_signed_zero() {
    for (const double z : {0.0, -0.0}) {
        const MultiFloat<double, N> s = mf::sqrt(MultiFloat<double, N>(z));
        EXPECT_EQ(s.limb[0], 0.0) << "N=" << N;
        EXPECT_EQ(std::signbit(s.limb[0]), std::signbit(z)) << "N=" << N;
        for (int i = 1; i < N; ++i) EXPECT_EQ(s.limb[i], 0.0) << "N=" << N << " limb " << i;
    }
}

TEST(DivSqrtDirected, RawSqrtOfSignedZero) {
    expect_sqrt_of_signed_zero<2>();
    expect_sqrt_of_signed_zero<3>();
    expect_sqrt_of_signed_zero<4>();
}

TEST(DivSqrtDirected, ExactCases) {
    EXPECT_TRUE(mf::sqrt(Float64x4{}).is_zero());
    const Float64x3 four(4.0);
    const Float64x3 two = mf::sqrt(four);
    EXPECT_EQ(two.limb[0], 2.0);
    EXPECT_EQ(two.limb[1], 0.0);
    const Float64x2 eight(8.0);
    const Float64x2 q = div(eight, Float64x2(2.0));
    EXPECT_EQ(q.limb[0], 4.0);
    EXPECT_EQ(q.limb[1], 0.0);
}

TEST(DivSqrtDirected, OneThirdTimesThree) {
    const Float64x4 third = div(Float64x4(1.0), Float64x4(3.0));
    const Float64x4 back = mul(third, Float64x4(3.0));
    const Float64x4 err = sub(back, Float64x4(1.0));
    // |1/3 * 3 - 1| must sit at or below the octuple-precision noise floor.
    EXPECT_LT(std::abs(err.limb[0]), 0x1p-205);
}

TEST(DivSqrtDirected, Sqrt2Digits) {
    const auto s = mf::sqrt(Float64x4(2.0));
    const std::string digits = mf::to_string(s, 60);
    EXPECT_EQ(digits.substr(0, 42), "1.4142135623730950488016887242096980785696");
}

TEST(DivSqrtDirected, PowiMatchesRepeatedMultiply) {
    std::mt19937_64 rng(77);
    for (int i = 0; i < 500; ++i) {
        const Float64x3 x = mf::test::adversarial<double, 3>(rng, -4, 4);
        Float64x3 acc(1.0);
        for (int k = 0; k < 7; ++k) acc = mul(acc, x);
        const Float64x3 via = powi(x, 7);
        // powi uses binary exponentiation: not bit-identical, but both must
        // agree to working precision.
        const auto want = mf::test::exact(acc);
        if (!want.is_zero()) MF_EXPECT_REL_BOUND(via, want, 3 * 53 - 10);
    }
}

TEST(DivSqrtDirected, PowiSpecialExponents) {
    const Float64x2 x(1.5);
    EXPECT_EQ(powi(x, 0).limb[0], 1.0);
    EXPECT_EQ(powi(x, 1).limb[0], 1.5);
    EXPECT_EQ(powi(x, 2).limb[0], 2.25);
    const Float64x2 inv = powi(x, -1);
    const auto want = mf::big::BigFloat::div(mf::big::BigFloat::from_int(2),
                                             mf::big::BigFloat::from_int(3), 130);
    MF_EXPECT_REL_BOUND(inv, want, 100);
}

// Special-value propagation for div/sqrt at every expansion length N=1..4,
// through the strict-IEEE wrappers (paper §4.4: the raw kernels only
// promise these semantics via mf/ieee.hpp; at N=1 both layers collapse to
// the base type's own operation). Every special result must also embed
// canonically: limb[0] carries the special, the tail is zero.
template <typename T, int N>
void check_divsqrt_specials() {
    using MF = MultiFloat<T, N>;
    const T inf = std::numeric_limits<T>::infinity();
    const T nan = std::numeric_limits<T>::quiet_NaN();
    const auto canonical_tail = [](const MF& z) {
        for (int i = 1; i < N; ++i) {
            if (z.limb[i] != T(0)) return false;
        }
        return true;
    };

    // Division poles: x / +-0.
    EXPECT_EQ(div_ieee(MF(T(1)), MF(T(0))).limb[0], inf) << "N=" << N;
    EXPECT_EQ(div_ieee(MF(T(-1)), MF(T(0))).limb[0], -inf) << "N=" << N;
    EXPECT_EQ(div_ieee(MF(T(1)), MF(-T(0))).limb[0], -inf) << "N=" << N;
    EXPECT_TRUE(std::isnan(div_ieee(MF(T(0)), MF(T(0))).limb[0])) << "N=" << N;
    EXPECT_TRUE(canonical_tail(div_ieee(MF(T(1)), MF(T(0))))) << "N=" << N;

    // Infinite operands: x / Inf = +-0 (signed!), Inf / x = +-Inf,
    // Inf / Inf = NaN.
    const MF x_over_inf = div_ieee(MF(T(3)), MF(inf));
    EXPECT_EQ(x_over_inf.limb[0], T(0)) << "N=" << N;
    EXPECT_FALSE(std::signbit(x_over_inf.limb[0])) << "N=" << N;
    const MF neg_over_inf = div_ieee(MF(T(-3)), MF(inf));
    EXPECT_EQ(neg_over_inf.limb[0], T(0)) << "N=" << N;
    EXPECT_TRUE(std::signbit(neg_over_inf.limb[0])) << "N=" << N;
    EXPECT_TRUE(canonical_tail(x_over_inf)) << "N=" << N;
    EXPECT_EQ(div_ieee(MF(inf), MF(T(2))).limb[0], inf) << "N=" << N;
    EXPECT_EQ(div_ieee(MF(-inf), MF(T(2))).limb[0], -inf) << "N=" << N;
    EXPECT_EQ(div_ieee(MF(inf), MF(T(-2))).limb[0], -inf) << "N=" << N;
    EXPECT_TRUE(std::isnan(div_ieee(MF(inf), MF(inf)).limb[0])) << "N=" << N;

    // NaN operands poison division from either side.
    EXPECT_TRUE(std::isnan(div_ieee(MF(nan), MF(T(2))).limb[0])) << "N=" << N;
    EXPECT_TRUE(std::isnan(div_ieee(MF(T(2)), MF(nan)).limb[0])) << "N=" << N;

    // Square root: sqrt(-x) = NaN, sqrt(+-0) = +-0, sqrt(+Inf) = +Inf,
    // sqrt(-Inf) = NaN, sqrt(NaN) = NaN.
    EXPECT_TRUE(std::isnan(sqrt_ieee(MF(T(-1))).limb[0])) << "N=" << N;
    const MF sqrt_neg_zero = sqrt_ieee(MF(-T(0)));
    EXPECT_EQ(sqrt_neg_zero.limb[0], T(0)) << "N=" << N;
    EXPECT_TRUE(std::signbit(sqrt_neg_zero.limb[0])) << "N=" << N;
    EXPECT_FALSE(std::signbit(sqrt_ieee(MF(T(0))).limb[0])) << "N=" << N;
    EXPECT_EQ(sqrt_ieee(MF(inf)).limb[0], inf) << "N=" << N;
    EXPECT_TRUE(std::isnan(sqrt_ieee(MF(-inf)).limb[0])) << "N=" << N;
    EXPECT_TRUE(std::isnan(sqrt_ieee(MF(nan)).limb[0])) << "N=" << N;
    EXPECT_TRUE(canonical_tail(sqrt_ieee(MF(inf)))) << "N=" << N;

    // The fixup layer must not disturb ordinary finite results.
    const MF q = div_ieee(MF(T(6)), MF(T(2)));
    EXPECT_EQ(q.limb[0], T(3)) << "N=" << N;
    EXPECT_EQ(sqrt_ieee(MF(T(4))).limb[0], T(2)) << "N=" << N;
}

TEST(DivSqrtSpecials, AllWidthsDouble) {
    check_divsqrt_specials<double, 1>();
    check_divsqrt_specials<double, 2>();
    check_divsqrt_specials<double, 3>();
    check_divsqrt_specials<double, 4>();
}

TEST(DivSqrtSpecials, AllWidthsFloat) {
    check_divsqrt_specials<float, 1>();
    check_divsqrt_specials<float, 2>();
    check_divsqrt_specials<float, 3>();
    check_divsqrt_specials<float, 4>();
}

// At N=1 the raw kernels ARE the base type's operations, so the strict
// semantics hold without the wrapper too.
TEST(DivSqrtSpecials, RawScalarWidthIsAlreadyIeee) {
    using MF1 = MultiFloat<double, 1>;
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(div(MF1(1.0), MF1(0.0)).limb[0], inf);
    EXPECT_TRUE(std::isnan(div(MF1(0.0), MF1(0.0)).limb[0]));
    EXPECT_EQ(div(MF1(-1.0), MF1(inf)).limb[0], 0.0);
    EXPECT_TRUE(std::signbit(div(MF1(-1.0), MF1(inf)).limb[0]));
    EXPECT_TRUE(std::isnan(mf::sqrt(MF1(-2.0)).limb[0]));
    EXPECT_TRUE(std::signbit(mf::sqrt(MF1(-0.0)).limb[0]));
}

}  // namespace
