// Multiplication FPANs: error bounds (paper Figures 5-7), nonoverlap, the
// commutativity guarantee of §4.2, and the discard-optimization threshold.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <type_traits>
#include <vector>

#include "support.hpp"

namespace {

using namespace mf;
using mf::test::adversarial;
using mf::test::exact;

template <typename MF>
class MulTyped : public ::testing::Test {};

using MulTypes = ::testing::Types<MultiFloat<double, 2>, MultiFloat<double, 3>,
                                  MultiFloat<double, 4>, MultiFloat<float, 2>,
                                  MultiFloat<float, 3>, MultiFloat<float, 4>>;
TYPED_TEST_SUITE(MulTyped, MulTypes);

TYPED_TEST(MulTyped, ErrorBoundAndNonoverlapRandomized) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    const int bound = mf::test::mul_bound<N>(p);
    std::mt19937_64 rng(100 + N + p);
    for (int i = 0; i < 8000; ++i) {
        const TypeParam x = adversarial<T, N>(rng, -15, 15);
        const TypeParam y = adversarial<T, N>(rng, -15, 15);
        const TypeParam z = mul(x, y);
        const auto want = exact(x) * exact(y);
        if (!want.is_zero()) MF_EXPECT_REL_BOUND(z, want, bound);
        EXPECT_TRUE(is_nonoverlapping(z)) << "case " << i;
    }
}

TYPED_TEST(MulTyped, IsCommutativeBitExact) {
    // §4.2: the commutativity layer makes mul(x, y) == mul(y, x) exactly --
    // the property whose absence breaks complex conjugate products.
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(200 + N);
    for (int i = 0; i < 6000; ++i) {
        const TypeParam x = adversarial<T, N>(rng, -12, 12);
        const TypeParam y = adversarial<T, N>(rng, -12, 12);
        const TypeParam xy = mul(x, y);
        const TypeParam yx = mul(y, x);
        for (int k = 0; k < N; ++k) EXPECT_EQ(xy.limb[k], yx.limb[k]) << "case " << i;
    }
}

TYPED_TEST(MulTyped, MultiplicativeIdentityAndZero) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(300 + N);
    const TypeParam one(T(1));
    const TypeParam zero{};
    for (int i = 0; i < 3000; ++i) {
        const TypeParam x = adversarial<T, N>(rng, -12, 12);
        // Value-exact (limb layout may re-canonicalize at half-ulp
        // boundaries; see add_test.cpp).
        const TypeParam xi = mul(x, one);
        EXPECT_EQ(mf::big::BigFloat::cmp(exact(xi), exact(x)), 0) << "case " << i;
        EXPECT_TRUE(is_nonoverlapping(xi));
        EXPECT_TRUE(mul(x, zero).is_zero());
    }
}

TYPED_TEST(MulTyped, PowerOfTwoScalingIsExact) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(400 + N);
    constexpr int p = std::numeric_limits<T>::digits;
    for (int i = 0; i < 3000; ++i) {
        const TypeParam x = adversarial<T, N>(rng, -8, 8);
        const int e = static_cast<int>(rng() % 30) - 15;
        // Exactness requires staying inside the normal exponent range
        // (paper §4.4: expansions extend precision, not range).
        int lowest = 0;
        for (int k = 0; k < N; ++k) {
            if (x.limb[k] != T(0)) lowest = std::ilogb(x.limb[k]);
        }
        if (lowest + e < std::numeric_limits<T>::min_exponent + p) continue;
        const TypeParam scaled = ldexp(x, e);
        // Exact: every limb scaled, value scaled.
        const auto want = exact(x).ldexp(e);
        EXPECT_EQ(mf::big::BigFloat::cmp(exact(scaled), want), 0);
        // Multiplying by the expansion 2^e agrees bit-for-bit in value.
        const TypeParam viaMul = mul(x, TypeParam(std::ldexp(T(1), e)));
        EXPECT_EQ(mf::big::BigFloat::cmp(exact(viaMul), want), 0) << "case " << i;
    }
}

// ldexp multiplies by an exact power of two where one is a normal number
// and calls std::ldexp elsewhere: either way each limb must be std::ldexp's
// bit for bit, including results that round into the subnormal range or
// overflow, signed zeros, infinities and NaN (compared by class), for every
// e from far below the subnormal range to far above overflow.
TYPED_TEST(MulTyped, LdexpMatchesStdLdexpPerLimb) {
    using T = typename TypeParam::value_type;
    using L = std::numeric_limits<T>;
    constexpr int N = TypeParam::num_limbs;
    using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
    std::vector<T> vals = {T(0),          L::denorm_min(), T(3) * L::denorm_min(),
                           L::min(),      std::nextafter(L::min(), T(0)),
                           T(1),          std::nextafter(T(1), T(2)), T(1.5),
                           T(0.75),       L::max(),        L::infinity(),
                           L::quiet_NaN()};
    const std::size_t n_special = vals.size();
    for (std::size_t i = 0; i < n_special; ++i) vals.push_back(-vals[i]);
    std::mt19937_64 rng(404);
    for (int i = 0; i < 64; ++i) {
        vals.push_back(std::ldexp(std::uniform_real_distribution<T>(T(-2), T(2))(rng),
                                  static_cast<int>(rng() % 200) - 100));
    }
    std::vector<int> exps = {std::numeric_limits<int>::min(), std::numeric_limits<int>::max(),
                             -100000, 100000};
    const int span = L::max_exponent - L::min_exponent + 2 * L::digits + 8;
    for (int e = -span; e <= span; ++e) exps.push_back(e);
    for (int e : exps) {
        for (std::size_t i = 0; i + N <= vals.size(); ++i) {
            TypeParam x;
            for (int k = 0; k < N; ++k) x.limb[k] = vals[i + k];
            const TypeParam r = ldexp(x, e);
            for (int k = 0; k < N; ++k) {
                const T want = std::ldexp(x.limb[k], e);
                if (std::isnan(want)) {
                    ASSERT_TRUE(std::isnan(r.limb[k])) << x.limb[k] << " e=" << e;
                } else {
                    ASSERT_EQ(std::bit_cast<Bits>(r.limb[k]), std::bit_cast<Bits>(want))
                        << x.limb[k] << " e=" << e;
                }
            }
        }
    }
}

TYPED_TEST(MulTyped, ScalarMulMatchesWidened) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    const int bound = mf::test::mul_bound<N>(p);
    std::mt19937_64 rng(500 + N);
    std::uniform_real_distribution<T> u(T(-2), T(2));
    for (int i = 0; i < 4000; ++i) {
        const TypeParam x = adversarial<T, N>(rng, -10, 10);
        const T s = std::ldexp(u(rng), static_cast<int>(rng() % 20) - 10);
        const TypeParam z = mul(x, s);
        const auto want = exact(x) * mf::big::BigFloat::from_double(static_cast<double>(s));
        if (!want.is_zero()) MF_EXPECT_REL_BOUND(z, want, bound);
        EXPECT_TRUE(is_nonoverlapping(z));
    }
}

TYPED_TEST(MulTyped, SquareIsNonNegative) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(600 + N);
    for (int i = 0; i < 3000; ++i) {
        const TypeParam x = adversarial<T, N>(rng, -10, 10);
        const TypeParam sq = sqr(x);
        EXPECT_GE(sq.limb[0], T(0));
    }
}

TEST(MulDirected, ConjugateProductHasZeroImaginaryPart) {
    // (a+bi)(a-bi) imaginary part = a*b - b*a: commutativity makes the two
    // products bit-identical, so the branch-free subtraction yields exact 0.
    std::mt19937_64 rng(55);
    for (int i = 0; i < 4000; ++i) {
        const Float64x3 a = mf::test::adversarial<double, 3>(rng, -10, 10);
        const Float64x3 b = mf::test::adversarial<double, 3>(rng, -10, 10);
        const Float64x3 im = sub(mul(a, b), mul(b, a));
        EXPECT_TRUE(im.is_zero()) << "case " << i;
    }
}

TEST(MulDirected, NonCommutativeVariantIsAccurateButAsymmetric) {
    std::mt19937_64 rng(66);
    bool found_asymmetry = false;
    for (int i = 0; i < 4000; ++i) {
        const Float64x2 x = mf::test::adversarial<double, 2>(rng, -10, 10);
        const Float64x2 y = mf::test::adversarial<double, 2>(rng, -10, 10);
        const Float64x2 xy = mf::detail::mul2_noncommutative(x, y);
        const Float64x2 yx = mf::detail::mul2_noncommutative(y, x);
        const auto want = mf::test::exact(x) * mf::test::exact(y);
        if (!want.is_zero()) {
            // Still meets the paper's error bound...
            MF_EXPECT_REL_BOUND(xy, want, mf::test::mul_bound<2>(53));
        }
        // ...but is not symmetric in general.
        if (xy.limb[1] != yx.limb[1]) found_asymmetry = true;
    }
    EXPECT_TRUE(found_asymmetry)
        << "fma-chained multiplication unexpectedly commutative";
}

TEST(MulDirected, DiscardThresholdTightness) {
    // The discarded x1*y1 term in mul2 sits right at the threshold: verify
    // the bound still holds when both tails are maximal (worst case for the
    // discard optimization of §4.2).
    const Float64x2 x({1.0 + 0x1p-1, 0x1p-54 * (1.0 + 0x1p-1)});
    const Float64x2 y({1.0 + 0x1p-2, 0x1p-54 * (1.0 + 0x1p-2)});
    const Float64x2 z = mul(x, y);
    const auto want = mf::test::exact(x) * mf::test::exact(y);
    EXPECT_LE(mf::test::rel_err_log2(z, want), -static_cast<double>(mf::test::mul_bound<2>(53)));
    EXPECT_TRUE(is_nonoverlapping(z));
}

}  // namespace
