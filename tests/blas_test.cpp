// Extended-precision BLAS kernels: every number type under evaluation runs
// the identical templated kernels; results are checked against the exact
// BigFloat oracle computed from the same inputs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/campary/campary.hpp"
#include "baselines/qd/dd_real.hpp"
#include "baselines/qd/qd_real.hpp"
#include "bigfloat/precfloat.hpp"
#include "blas/kernels.hpp"
#include "support.hpp"

namespace {

using mf::big::BigFloat;
using namespace mf::blas;

BigFloat bf(double x) { return BigFloat::from_double(x); }

// Uniform "get exact value" shims so one test template covers every type.
template <mf::FloatingPoint T, int N>
BigFloat val(const mf::MultiFloat<T, N>& x) { return mf::test::exact(x); }
BigFloat val(double x) { return bf(x); }
BigFloat val(const mf::qd::dd_real& x) { return bf(x.hi) + bf(x.lo); }
BigFloat val(const mf::qd::qd_real& x) {
    return bf(x.x[0]) + bf(x.x[1]) + bf(x.x[2]) + bf(x.x[3]);
}
template <int N>
BigFloat val(const mf::campary::Expansion<N>& x) {
    BigFloat acc;
    for (int i = 0; i < N; ++i) acc = acc + bf(x.x[i]);
    return acc;
}
template <int P>
BigFloat val(const mf::big::PrecFloat<P>& x) { return x.value(); }

template <typename V>
class BlasTyped : public ::testing::Test {};

using BlasTypes =
    ::testing::Types<double, mf::Float64x2, mf::Float64x3, mf::Float64x4,
                     mf::qd::dd_real, mf::qd::qd_real, mf::campary::Expansion<2>,
                     mf::campary::Expansion<4>, mf::big::PrecFloat<156>>;
TYPED_TEST_SUITE(BlasTyped, BlasTypes);

// All tested types hold at least double precision, so a kernel result must
// match the exact oracle to ~2^-45 relative (slack for accumulation).
constexpr double kTol = -45.0;

double rel_log2(const BigFloat& got, const BigFloat& want) {
    const BigFloat err = (got - want).abs();
    if (err.is_zero()) return -1e9;
    if (want.is_zero()) return err.is_zero() ? -1e9 : 1e9;
    return static_cast<double>(BigFloat::div(err, want.abs(), 64).ilogb());
}

template <typename V>
std::vector<V> random_vec(std::mt19937_64& rng, std::size_t n) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<V> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.emplace_back(u(rng));
    return v;
}

TYPED_TEST(BlasTyped, AxpyMatchesOracle) {
    std::mt19937_64 rng(11);
    for (std::size_t n : {1u, 7u, 64u, 257u}) {
        const TypeParam alpha(1.25);
        const auto x = random_vec<TypeParam>(rng, n);
        auto y = random_vec<TypeParam>(rng, n);
        std::vector<BigFloat> want(n);
        for (std::size_t i = 0; i < n; ++i) want[i] = val(y[i]) + bf(1.25) * val(x[i]);
        axpy<TypeParam>(alpha, view(x), view(y));
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_LE(rel_log2(val(y[i]), want[i]), kTol) << "n=" << n << " i=" << i;
        }
    }
}

TYPED_TEST(BlasTyped, DotMatchesOracle) {
    std::mt19937_64 rng(12);
    for (std::size_t n : {1u, 3u, 100u, 333u}) {
        const auto x = random_vec<TypeParam>(rng, n);
        const auto y = random_vec<TypeParam>(rng, n);
        BigFloat want;
        for (std::size_t i = 0; i < n; ++i) want = want + val(x[i]) * val(y[i]);
        const TypeParam got = dot<TypeParam>(view(x), view(y));
        if (!want.is_zero()) {
            EXPECT_LE(rel_log2(val(got), want), kTol) << "n=" << n;
        }
    }
}

TYPED_TEST(BlasTyped, GemvMatchesOracle) {
    std::mt19937_64 rng(13);
    const std::size_t n = 13;
    const std::size_t m = 9;
    const auto a = random_vec<TypeParam>(rng, n * m);
    const auto x = random_vec<TypeParam>(rng, m);
    std::vector<TypeParam> y(n, TypeParam(0.0));
    gemv<TypeParam>(view(a, n, m), view(x), view(y));
    for (std::size_t i = 0; i < n; ++i) {
        BigFloat want;
        for (std::size_t j = 0; j < m; ++j) want = want + val(a[i * m + j]) * val(x[j]);
        if (!want.is_zero()) {
            EXPECT_LE(rel_log2(val(y[i]), want), kTol) << i;
        }
    }
}

TYPED_TEST(BlasTyped, GemmMatchesOracle) {
    std::mt19937_64 rng(14);
    const std::size_t n = 7;
    const std::size_t k = 5;
    const std::size_t m = 6;
    const auto a = random_vec<TypeParam>(rng, n * k);
    const auto b = random_vec<TypeParam>(rng, k * m);
    std::vector<TypeParam> c(n * m, TypeParam(0.0));
    gemm<TypeParam>(view(a, n, k), view(b, k, m), view(c, n, m));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
            BigFloat want;
            for (std::size_t kk = 0; kk < k; ++kk) {
                want = want + val(a[i * k + kk]) * val(b[kk * m + j]);
            }
            if (!want.is_zero()) {
                EXPECT_LE(rel_log2(val(c[i * m + j]), want), kTol);
            }
        }
    }
}

TEST(BlasPrecision, ExtendedPrecisionDotBeatsDouble) {
    // An ill-conditioned dot product: double collapses, Float64x2 does not.
    // This is the paper's motivating scenario (condition numbers ~1e20).
    const std::size_t n = 4;
    const double xs[n] = {0x1p80, -0x1p80, 1.0, 3.0};
    const double ys[n] = {1.0, 1.0, 1.0, 1.0};
    // exact: 2^80 - 2^80 + 1 + 3 = 4.
    std::vector<double> xd(xs, xs + n);
    std::vector<double> yd(ys, ys + n);
    const double got_double = dot<double>(view(xd), view(yd));
    EXPECT_EQ(got_double, 4.0);  // benign order: the huge pair cancels first
    // Hostile ordering for double:
    const double xs2[n] = {0x1p80, 1.0, 3.0, -0x1p80};
    std::vector<double> xd2(xs2, xs2 + n);
    const double got_double2 = dot<double>(view(xd2), view(yd));
    EXPECT_NE(got_double2, 4.0);  // 1 and 3 are absorbed, then cancelled
    std::vector<mf::Float64x2> x2;
    std::vector<mf::Float64x2> y2;
    for (std::size_t i = 0; i < n; ++i) {
        x2.emplace_back(xs2[i]);
        y2.emplace_back(ys[i]);
    }
    const auto got_mf = dot<mf::Float64x2>(view(x2), view(y2));
    EXPECT_EQ(static_cast<double>(got_mf), 4.0);
}

TEST(BlasEdge, EmptyAndSingleton) {
    std::vector<double> empty;
    EXPECT_EQ(dot<double>(view(empty), view(empty)), 0.0);
    std::vector<mf::Float64x3> x{mf::Float64x3(2.0)};
    std::vector<mf::Float64x3> y{mf::Float64x3(3.0)};
    EXPECT_EQ(static_cast<double>(dot<mf::Float64x3>(view(x), view(y))), 6.0);
}

// A dot product long enough to be split across the team must not depend on
// the thread count, on the order in which the workers finish, or on being
// called while another caller's region holds the team (which runs it
// serially).
template <typename V>
void expect_dot_repeatable(const std::vector<V>& x, const std::vector<V>& y) {
    const auto same = [](const V& a, const V& b) {
        return std::memcmp(&a, &b, sizeof(V)) == 0;
    };
    const auto run = [&] { return dot<V>(view(x), view(y)); };
    const V want = run();
    for (unsigned t = 1; t <= 4; ++t) {
        const unsigned saved = mf::blas::engine::set_default_threads(t);
        for (int rep = 0; rep < 20; ++rep) {
            ASSERT_TRUE(same(run(), want)) << t << " threads, call " << rep;
        }
        mf::blas::engine::set_default_threads(saved);
    }
    // Four concurrent callers: at most one holds the team at a time, the
    // others find it busy and run serially.
    std::atomic<int> bad{0};
    std::vector<std::thread> callers;
    for (int i = 0; i < 4; ++i) {
        callers.emplace_back([&] {
            for (int rep = 0; rep < 20; ++rep) {
                if (!same(run(), want)) ++bad;
            }
        });
    }
    for (std::thread& t : callers) t.join();
    EXPECT_EQ(bad.load(), 0) << "concurrent calls";
}

TEST(BlasDot, RepeatableAcrossThreadCountsAndNesting) {
    constexpr std::size_t n = 65536;
    std::mt19937_64 rng(20261017);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<mf::Float64x2> x2(n), y2(n);
    std::vector<double> xd(n), yd(n);
    for (std::size_t i = 0; i < n; ++i) {
        x2[i] = mf::Float64x2(u(rng)) / mf::Float64x2(3.0);
        y2[i] = mf::Float64x2(u(rng)) / mf::Float64x2(7.0);
        xd[i] = u(rng);
        yd[i] = u(rng);
    }
    expect_dot_repeatable(x2, y2);
    expect_dot_repeatable(xd, yd);
}

}  // namespace
