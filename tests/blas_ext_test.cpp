// Extended BLAS level-1/level-2 additions: scal, asum, nrm2, iamax, ger.
// On every available backend, the MultiFloat iamax lane kernel must return
// the scalar loop's index (kept below as the reference), and ger and scal,
// which end each row on a masked partial pack, must be bit-identical to
// their element formulas and write nothing outside their views.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "blas/kernels.hpp"
#include "check/differ.hpp"
#include "support.hpp"

namespace {

using namespace mf;
using mf::big::BigFloat;
using mf::blas::asum;
using mf::blas::ger;
using mf::blas::iamax;
using mf::blas::nrm2;
using mf::blas::scal;
using mf::blas::view;
using mf::test::adversarial;
using mf::test::exact;

template <int N, typename T = double>
std::vector<MultiFloat<T, N>> vec(std::mt19937_64& rng, std::size_t n) {
    std::vector<MultiFloat<T, N>> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(adversarial<T, N>(rng, -6, 6));
    return v;
}

TEST(BlasExt, ScalMatchesElementwiseMul) {
    std::mt19937_64 rng(1);
    auto x = vec<3>(rng, 130);
    const auto ref = x;
    const auto alpha = adversarial<double, 3>(rng, -3, 3);
    scal<MultiFloat<double, 3>>(alpha, view(x));
    for (std::size_t i = 0; i < x.size(); ++i) {
        const auto want = mul(ref[i], alpha);
        for (int k = 0; k < 3; ++k) EXPECT_EQ(x[i].limb[k], want.limb[k]);
    }
}

TEST(BlasExt, AsumMatchesOracle) {
    std::mt19937_64 rng(2);
    for (std::size_t n : {1u, 17u, 200u}) {
        const auto x = vec<2>(rng, n);
        BigFloat want;
        for (const auto& v : x) want = want + exact(v).abs();
        const auto got = asum<MultiFloat<double, 2>>(view(x));
        MF_EXPECT_REL_BOUND(got, want, 2 * 53 - 2 - 12);
        EXPECT_GE(got.limb[0], 0.0);
    }
}

TEST(BlasExt, Nrm2MatchesOracle) {
    std::mt19937_64 rng(3);
    for (std::size_t n : {1u, 33u, 150u}) {
        const auto x = vec<4>(rng, n);
        BigFloat sq;
        for (const auto& v : x) sq = sq + exact(v) * exact(v);
        if (sq.is_zero()) continue;
        const BigFloat want = BigFloat::sqrt(sq, 4 * 53 + 20);
        const auto got = nrm2<MultiFloat<double, 4>>(view(x));
        MF_EXPECT_REL_BOUND(got, want, 4 * 53 - 4 - 16);
    }
}

TEST(BlasExt, IamaxFindsMaximum) {
    std::mt19937_64 rng(4);
    for (int rep = 0; rep < 50; ++rep) {
        auto x = vec<2>(rng, 64);
        // Plant a clear winner.
        const auto where = static_cast<std::size_t>(rng() % 64);
        x[where] = ldexp(MultiFloat<double, 2>(rng() % 2 ? 1.5 : -1.5), 40);
        const std::size_t got = iamax<MultiFloat<double, 2>>(view(x));
        EXPECT_EQ(got, where);
    }
    std::vector<double> d{1.0, -7.0, 3.0};
    EXPECT_EQ(iamax<double>(view(d)), 1u);
}

TEST(BlasExt, GerMatchesOracle) {
    std::mt19937_64 rng(5);
    const std::size_t n = 9;
    const std::size_t m = 7;
    const auto x = vec<2>(rng, n);
    const auto y = vec<2>(rng, m);
    auto a = vec<2>(rng, n * m);
    const auto ref = a;
    const auto alpha = adversarial<double, 2>(rng, -2, 2);
    ger<MultiFloat<double, 2>>(alpha, view(x), view(y), view(a, n, m));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
            const BigFloat want =
                exact(ref[i * m + j]) + exact(alpha) * exact(x[i]) * exact(y[j]);
            if (!want.is_zero()) {
                MF_EXPECT_REL_BOUND(a[i * m + j], want, 2 * 53 - 2 - 12);
            }
        }
    }
}

/// The scalar iamax loop: the index blas::iamax must reproduce.
template <typename V>
std::size_t iamax_reference(const std::vector<V>& x) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < x.size(); ++i) {
        if (abs(x[best]) < abs(x[i])) best = i;
    }
    return best;
}

template <typename V>
bool same_bits(const V& a, const V& b) {
    using T = typename V::value_type;
    using U = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
    for (int k = 0; k < V::num_limbs; ++k) {
        if (std::bit_cast<U>(a.limb[k]) != std::bit_cast<U>(b.limb[k])) return false;
    }
    return true;
}

/// Run f(width, tag) once per available backend, restoring the active one;
/// width is the backend's pack width for base type T.
template <typename T = double, typename F>
void for_each_backend(F f) {
    const check::detail::BackendGuard restore;
    for (simd::Backend b : {simd::Backend::scalar, simd::Backend::sse2, simd::Backend::avx2,
                            simd::Backend::avx512, simd::Backend::neon}) {
        if (!simd::set_backend(b)) continue;
        f(static_cast<std::size_t>(simd::backend_width<T>(b)),
          std::string(simd::backend_name(b)));
    }
}

/// blas::iamax (the loop below kIamaxLaneMin elements, the lanes from there)
/// and the dispatched lane kernel itself, which runs every n, both return
/// the reference loop's index.
template <typename T, int N>
void expect_iamax_matches_scalar_loop(std::uint64_t seed) {
    using V = MultiFloat<T, N>;
    const T inf = std::numeric_limits<T>::infinity();
    const T nan = std::numeric_limits<T>::quiet_NaN();
    const T tiny = std::ldexp(T(-1), std::numeric_limits<T>::min_exponent + 20);
    constexpr std::size_t lane_min = blas::detail::kIamaxLaneMin;
    std::mt19937_64 rng(seed);
    for_each_backend<T>([&](std::size_t w, const std::string& tag) {
        // Two accumulators of W lanes: no full block, one, several, with and
        // without a partial last pack, and either side of the loop cutoff.
        for (std::size_t n : {std::size_t(0), std::size_t(1), w - 1, w, w + 1, 2 * w + 3, 4 * w,
                              4 * w + 5, 8 * w + 1, lane_min - 1, lane_min, std::size_t(257)}) {
            const auto at = [&] { return static_cast<std::size_t>(rng() % n); };
            std::vector<std::pair<std::string, std::vector<V>>> cases;
            cases.push_back({"random", vec<N, T>(rng, n)});
            if (n > 0) {
                // Equal magnitudes everywhere, random signs: index 0.
                std::vector<V> flat(n, V(T(0.75)));
                for (V& v : flat) {
                    if (rng() % 2) v = -v;
                }
                cases.push_back({"all-ties", flat});
                // Two copies of the maximum, opposite signs: the first wins.
                auto tie = vec<N, T>(rng, n);
                const std::size_t p = at(), q = at();
                tie[p] = ldexp(V(T(1.5)), 40);
                tie[q] = -tie[p];
                cases.push_back({"planted-tie", tie});
                auto nan0 = vec<N, T>(rng, n);
                nan0[0] = V(nan);
                cases.push_back({"nan-at-0", nan0});
                auto nan_mid = vec<N, T>(rng, n);
                nan_mid[n / 2] = V(nan);
                nan_mid[at()] = V(-nan);
                cases.push_back({"nan-mid", nan_mid});
                auto infs = vec<N, T>(rng, n);
                infs[at()] = V(-inf);
                infs[at()] = V(inf);
                cases.push_back({"inf", infs});
                auto inf0 = vec<N, T>(rng, n);
                inf0[0] = V(inf);
                inf0[at()] = V(-inf);
                cases.push_back({"inf-at-0", inf0});
                std::vector<V> zeros(n);
                for (V& v : zeros) v = V(rng() % 2 ? T(-0.0) : T(0.0));
                cases.push_back({"signed-zeros", zeros});
                auto zero_max = zeros;
                zero_max[at()] = V(tiny);
                cases.push_back({"zeros-and-tiny", zero_max});
            }
            for (const auto& [name, x] : cases) {
                const std::size_t want = iamax_reference(x);
                EXPECT_EQ(iamax<V>(view(x)), want)
                    << tag << " N=" << N << " n=" << n << " " << name;
                EXPECT_EQ(simd::iamax(simd::aos(x.data()), n), want)
                    << tag << " N=" << N << " n=" << n << " " << name << " (lane kernel)";
            }
        }
    });
}

TEST(BlasExt, IamaxMatchesScalarLoopOnEveryBackend) {
    expect_iamax_matches_scalar_loop<double, 2>(41);
    expect_iamax_matches_scalar_loop<double, 3>(42);
    expect_iamax_matches_scalar_loop<double, 4>(46);
    expect_iamax_matches_scalar_loop<float, 2>(47);
    expect_iamax_matches_scalar_loop<float, 4>(48);
}

// The lane kernel sweeps chunks of 2W << 16 elements (its block numbers ride
// in lanes as T, exact in float too) and merges them in order: a maximum in
// the second chunk tied by one in the first must lose, one only in the
// second must win.
template <typename T, int N>
void expect_iamax_merges_chunks_in_order(std::uint64_t seed) {
    using V = MultiFloat<T, N>;
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<T> u(T(-1), T(1));
    for_each_backend<T>([&](std::size_t w, const std::string& tag) {
        const std::size_t chunk = 2 * w << 16;
        std::vector<V> x(chunk + 37);
        for (V& v : x) v = V(u(rng));
        const V big = ldexp(V(T(1.25)), 30);
        x[chunk + 5] = big;
        EXPECT_EQ(iamax<V>(view(x)), chunk + 5) << tag;
        x[chunk - 3] = -big;
        EXPECT_EQ(iamax<V>(view(x)), chunk - 3) << tag;
        EXPECT_EQ(iamax<V>(view(x)), iamax_reference(x)) << tag;
    });
}

TEST(BlasExt, IamaxMergesLaneChunksInOrder) {
    expect_iamax_merges_chunks_in_order<double, 2>(45);
    expect_iamax_merges_chunks_in_order<float, 2>(49);
}

/// ger on every backend, rows 1..2R+1 (R = kernels::kGerRows, the kernel's
/// row block: one block, two, a partial one) by columns 1..2W+1: every
/// element is add(mul(mul(alpha, x[i]), y[j]), a[i][j]) bit for bit, and the
/// sentinels either side of each row stay.
template <typename T, int N>
void expect_ger_matches_row_formula(std::uint64_t seed) {
    using V = MultiFloat<T, N>;
    constexpr std::size_t rows_max = 2 * simd::kernels::kGerRows + 1;
    const V sentinel(std::numeric_limits<T>::quiet_NaN());
    std::mt19937_64 rng(seed);
    for_each_backend<T>([&](std::size_t w, const std::string& tag) {
        for (std::size_t n = 1; n <= rows_max; ++n) {
            for (std::size_t m = 1; m <= 2 * w + 1; ++m) {
                const std::size_t stride = m + 2;
                const auto x = vec<N, T>(rng, n);
                const auto y = vec<N, T>(rng, m);
                const V alpha = adversarial<T, N>(rng, -2, 2);
                std::vector<V> a(n * stride, sentinel);
                for (std::size_t i = 0; i < n; ++i) {
                    for (std::size_t j = 0; j < m; ++j) {
                        a[i * stride + 1 + j] = adversarial<T, N>(rng, -6, 6);
                    }
                }
                const auto a0 = a;
                ger<V>(alpha, view(x), view(y), blas::MatrixView<V>(a.data() + 1, n, m, stride));
                for (std::size_t i = 0; i < n; ++i) {
                    for (std::size_t c = 0; c < stride; ++c) {
                        const std::size_t at = i * stride + c;
                        const bool inside = c >= 1 && c <= m;
                        const V want =
                            inside ? add(mul(mul(alpha, x[i]), y[c - 1]), a0[at]) : a0[at];
                        ASSERT_TRUE(same_bits(a[at], want))
                            << tag << " N=" << N << " rows=" << n << " cols=" << m << " row "
                            << i << " col " << c << (inside ? "" : " (sentinel)");
                    }
                }
            }
        }
    });
}

TEST(BlasExt, GerRowsMatchTheRowFormulaOnEveryBackend) {
    expect_ger_matches_row_formula<double, 2>(43);
    expect_ger_matches_row_formula<double, 3>(45);
    expect_ger_matches_row_formula<double, 4>(46);
    expect_ger_matches_row_formula<float, 2>(47);
}

// Lengths 0..2W+1 on every backend: x[i] becomes mul(x[i], alpha) bit for
// bit (that operand order), and the sentinels either side stay.
TEST(BlasExt, ScalMatchesMulOnEveryBackend) {
    using V = MultiFloat<double, 3>;
    const V sentinel(std::numeric_limits<double>::quiet_NaN());
    std::mt19937_64 rng(44);
    for_each_backend([&](std::size_t w, const std::string& tag) {
        for (std::size_t n = 0; n <= 2 * w + 1; ++n) {
            const V alpha = adversarial<double, 3>(rng, -3, 3);
            std::vector<V> x(n + 2, sentinel);
            for (std::size_t i = 1; i <= n; ++i) x[i] = adversarial<double, 3>(rng, -6, 6);
            const auto x0 = x;
            scal<V>(alpha, blas::VectorView<V>(x.data() + 1, n));
            for (std::size_t i = 0; i < x.size(); ++i) {
                const bool inside = i >= 1 && i <= n;
                const V want = inside ? mul(x0[i], alpha) : x0[i];
                ASSERT_TRUE(same_bits(x[i], want))
                    << tag << " n=" << n << " at " << i << (inside ? "" : " (sentinel)");
            }
        }
    });
}

TEST(BlasExt, WorksOnPlainDouble) {
    std::vector<double> x{3.0, -4.0};
    EXPECT_EQ(nrm2<double>(view(x)), 5.0);
    EXPECT_EQ(asum<double>(view(x)), 7.0);
    scal<double>(2.0, view(x));
    EXPECT_EQ(x[0], 6.0);
    EXPECT_EQ(x[1], -8.0);
}

}  // namespace
