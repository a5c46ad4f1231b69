// AoS blas::gemm on the packed engine (DESIGN.md §11).
//
// blas::gemm over interleaved MultiFloat views runs the one packed engine
// (engine::gemm_accumulate) through the AoS layout accessor in its
// overwrite mode, where each work item starts its own C block from zero.
// These tests pin its contract against check::reference_gemm, the scalar
// reference that applies every update c = add(mul(a, b), c) in kk-ascending
// order:
//
//   * bit-identical for every compiled backend x {1, 2, 4} workers, both
//     accumulating into a zero C and overwriting a NaN-filled one (C's
//     prior contents are never read);
//   * on square, skinny (k = 32, strided sub-block views as the blocked LU
//     uses), fewer-rows-than-mc (forces the jr column split) and 1 x m /
//     n x 1 edge shapes, for Float64x2/x3/x4 and Float32x2;
//   * degrading to the unpacked path bit-identically when pack scratch
//     cannot be allocated;
//   * the shape-derived ic/jr partition keeps large products on the ic-only
//     plan and splits small ones across workers, and a plan for fewer
//     workers does not end any of the team's workers.
//
// Suites are named GemmPacked* so the scalar-forced CI identity job runs
// them alongside the planar engine's tests.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "check/differ.hpp"
#include "check/generators.hpp"
#include "check/reference.hpp"
#include "guard/guard.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace mf;

template <typename T, int N>
bool same_bits(const MultiFloat<T, N>& x, const MultiFloat<T, N>& y) {
    for (int p = 0; p < N; ++p) {
        if (!check::detail::same_bits(x.limb[p], y.limb[p])) return false;
    }
    return true;
}

/// An n x m block at (row0, col0) of a larger row-major parent whose stride
/// exceeds the block's width -- the shape of every LU sub-block operand.
template <typename V>
struct Block {
    std::vector<V> parent;
    std::size_t rows, cols, stride, offset;

    Block(std::size_t r, std::size_t c, std::size_t pad)
        : parent((r + pad) * (c + pad)), rows(r), cols(c), stride(c + pad),
          offset(pad / 2 * (c + pad) + pad / 2) {}

    blas::MatrixView<V> view() { return {parent.data() + offset, rows, cols, stride}; }
    blas::ConstMatrixView<V> cview() const {
        return {parent.data() + offset, rows, cols, stride};
    }
};

template <typename T, int N>
void fill(std::mt19937_64& rng, std::vector<MultiFloat<T, N>>& v) {
    const check::GenConfig cfg;
    for (auto& x : v) x = check::gen<T, N>(rng, check::Category::ladder, cfg);
}

/// Quiet NaN in every limb of the block's view, padding untouched: an
/// overwriting GEMM that read C would leave NaNs behind.
template <typename V>
void nan_fill(Block<V>& c) {
    for (std::size_t i = 0; i < c.rows; ++i) {
        for (std::size_t j = 0; j < c.cols; ++j) {
            for (auto& l : c.parent[c.offset + i * c.stride + j].limb) {
                l = std::numeric_limits<typename V::value_type>::quiet_NaN();
            }
        }
    }
}

struct Shape {
    const char* name;
    std::size_t n, k, m, pad;
};

// Square; LU-like skinny k = 32 on strided sub-blocks; 40 rows, one or two
// mc row blocks depending on the backend, so 4 workers (and 2 on AVX-512)
// need the jr split; single-row and single-column edges.
constexpr Shape kShapes[] = {
    {"square", 37, 37, 37, 0},
    {"skinny-strided", 96, 32, 96, 5},
    {"rows-below-mc", 40, 32, 160, 3},
    {"1xm", 1, 19, 45, 2},
    {"nx1", 45, 19, 1, 2},
};

/// Every backend x {1, 2, 4} workers x {automatic, pool} over every shape:
/// the engine entry blas::gemm uses, accumulating into a zero C and
/// overwriting a NaN-filled one, and blas::gemm itself per backend, also
/// over a NaN-filled C.
template <typename T, int N>
void expect_aos_gemm_matches_reference(std::uint64_t seed) {
    using V = MultiFloat<T, N>;
    check::detail::BackendGuard restore;
    for (const Shape& s : kShapes) {
        std::mt19937_64 rng(seed);
        Block<V> a(s.n, s.k, s.pad), b(s.k, s.m, s.pad);
        fill<T, N>(rng, a.parent);
        fill<T, N>(rng, b.parent);
        Block<V> want(s.n, s.m, s.pad);
        check::reference_gemm<T, N>(a.cview(), b.cview(), want.view());

        const auto expect_same = [&](Block<V>& got, const std::string& label) {
            std::size_t bad = 0;
            for (std::size_t i = 0; i < got.parent.size(); ++i) {
                if (!same_bits(got.parent[i], want.parent[i])) ++bad;
            }
            EXPECT_EQ(bad, 0u) << s.name << " " << label;
        };
        for (simd::Backend bk : {simd::Backend::scalar, simd::Backend::sse2,
                                 simd::Backend::avx2, simd::Backend::avx512,
                                 simd::Backend::neon}) {
            if (!simd::backend_available(bk)) continue;
            simd::set_backend(bk);
            const std::string tag = simd::backend_name(bk);
            {
                Block<V> c(s.n, s.m, s.pad);
                nan_fill(c);
                blas::gemm(a.cview(), b.cview(), c.view());
                expect_same(c, tag + "/blas::gemm");
            }
            for (unsigned t : {1u, 2u, 4u}) {
                blas::GemmConfig cfg;
                cfg.max_threads = t;
                for (const bool zero_c : {false, true}) {
                    Block<V> c(s.n, s.m, s.pad);
                    if (zero_c) nan_fill(c);
                    blas::engine::gemm_accumulate(
                        blas::engine::access(a.cview()), blas::engine::access(b.cview()),
                        blas::engine::access(c.view()), cfg, false, zero_c);
                    expect_same(c, tag + "/threads=" + std::to_string(t) +
                                       (zero_c ? "/zero_c" : ""));
                }
            }
        }
    }
}

TEST(GemmPackedAos, BitIdenticalToScalarReferenceFloat64x2) {
    expect_aos_gemm_matches_reference<double, 2>(101);
}

TEST(GemmPackedAos, BitIdenticalToScalarReferenceFloat64x3) {
    expect_aos_gemm_matches_reference<double, 3>(102);
}

TEST(GemmPackedAos, BitIdenticalToScalarReferenceFloat64x4) {
    expect_aos_gemm_matches_reference<double, 4>(103);
}

TEST(GemmPackedAos, BitIdenticalToScalarReferenceFloat32x2) {
    expect_aos_gemm_matches_reference<float, 2>(104);
}

// blas::gemm overwrites C (including with k = 0, which leaves zeros) and
// never writes outside the C view's rows x cols, whatever the stride.
TEST(GemmPackedAos, OverwritesOnlyTheCView) {
    using V = MultiFloat<double, 2>;
    const V marker(7.25);
    for (std::size_t k : {0u, 3u}) {
        for (const bool nan_view : {false, true}) {
            Block<V> a(6, k, 4), b(k, 5, 4), c(6, 5, 4);
            std::mt19937_64 rng(5);
            fill<double, 2>(rng, a.parent);
            fill<double, 2>(rng, b.parent);
            for (V& x : c.parent) x = marker;
            if (nan_view) nan_fill(c);
            Block<V> want(6, 5, 4);
            for (V& x : want.parent) x = marker;
            check::reference_gemm<double, 2>(a.cview(), b.cview(), want.view());
            blas::gemm(a.cview(), b.cview(), c.view());
            for (std::size_t i = 0; i < c.parent.size(); ++i) {
                EXPECT_TRUE(same_bits(c.parent[i], want.parent[i]))
                    << "k=" << k << (nan_view ? " NaN-filled" : "") << " @" << i;
            }
            if (k == 0) {
                for (std::size_t i = 0; i < c.rows; ++i) {
                    for (std::size_t j = 0; j < c.cols; ++j) {
                        for (double l : c.parent[c.offset + i * c.stride + j].limb) {
                            EXPECT_EQ(std::bit_cast<std::uint64_t>(l), 0u);
                        }
                    }
                }
            }
        }
    }
}

// A failed pack-scratch reservation (one allocation holding the B panel and
// every worker slot's A block) degrades the AoS route to the unpacked path
// bit-identically; that path zeroes the NaN-filled C before accumulating.
// m = 72 fills every double pack width (2/4/8); m = 71 fills none, so each
// row of the unpacked path ends on a partial pack.
TEST(GemmPackedAos, AllocFaultDegradesBitIdentically) {
    using V = MultiFloat<double, 2>;
    const auto degraded = [] {
        std::uint64_t total = 0;
        for (const auto& c : telemetry::Registry::instance().snapshot().counters) {
            if (c.name.find("mf_guard_degraded_total{path=\"alloc\"}") != std::string::npos) {
                total += c.value;
            }
        }
        return total;
    };
    for (const std::size_t m : {72u, 71u}) {
        constexpr std::size_t n = 40, k = 32;
        Block<V> a(n, k, 3), b(k, m, 3), want(n, m, 3);
        std::mt19937_64 rng(11);
        fill<double, 2>(rng, a.parent);
        fill<double, 2>(rng, b.parent);
        check::reference_gemm<double, 2>(a.cview(), b.cview(), want.view());

        Block<V> c(n, m, 3);
        nan_fill(c);
        const std::uint64_t before = degraded();
        guard::inject::arm_alloc(0);
        ASSERT_NO_THROW(blas::gemm(a.cview(), b.cview(), c.view()));
        guard::inject::reset();
#if MF_TELEMETRY_ENABLED
        EXPECT_EQ(degraded() - before, 1u) << "m=" << m;
#else
        (void)before;
#endif
        for (std::size_t i = 0; i < c.parent.size(); ++i) {
            ASSERT_TRUE(same_bits(c.parent[i], want.parent[i])) << "m=" << m << " @" << i;
        }
    }
}

// --- shape-derived partition ----------------------------------------------

TEST(GemmPackedPlan, RowBlocksThatFillTheWorkersKeepTheIcOnlyPlan) {
    // gemm_large: n = 512 in mc = 128 blocks -> 4 row blocks for 4 workers.
    const auto plan = blas::engine::plan_partition(4, 85, 128 * 85, 4 * 16 * 96, 4);
    EXPECT_EQ(plan.col_splits, 1u);
    EXPECT_EQ(plan.workers, 4u);
    EXPECT_EQ(plan.items(), 4u);
}

TEST(GemmPackedPlan, FewRowBlocksSplitMicroPanelColumns) {
    using blas::engine::plan_partition;
    // One row block, 14 micro-panels: four column ranges, one per worker.
    auto plan = plan_partition(1, 14, 56 * 14, 4 * 16 * 32, 4);
    EXPECT_EQ(plan.col_splits, 4u);
    EXPECT_EQ(plan.workers, 4u);
    // Two row blocks (LU n = 224): two ranges each, four balanced items.
    plan = plan_partition(2, 14, 56 * 14, 4 * 16 * 32, 4);
    EXPECT_EQ(plan.col_splits, 2u);
    EXPECT_EQ(plan.items(), 4u);
    EXPECT_EQ(plan.workers, 4u);
    // Three row blocks: item count a multiple of the workers.
    plan = plan_partition(3, 14, 84 * 14, 4 * 16 * 32, 4);
    EXPECT_EQ(plan.items() % plan.workers, 0u);
    EXPECT_EQ(plan.workers, 4u);
}

TEST(GemmPackedPlan, NeverForksForLessWorkThanTheForkCosts) {
    using blas::engine::kForkMadds;
    using blas::engine::plan_partition;
    // 32 x 32 x 32: 16 micro-tiles of 2048 madds -> two workers' worth.
    auto plan = plan_partition(1, 2, 16, 4 * 16 * 32, 4);
    EXPECT_EQ(plan.workers, 2u);
    EXPECT_GE(16 / plan.workers * 4 * 16 * 32, kForkMadds);
    // Too little work for a second worker: stays on the caller.
    plan = plan_partition(1, 1, 2, 4 * 16 * 32, 4);
    EXPECT_EQ(plan.workers, 1u);
    // Column splits never exceed the micro-panels available.
    plan = plan_partition(1, 2, 1000, 4 * 16 * 512, 4);
    EXPECT_EQ(plan.col_splits, 2u);
    EXPECT_EQ(plan.workers, 2u);
}

TEST(GemmPackedPlan, SerialModeAndNestedRegionsUseOneWorker) {
    using blas::engine::plan_partition;
    EXPECT_EQ(plan_partition(1, 14, 784, 2048, 1).workers, 1u);
    // Inside a region -- on the team's worker and in the caller's own share
    // -- every plan is serial. Two concurrent callers run such regions; one
    // that finds the team busy runs its blocks outside any region, and those
    // are not counted.
    std::atomic<int> inside{0}, forking{0};
    const auto caller = [&] {
        blas::engine::parallel_blocks_slots(
            2,
            [&](std::size_t, unsigned) {
                if (!blas::engine::in_parallel()) return;
                ++inside;
                if (plan_partition(1, 14, 784, 2048, 4).workers != 1) ++forking;
            },
            2);
    };
    std::thread callers[2] = {std::thread(caller), std::thread(caller)};
    for (std::thread& t : callers) t.join();
    EXPECT_GE(inside.load(), 2);
    EXPECT_EQ(forking.load(), 0);
}

// A plan for fewer workers runs on the first workers of the one team and
// idles the rest, so the next full region runs on the same threads: no
// worker is ended and started again between regions of different sizes.
TEST(GemmPackedPlan, FewerWorkersKeepTheRuntimeTeam) {
    using blas::engine::parallel_blocks_slots;
    const unsigned full = blas::engine::default_threads();
    if (full < 3) GTEST_SKIP() << "needs a default team of at least 3 threads";
    std::atomic<int> new_threads{0};
    const auto region = [&](unsigned workers) {
        parallel_blocks_slots(
            workers,
            [&](std::size_t, unsigned) {
                thread_local bool seen = false;
                if (!seen) {
                    seen = true;
                    new_threads.fetch_add(1);
                }
            },
            workers);
    };
    region(full);
    new_threads = 0;
    for (int i = 0; i < 4; ++i) {
        region(2);
        region(full);
    }
    EXPECT_EQ(new_threads.load(), 0);
}

}  // namespace
