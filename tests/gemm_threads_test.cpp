// Thread-count invariance of the packed GEMM engine (satellite of the
// mf::check conformance layer): gemm_packed must be bit-identical to the
// scalar check::reference_gemm no matter how many workers execute it -- it
// partitions whole output blocks, never a dot product, so no reduction is
// ever reassociated -- and must serialize itself when called from inside a
// region or while another caller's region holds the team, instead of
// nesting or waiting. Every case sweeps all available SIMD backends. The
// workers claim their items from a shared
// counter (engine::parallel_items), so the tests below also pin down that
// each item runs once, whatever the worker count or a failed spawn.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "blas/engine/threading.hpp"
#include "check/differ.hpp"
#include "guard/inject.hpp"

namespace {

using namespace mf;
using namespace mf::check;

/// Every record clean (0 mismatches against check::reference_gemm), and
/// the "nested" and "concurrent" records present.
void expect_all_clean(const std::vector<DiffRecord>& diffs) {
    ASSERT_FALSE(diffs.empty());
    int guards_seen = 0;
    for (const DiffRecord& d : diffs) {
        EXPECT_EQ(d.mismatches, 0u)
            << d.kernel << " " << d.type << " N=" << d.limbs << " [" << d.backend << "]";
        if (d.backend == "nested" || d.backend == "concurrent") ++guards_seen;
    }
    EXPECT_EQ(guards_seen, 2);
}

TEST(GemmThreads, BitIdenticalAcrossThreadCountsDouble2) {
    expect_all_clean(diff_gemm_packed<double, 2>(21, 23, 17, 19, {1, 2, 7, 16}));
}

TEST(GemmThreads, BitIdenticalAcrossThreadCountsDouble4) {
    expect_all_clean(diff_gemm_packed<double, 4>(22, 13, 11, 9, {1, 2, 7, 16}));
}

TEST(GemmThreads, BitIdenticalAcrossThreadCountsFloat3) {
    expect_all_clean(diff_gemm_packed<float, 3>(23, 15, 9, 14, {1, 2, 7, 16}));
}

// Ragged problem sizes under a worker cap far above the number of micro-
// tiles (the 1 x 1 x 1 product has a single one).
TEST(GemmThreads, RaggedTilesOversubscribed) {
    expect_all_clean(diff_gemm_packed<double, 3>(24, 5, 3, 7, {16}));
    expect_all_clean(diff_gemm_packed<double, 2>(25, 1, 1, 1, {7}));
}

// Prime dims (none divides MR, NR, or any cache block) with auto blocks.
TEST(GemmPacked, BitIdenticalAcrossBackendsAndThreadsDouble2) {
    expect_all_clean(diff_gemm_packed<double, 2>(31, 23, 17, 19, {1, 2, 8}));
}

TEST(GemmPacked, BitIdenticalAcrossBackendsAndThreadsDouble3) {
    expect_all_clean(diff_gemm_packed<double, 3>(32, 13, 11, 9, {1, 2, 8}));
}

TEST(GemmPacked, BitIdenticalAcrossBackendsAndThreadsDouble4) {
    expect_all_clean(diff_gemm_packed<double, 4>(33, 11, 7, 9, {1, 2, 8}));
}

TEST(GemmPacked, BitIdenticalAcrossBackendsAndThreadsFloat2) {
    expect_all_clean(diff_gemm_packed<float, 2>(34, 15, 9, 14, {1, 2, 8}));
}

// Tiny pinned cache blocks: every macro-panel ends in mr/nr remainder
// micro-tiles and the k loop spans several kc blocks, so the packed-edge
// and partial-tile paths dominate.
TEST(GemmPacked, TinyBlocksForceEdgeTiles) {
    expect_all_clean(diff_gemm_packed<double, 2>(35, 61, 67, 71, {1, 8},
                                                 mf::check::GenConfig{},
                                                 mf::blas::BlockShape{8, 8, 16}));
    expect_all_clean(diff_gemm_packed<double, 3>(36, 29, 31, 37, {2},
                                                 mf::check::GenConfig{},
                                                 mf::blas::BlockShape{8, 8, 16}));
}

// Items the workers claim from a shared counter: a shape whose item count
// is no multiple of the worker count (200 rows at 3 workers: 10 items, and
// 4 k-blocks of B for the team to pack), at 1-4 workers. A skipped or repeated item would show as mismatches.
TEST(GemmThreads, ItemCountNotAMultipleOfTheWorkers) {
    expect_all_clean(diff_gemm_packed<double, 2>(37, 200, 300, 136, {1, 2, 3, 4}));
    expect_all_clean(diff_gemm_packed<double, 3>(38, 200, 300, 136, {1, 2, 3, 4}));
}

// parallel_items itself: every setup task and every item runs exactly once,
// every item sees every setup task's plain writes (slow setup tasks make an
// early start likely, and a thread-sanitizer build flags a missing
// hand-over), and slots stay below the planned worker count -- at 1-4
// workers, and with the first or second worker spawn failing.
TEST(GemmThreads, ParallelItemsRunEachTaskOnceAfterTheSetup) {
    constexpr std::size_t nsetup = 3, nitems = 10;
    for (unsigned workers = 1; workers <= 4; ++workers) {
        for (long fault : {-1L, 0L, 1L}) {
            if (fault >= 0) guard::inject::arm_spawn(fault);
            std::vector<std::atomic<int>> setups(nsetup), items(nitems);
            std::vector<int> packed(nsetup, 0);  // written by setup, read by items
            std::atomic<bool> early{false};
            std::atomic<unsigned> max_slot{0};
            blas::engine::parallel_items(
                nsetup,
                [&](std::size_t t) {
                    setups[t].fetch_add(1);
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                    packed[t] = 1;
                },
                nitems,
                [&](std::size_t item, unsigned slot) {
                    for (int v : packed) {
                        if (v != 1) early = true;
                    }
                    items[item].fetch_add(1);
                    unsigned cur = max_slot.load();
                    while (slot > cur && !max_slot.compare_exchange_weak(cur, slot)) {
                    }
                },
                workers);
            guard::inject::reset();
            const std::string where =
                "workers=" + std::to_string(workers) + " fault=" + std::to_string(fault);
            for (std::size_t t = 0; t < nsetup; ++t) EXPECT_EQ(setups[t].load(), 1) << where;
            for (std::size_t i = 0; i < nitems; ++i) EXPECT_EQ(items[i].load(), 1) << where;
            EXPECT_FALSE(early.load()) << where;
            EXPECT_LT(max_slot.load(), workers) << where;
        }
    }
}

// A failed spawn leaves its items to the other workers: the product stays
// bit-identical to the reference.
TEST(GemmThreads, SpawnFaultKeepsTheProductBitIdentical) {
    constexpr std::size_t n = 200, k = 300, m = 136;
    std::mt19937_64 rng(39);
    planar::Vector<double, 2> a, b;
    mf::check::detail::fill_vectors(rng, n * k, GenConfig{}, a);
    mf::check::detail::fill_vectors(rng, k * m, GenConfig{}, b);
    const planar::Vector<double, 2> want = reference_gemm_planar(a, b, n, k, m);
    for (long fault : {0L, 1L, 2L}) {
        blas::GemmConfig cfg;
        cfg.max_threads = 4;
        planar::Vector<double, 2> c(n * m);
        guard::inject::arm_spawn(fault);
        blas::gemm_packed(planar::matrix_view(a, n, k), planar::matrix_view(b, k, m),
                          planar::matrix_view(c, n, m), cfg);
        guard::inject::reset();
        EXPECT_EQ(mf::check::detail::count_mismatches(c, want, n * m), 0u)
            << "spawn fault " << fault;
    }
}

// Degenerate shapes must be exact no-ops (C untouched): zero rows and k,
// zero k, zero rows, zero columns.
TEST(GemmPacked, DegenerateShapesAreNoOps) {
    using V = mf::MultiFloat<double, 2>;
    planar::Vector<double, 2> a, b, c(6);
    for (std::size_t i = 0; i < 6; ++i) c.set(i, V(double(i) + 0.5));
    blas::gemm_packed(planar::matrix_view(a, 0, 0), planar::matrix_view(b, 0, 3),
                      planar::matrix_view(c, 0, 3));
    blas::gemm_packed(planar::matrix_view(a, 2, 0), planar::matrix_view(b, 0, 3),
                      planar::matrix_view(c, 2, 3));
    planar::Vector<double, 2> a3(6), b3(6);
    blas::gemm_packed(planar::matrix_view(a3, 0, 3), planar::matrix_view(b3, 3, 2),
                      planar::matrix_view(c, 0, 2));
    blas::gemm_packed(planar::matrix_view(a3, 2, 3), planar::matrix_view(b3, 3, 0),
                      planar::matrix_view(c, 2, 0));
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(c.get(i).limb[0], double(i) + 0.5);
    }
}

}  // namespace
