// mf::guard graceful degradation (DESIGN.md §12).
//
// Drives the guard::inject fault hooks through the real execution paths and
// asserts the degradation contracts: a failed worker spawn is absorbed by
// parallel_blocks_slots with every block still executed exactly once, a
// failed packing allocation routes gemm_packed onto the unpacked fallback with
// a bit-identical result, and the full check::run_fault_matrix -- the same
// matrix `mf_fuzz --inject` runs in CI -- comes back clean. Faults here are
// injected, never real: the suite must pass on any machine.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <random>
#include <vector>

#include "blas/engine/packing.hpp"
#include "blas/engine/threading.hpp"
#include "check/robustness.hpp"
#include "guard/guard.hpp"

namespace {

using namespace mf;

class GuardDegradeTest : public ::testing::Test {
protected:
    void TearDown() override { guard::inject::reset(); }
};

TEST_F(GuardDegradeTest, SpawnFaultStillVisitsEveryBlockExactlyOnce) {
    constexpr std::size_t nblocks = 13;
    const unsigned planned = blas::engine::planned_workers(nblocks, /*max_threads=*/4);
    // Fail the 0th, 1st, and last spawn in turn; also run fault-free.
    std::vector<long> faults{0, 1, static_cast<long>(planned) - 1, -1};
    for (long nth : faults) {
        if (nth >= 0) guard::inject::arm_spawn(nth);
        std::vector<std::atomic<int>> visits(nblocks);
        std::atomic<unsigned> max_slot{0};
        blas::engine::parallel_blocks_slots(
            nblocks,
            [&](std::size_t blk, unsigned slot) {
                visits[blk].fetch_add(1, std::memory_order_relaxed);
                unsigned cur = max_slot.load(std::memory_order_relaxed);
                while (slot > cur &&
                       !max_slot.compare_exchange_weak(cur, slot)) {
                }
            },
            /*max_threads=*/4);
        guard::inject::reset();
        for (std::size_t b = 0; b < nblocks; ++b) {
            EXPECT_EQ(visits[b].load(), 1)
                << "block " << b << " with spawn fault at " << nth;
        }
        EXPECT_LT(max_slot.load(), planned) << "slot out of planned range";
    }
}

TEST_F(GuardDegradeTest, AlignedBufferInjectedAllocThrowsOnceThenRecovers) {
    blas::engine::AlignedBuffer<double> buf;
    guard::inject::arm_alloc(0);
    EXPECT_THROW(buf.ensure(64), std::bad_alloc);
    // The countdown disarms after firing: the retry must succeed.
    double* p = buf.ensure(64);
    ASSERT_NE(p, nullptr);
    p[0] = 1.0;
    p[63] = 2.0;
    EXPECT_EQ(p[0] + p[63], 3.0);
}

TEST_F(GuardDegradeTest, GemmAllocFaultFallsBackBitIdentically) {
    constexpr std::size_t n = 24, k = 9, m = 17;
    check::GenConfig cfg;
    std::mt19937_64 rng(42);
    planar::Vector<double, 2> a, b, c_seed;
    check::detail::fill_vectors(rng, n * k, cfg, a);
    check::detail::fill_vectors(rng, k * m, cfg, b);
    // C += A*B accumulate contract: seed C with nonzero data so a fallback
    // that double-added (packed partial + planar full) would be caught.
    check::detail::fill_vectors(rng, n * m, cfg, c_seed);

    blas::GemmConfig gcfg;
    gcfg.max_threads = 1;
    gcfg.blocks = blas::BlockShape{8, 8, 16};  // several macro-panels

    planar::Vector<double, 2> c_ref = c_seed;
    blas::gemm_packed(planar::matrix_view(a, n, k), planar::matrix_view(b, k, m),
                      planar::matrix_view(c_ref, n, m), gcfg);

    // The pre-reserve allocation must degrade identically. All pack
    // scratch (B panel and A block) is one allocation: index 0.
    planar::Vector<double, 2> c = c_seed;
    guard::inject::arm_alloc(0);
    ASSERT_NO_THROW(blas::gemm_packed(planar::matrix_view(a, n, k),
                                      planar::matrix_view(b, k, m),
                                      planar::matrix_view(c, n, m), gcfg));
    guard::inject::reset();
    EXPECT_EQ(check::detail::count_mismatches(c, c_ref, n * m), 0u);
}

TEST_F(GuardDegradeTest, FullFaultMatrixIsClean) {
    check::RobustnessOptions opt;
    const std::vector<check::FaultCase> cases = check::run_fault_matrix(opt);
    ASSERT_FALSE(cases.empty());
    for (const check::FaultCase& fc : cases) {
        EXPECT_TRUE(fc.expectation_met) << fc.name << ": " << fc.detail;
    }
    EXPECT_TRUE(check::fault_matrix_clean(cases));
}

}  // namespace
