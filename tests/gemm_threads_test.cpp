// Thread-count invariance of the packed GEMM engine (satellite of the
// mf::check conformance layer): gemm_packed must be bit-identical to the
// scalar check::reference_gemm no matter how many workers execute it -- it
// partitions whole output blocks, never a dot product, so no reduction is
// ever reassociated -- and must serialize itself when called from inside an
// enclosing parallel region instead of oversubscribing. Every case sweeps
// all available SIMD backends and both threading substrates (OpenMP and the
// std::thread fallback pool).

#include <gtest/gtest.h>

#include "check/differ.hpp"

namespace {

using namespace mf;
using namespace mf::check;

/// Every record clean (0 mismatches against check::reference_gemm), and
/// under OpenMP the "nested" record present.
void expect_all_clean(const std::vector<DiffRecord>& diffs) {
    ASSERT_FALSE(diffs.empty());
    bool nested_seen = false;
    for (const DiffRecord& d : diffs) {
        EXPECT_EQ(d.mismatches, 0u)
            << d.kernel << " " << d.type << " N=" << d.limbs << " [" << d.backend << "]";
        if (d.backend.rfind("nested", 0) == 0) nested_seen = true;
    }
#if defined(_OPENMP)
    EXPECT_TRUE(nested_seen);
#else
    (void)nested_seen;
#endif
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
