// The view-based mf::blas public API (DESIGN.md §11): view construction and
// indexing, strided sub-matrix views, and the planar GEMM entry through the
// umbrella header.

#include <gtest/gtest.h>

#include <vector>

#include <mf/mf.hpp>

#include "check/reference.hpp"

namespace {

using mf::Float64x2;
using namespace mf::blas;

TEST(BlasViews, VectorViewBasics) {
    std::vector<double> v{1.0, 2.0, 3.0};
    VectorView<double> mv = view(v);
    EXPECT_EQ(mv.size, 3u);
    EXPECT_FALSE(mv.empty());
    mv[1] = 9.0;
    EXPECT_EQ(v[1], 9.0);
    const std::vector<double>& cv = v;
    ConstVectorView<double> ccv = view(cv);
    EXPECT_EQ(ccv[1], 9.0);
    // Mutable converts to const implicitly.
    ConstVectorView<double> conv = mv;
    EXPECT_EQ(conv[2], 3.0);
    EXPECT_TRUE(VectorView<double>{}.empty());
}

TEST(BlasViews, MatrixViewShapeAndStride) {
    // 3 x 4 storage, viewed as the left 3 x 2 block (stride 4).
    std::vector<double> m(12);
    for (std::size_t i = 0; i < 12; ++i) m[i] = double(i);
    MatrixView<double> full = view(m, 3, 4);
    EXPECT_TRUE(full.contiguous());
    EXPECT_EQ(full(2, 3), 11.0);
    MatrixView<double> block = view(m, 3, 2, 4);
    EXPECT_FALSE(block.contiguous());
    EXPECT_EQ(block.stride, 4u);
    EXPECT_EQ(block(1, 0), 4.0);
    EXPECT_EQ(block.row(2)[1], 9.0);
    ConstMatrixView<double> cblock = block;
    EXPECT_EQ(cblock(2, 1), 9.0);
}

// A strided C view writes only its block: gemm on sub-views composes with
// surrounding storage instead of clobbering it.
TEST(BlasViews, GemmOnStridedSubBlock) {
    const std::size_t n = 2, k = 3, m = 2, ld = 5;
    std::vector<double> a{1, 2, 3, 4, 5, 6};         // 2 x 3
    std::vector<double> b{1, 0, 0, 1, 1, 1};         // 3 x 2
    std::vector<double> c(n * ld, -7.0);             // 2 x 5 backing
    gemm<double>(view(a, n, k), view(b, k, m), view(c, n, m, ld));
    EXPECT_EQ(c[0], 1.0 + 3.0);   // row 0: [1 2 3] . cols of b
    EXPECT_EQ(c[1], 2.0 + 3.0);
    EXPECT_EQ(c[ld + 0], 4.0 + 6.0);
    EXPECT_EQ(c[ld + 1], 5.0 + 6.0);
    for (std::size_t i : {2u, 3u, 4u}) {
        EXPECT_EQ(c[i], -7.0) << i;        // outside the block: untouched
        EXPECT_EQ(c[ld + i], -7.0) << i;
    }
}

// The packed engine accepts planar views; spot-check it against
// check::reference_gemm here so the umbrella-header surface is exercised end
// to end (the exhaustive sweep lives in gemm_threads_test.cpp).
TEST(BlasViews, GemmPackedThroughUmbrellaHeader) {
    const std::size_t n = 7, k = 5, m = 9;
    mf::planar::Vector<double, 2> a(n * k), b(k * m), c(n * m);
    for (std::size_t i = 0; i < n * k; ++i) a.set(i, mf::Float64x2(0.5 + double(i)));
    for (std::size_t i = 0; i < k * m; ++i) b.set(i, mf::Float64x2(1.5 - double(i)));
    const auto want = mf::check::reference_gemm_planar(a, b, n, k, m);
    mf::blas::gemm_packed(mf::planar::matrix_view(a, n, k),
                          mf::planar::matrix_view(b, k, m),
                          mf::planar::matrix_view(c, n, m));
    for (std::size_t i = 0; i < n * m; ++i) {
        EXPECT_EQ(c.get(i).limb[0], want.get(i).limb[0]) << i;
        EXPECT_EQ(c.get(i).limb[1], want.get(i).limb[1]) << i;
    }
}

}  // namespace
