// MF_BOUNDS_CHECK shape/stride validation (DESIGN.md §12).
//
// This translation unit is compiled with MF_BOUNDS_CHECK=1 regardless of the
// global CMake option (see tests/CMakeLists.txt), so the death-tests below
// always exercise the checked build of the header-only kernels. Mismatched
// view shapes must abort with a diagnostic naming the entry point; matching
// shapes must run exactly as the unchecked build does (the macro is a pure
// predicate, no behavior change on the pass path).
//
// Death tests fork the process; "threadsafe" style re-execs the binary so
// the forked child is safe even though the parent may have started the
// engine's worker team. Shapes are kept tiny so the kernels stay on their serial
// paths inside the child.

#include <gtest/gtest.h>

#include <vector>

#include "blas/blas.hpp"
#include "mf/multifloat.hpp"

namespace {

using namespace mf;

using MF2 = MultiFloat<double, 2>;

class BlasBoundsDeathTest : public ::testing::Test {
protected:
    void SetUp() override {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
        a_.assign(rows_ * cols_, MF2{});
        x_.assign(cols_, MF2{});
        y_.assign(rows_, MF2{});
    }
    static constexpr std::size_t rows_ = 3, cols_ = 4;
    std::vector<MF2> a_, x_, y_;
};

TEST_F(BlasBoundsDeathTest, AxpySizeMismatchAborts) {
    std::vector<MF2> shorty(cols_ - 1, MF2{});
    EXPECT_DEATH(blas::axpy(MF2{1.0}, blas::view(std::as_const(x_)),
                            blas::view(shorty)),
                 "bounds check failed: blas.axpy: x.size == y.size");
}

TEST_F(BlasBoundsDeathTest, DotSizeMismatchAborts) {
    EXPECT_DEATH((void)blas::dot(blas::view(std::as_const(x_)),
                                 blas::view(std::as_const(y_))),
                 "bounds check failed: blas.dot: x.size == y.size");
}

TEST_F(BlasBoundsDeathTest, GemvShapeMismatchAborts) {
    // x sized as rows (should be cols): a.cols == x.size fails.
    EXPECT_DEATH(blas::gemv(blas::view(std::as_const(a_), rows_, cols_),
                            blas::view(std::as_const(y_)), blas::view(y_)),
                 "bounds check failed: blas.gemv: a.cols == x.size");
    // y sized as cols (should be rows): a.rows == y.size fails.
    EXPECT_DEATH(blas::gemv(blas::view(std::as_const(a_), rows_, cols_),
                            blas::view(std::as_const(x_)), blas::view(x_)),
                 "bounds check failed: blas.gemv: a.rows == y.size");
}

TEST_F(BlasBoundsDeathTest, GemmInnerDimensionMismatchAborts) {
    // A is rows x cols; feeding A as both operands breaks a.cols == b.rows.
    std::vector<MF2> c(rows_ * rows_, MF2{});
    EXPECT_DEATH(blas::gemm(blas::view(std::as_const(a_), rows_, cols_),
                            blas::view(std::as_const(a_), rows_, cols_),
                            blas::view(c, rows_, rows_)),
                 "bounds check failed: blas.gemm: a.cols == b.rows");
}

TEST_F(BlasBoundsDeathTest, GemmOutputShapeMismatchAborts) {
    std::vector<MF2> b(cols_ * rows_, MF2{});
    std::vector<MF2> c_bad(cols_ * cols_, MF2{});
    EXPECT_DEATH(blas::gemm(blas::view(std::as_const(a_), rows_, cols_),
                            blas::view(std::as_const(b), cols_, rows_),
                            blas::view(c_bad, cols_, cols_)),
                 "bounds check failed: blas.gemm: a.rows == c.rows");
}

// The planar GEMM entry validates like blas::gemm: A (rows x cols) fed as
// both operands breaks a.cols == b.rows.
TEST_F(BlasBoundsDeathTest, GemmPackedInnerDimensionMismatchAborts) {
    planar::Vector<double, 2> a(rows_ * cols_), c(rows_ * rows_);
    EXPECT_DEATH(blas::gemm_packed(planar::matrix_view(std::as_const(a), rows_, cols_),
                                   planar::matrix_view(std::as_const(a), rows_, cols_),
                                   planar::matrix_view(c, rows_, rows_)),
                 "bounds check failed: blas.gemm_packed: a.cols == b.rows");
}

// Positive controls: matching shapes must pass through the checks and
// produce the usual results -- the macro must not reject valid calls.
TEST_F(BlasBoundsDeathTest, MatchingShapesRunClean) {
    for (std::size_t i = 0; i < a_.size(); ++i) a_[i] = MF2{1.0};
    for (std::size_t i = 0; i < cols_; ++i) x_[i] = MF2{2.0};
    blas::gemv(blas::view(std::as_const(a_), rows_, cols_),
               blas::view(std::as_const(x_)), blas::view(y_));
    for (std::size_t i = 0; i < rows_; ++i) {
        EXPECT_EQ(y_[i].limb[0], 2.0 * static_cast<double>(cols_));
    }
    std::vector<MF2> b(cols_ * rows_, MF2{1.0});
    std::vector<MF2> c(rows_ * rows_, MF2{});
    blas::gemm(blas::view(std::as_const(a_), rows_, cols_),
               blas::view(std::as_const(b), cols_, rows_),
               blas::view(c, rows_, rows_));
    EXPECT_EQ(c[0].limb[0], static_cast<double>(cols_));
    const MF2 d = blas::dot(blas::view(std::as_const(x_)),
                            blas::view(std::as_const(x_)));
    EXPECT_EQ(d.limb[0], 4.0 * static_cast<double>(cols_));
}

}  // namespace
