// Planar (SoA) kernels: bit-exact agreement with the scalar kernels where
// the operation order is identical (axpy, and gemm_packed against
// check::reference_gemm), oracle-checked accuracy for the reduction kernels
// (dot, gemv) whose accumulation order differs, and layout round-trip
// invariants.

#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "blas/blas.hpp"
#include "check/reference.hpp"
#include "support.hpp"

namespace {

using namespace mf;
using mf::big::BigFloat;
using mf::test::adversarial;
using mf::test::exact;

template <typename MF>
class PlanarTyped : public ::testing::Test {};

using Types = ::testing::Types<MultiFloat<double, 2>, MultiFloat<double, 3>,
                               MultiFloat<double, 4>, MultiFloat<float, 2>,
                               MultiFloat<float, 4>>;
TYPED_TEST_SUITE(PlanarTyped, Types);

TYPED_TEST(PlanarTyped, GetSetRoundTrip) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(1);
    planar::Vector<T, N> v(257);
    std::vector<TypeParam> ref(257);
    for (std::size_t i = 0; i < 257; ++i) {
        ref[i] = adversarial<T, N>(rng, -6, 6);
        v.set(i, ref[i]);
    }
    for (std::size_t i = 0; i < 257; ++i) {
        const TypeParam got = v.get(i);
        for (int k = 0; k < N; ++k) EXPECT_EQ(got.limb[k], ref[i].limb[k]);
    }
}

TYPED_TEST(PlanarTyped, AxpyBitExactVsScalarKernel) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(2);
    for (std::size_t n : {1u, 8u, 63u, 512u}) {
        planar::Vector<T, N> x(n);
        planar::Vector<T, N> y(n);
        std::vector<TypeParam> xa(n);
        std::vector<TypeParam> ya(n);
        for (std::size_t i = 0; i < n; ++i) {
            xa[i] = adversarial<T, N>(rng, -6, 6);
            ya[i] = adversarial<T, N>(rng, -6, 6);
            x.set(i, xa[i]);
            y.set(i, ya[i]);
        }
        const TypeParam alpha = adversarial<T, N>(rng, -2, 2);
        planar::axpy(alpha, x, y);
        for (std::size_t i = 0; i < n; ++i) {
            const TypeParam want = add(mul(alpha, xa[i]), ya[i]);
            const TypeParam got = y.get(i);
            for (int k = 0; k < N; ++k) {
                ASSERT_EQ(got.limb[k], want.limb[k]) << "n=" << n << " i=" << i;
            }
        }
    }
}

TYPED_TEST(PlanarTyped, DotMatchesOracle) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(3);
    for (std::size_t n : {1u, 7u, 64u, 333u}) {
        planar::Vector<T, N> x(n);
        planar::Vector<T, N> y(n);
        BigFloat want;
        for (std::size_t i = 0; i < n; ++i) {
            const TypeParam xe = adversarial<T, N>(rng, -4, 4);
            const TypeParam ye = adversarial<T, N>(rng, -4, 4);
            x.set(i, xe);
            y.set(i, ye);
            want = want + exact(xe) * exact(ye);
        }
        const TypeParam got = planar::dot(x, y);
        if (!want.is_zero()) {
            MF_EXPECT_REL_BOUND(got, want, N * p - N - 16);
        }
        EXPECT_TRUE(is_nonoverlapping(got));
    }
}

TYPED_TEST(PlanarTyped, GemvMatchesOracle) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(4);
    const std::size_t n = 11;
    const std::size_t m = 9;
    planar::Vector<T, N> a(n * m);
    planar::Vector<T, N> x(m);
    planar::Vector<T, N> y(n);
    std::vector<BigFloat> want(n);
    std::vector<TypeParam> xa(m);
    for (std::size_t j = 0; j < m; ++j) {
        xa[j] = adversarial<T, N>(rng, -4, 4);
        x.set(j, xa[j]);
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
            const TypeParam e = adversarial<T, N>(rng, -4, 4);
            a.set(i * m + j, e);
            want[i] = want[i] + exact(e) * exact(xa[j]);
        }
    }
    planar::gemv(a, n, m, x, y);
    for (std::size_t i = 0; i < n; ++i) {
        if (!want[i].is_zero()) {
            MF_EXPECT_REL_BOUND(y.get(i), want[i], N * p - N - 16);
        }
    }
}

TYPED_TEST(PlanarTyped, GemmBitExactVsScalarKernel) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(5);
    const std::size_t n = 6;
    const std::size_t k = 5;
    const std::size_t m = 7;
    planar::Vector<T, N> a(n * k);
    planar::Vector<T, N> b(k * m);
    planar::Vector<T, N> c(n * m);
    std::vector<TypeParam> aa(n * k);
    std::vector<TypeParam> ba(k * m);
    std::vector<TypeParam> ca(n * m, TypeParam(T(0)));
    for (std::size_t i = 0; i < n * k; ++i) {
        aa[i] = adversarial<T, N>(rng, -4, 4);
        a.set(i, aa[i]);
    }
    for (std::size_t i = 0; i < k * m; ++i) {
        ba[i] = adversarial<T, N>(rng, -4, 4);
        b.set(i, ba[i]);
    }
    blas::gemm_packed(planar::matrix_view(a, n, k), planar::matrix_view(b, k, m),
                      planar::matrix_view(c, n, m));
    check::reference_gemm<T, N>(blas::view(std::as_const(aa), n, k),
                                blas::view(std::as_const(ba), k, m),
                                blas::view(ca, n, m));
    // Same kk-ascending order, same fused update: bit-identical.
    for (std::size_t i = 0; i < n * m; ++i) {
        const TypeParam got = c.get(i);
        for (int p = 0; p < N; ++p) ASSERT_EQ(got.limb[p], ca[i].limb[p]) << i;
    }
}

TEST(Planar, VectorizationDoesNotChangeValues) {
    // Regression guard for the GCC 12 SLP value-changing bug (see top-level
    // CMakeLists): the vectorized planar path must agree bit-for-bit with
    // the scalar kernels on adversarial data, at scale.
    std::mt19937_64 rng(6);
    const std::size_t n = 8192;
    planar::Vector<double, 4> x(n);
    planar::Vector<double, 4> y(n);
    std::vector<Float64x4> xa(n);
    std::vector<Float64x4> ya(n);
    for (std::size_t i = 0; i < n; ++i) {
        xa[i] = mf::test::adversarial<double, 4>(rng);
        ya[i] = (i % 3 == 0) ? mf::test::cancellation_partner(xa[i], rng)
                             : mf::test::adversarial<double, 4>(rng);
        x.set(i, xa[i]);
        y.set(i, ya[i]);
    }
    const Float64x4 alpha = mf::test::adversarial<double, 4>(rng, -2, 2);
    planar::axpy(alpha, x, y);
    int mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Float64x4 want = add(mul(alpha, xa[i]), ya[i]);
        const Float64x4 got = y.get(i);
        for (int k = 0; k < 4; ++k) mismatches += got.limb[k] != want.limb[k];
    }
    EXPECT_EQ(mismatches, 0);
}

}  // namespace
