#pragma once
// Extended-precision BLAS kernels (paper §5): AXPY, DOT, GEMV, GEMM,
// templated over the number type so that every library under evaluation
// (MultiFloat, QD, CAMPARY, BigFloat/PrecFloat, GMP, __float128, plain
// double/float) runs the IDENTICAL kernel code.
//
// The public signatures take the typed views of views.hpp -- a vector view
// carries (data, size), a matrix view carries (data, rows, cols, stride) --
// so shapes travel with the data and sub-matrix blocks (stride > cols) work
// without copying.
//
// MultiFloat views additionally take an explicit-SIMD fast path: the loop
// bodies run on mf::simd packs (runtime-dispatched to the widest available
// backend, scalar tail loops for remainders) instead of relying on the
// auto-vectorizer. The `if constexpr` split keeps a single kernel entry
// point per operation, so all existing call sites -- including ones that
// pass the element type explicitly, e.g. dot<Float64x2>(...) -- get the
// pack path for free.
//
// Parallelization matches the paper: ij loop ordering for GEMV, ikj loop
// ordering for the generic GEMM, with OpenMP over the outer loop when
// enabled; MultiFloat GEMM runs the packed engine (engine/gemm_packed.hpp)
// instead. Every parallel region is guarded by engine::in_parallel() so that
// kernels called from inside an existing parallel region (e.g. a user's own
// omp loop) run serially instead of oversubscribing with nested teams.
//
// Robustness (DESIGN.md §12): every view entry point carries an
// MF_GUARD_SENTINEL (FP-environment probe, MF_GUARD_POLICY-driven) and
// MF_BLAS_REQUIRE shape/stride validation (compiled in under the
// MF_BOUNDS_CHECK CMake option only).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>

#include "../guard/policy.hpp"
#include "../mf/multifloat.hpp"
#include "../simd/dispatch.hpp"
#include "engine/gemm_packed.hpp"
#include "views.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace mf::blas {

namespace detail {

/// Is V a MultiFloat over a *scalar* base type (the pack-kernel fast path)?
template <typename V>
inline constexpr bool is_multifloat_v = false;
template <typename T, int N>
inline constexpr bool is_multifloat_v<MultiFloat<T, N>> = std::floating_point<T>;

}  // namespace detail

/// y <- alpha * x + y
template <typename V>
void axpy(const V& alpha, ConstVectorView<V> x, VectorView<V> y) {
    MF_GUARD_SENTINEL("blas.axpy");
    MF_BLAS_REQUIRE(x.size == y.size, "blas.axpy", "x.size == y.size");
    const std::size_t n = x.size;
    if constexpr (detail::is_multifloat_v<V>) {
        using T = typename V::value_type;
        constexpr int N = V::num_limbs;
        constexpr std::size_t chunk = 2048;
        const std::size_t nchunks = (n + chunk - 1) / chunk;
#pragma omp parallel for schedule(static) \
    if (n > 4096 && !engine::in_parallel())
        for (std::size_t c = 0; c < nchunks; ++c) {
            const std::size_t lo = c * chunk;
            const std::size_t hi = (lo + chunk < n) ? lo + chunk : n;
            simd::axpy_aos<T, N>(alpha, x.data + lo, y.data + lo, hi - lo);
        }
    } else {
#pragma omp parallel for schedule(static) \
    if (n > 4096 && !engine::in_parallel())
        for (std::size_t i = 0; i < n; ++i) {
            y[i] += alpha * x[i];
        }
    }
}

/// <x, y>
///
/// Eight (or pack-width) independent partial accumulators break the
/// loop-carried dependence so the (branch-free) per-element work pipelines
/// and vectorizes -- the SIMD-reduction structure the paper credits for
/// MultiFloats' DOT advantage over libraries whose operations cannot be
/// interleaved.
template <typename V>
[[nodiscard]] V dot(ConstVectorView<V> x, ConstVectorView<V> y) {
    MF_GUARD_SENTINEL("blas.dot");
    MF_BLAS_REQUIRE(x.size == y.size, "blas.dot", "x.size == y.size");
    const std::size_t n = x.size;
    if constexpr (detail::is_multifloat_v<V>) {
        using T = typename V::value_type;
        constexpr int N = V::num_limbs;
        V acc{};
#pragma omp parallel if (n > 4096 && !engine::in_parallel())
        {
#if defined(_OPENMP)
            const std::size_t nt = static_cast<std::size_t>(omp_get_num_threads());
            const std::size_t tid = static_cast<std::size_t>(omp_get_thread_num());
#else
            const std::size_t nt = 1;
            const std::size_t tid = 0;
#endif
            const std::size_t lo = n * tid / nt;
            const std::size_t hi = n * (tid + 1) / nt;
            const V local = simd::dot_aos<T, N>(x.data + lo, y.data + lo, hi - lo);
#pragma omp critical
            acc += local;
        }
        return acc;
    } else {
        constexpr std::size_t K = 8;
        V acc{};
#pragma omp parallel if (n > 4096 && !engine::in_parallel())
        {
            V part[K]{};
#pragma omp for schedule(static) nowait
            for (std::size_t blk = 0; blk < n / K; ++blk) {
                for (std::size_t k = 0; k < K; ++k) {
                    part[k] += x[blk * K + k] * y[blk * K + k];
                }
            }
            V local{};
            for (std::size_t k = 0; k < K; ++k) local += part[k];
#pragma omp critical
            acc += local;
        }
        for (std::size_t i = n - n % K; i < n; ++i) {
            acc += x[i] * y[i];
        }
        return acc;
    }
}

/// y <- A x  (A row-major rows x cols; ij loop order; MultiFloat rows reduce
/// through the pack dot kernel, other types use a 4-way unrolled inner dot)
template <typename V>
void gemv(ConstMatrixView<V> a, ConstVectorView<V> x, VectorView<V> y) {
    MF_GUARD_SENTINEL("blas.gemv");
    MF_BLAS_REQUIRE(a.cols == x.size, "blas.gemv", "a.cols == x.size");
    MF_BLAS_REQUIRE(a.rows == y.size, "blas.gemv", "a.rows == y.size");
    MF_BLAS_REQUIRE(a.stride >= a.cols, "blas.gemv", "a.stride >= a.cols");
    const std::size_t n = a.rows;
    const std::size_t m = a.cols;
    if constexpr (detail::is_multifloat_v<V>) {
        using T = typename V::value_type;
        constexpr int N = V::num_limbs;
#pragma omp parallel for schedule(static) if (n > 64 && !engine::in_parallel())
        for (std::size_t i = 0; i < n; ++i) {
            y[i] = simd::dot_aos<T, N>(a.row(i), x.data, m);
        }
    } else {
        constexpr std::size_t K = 4;
#pragma omp parallel for schedule(static) if (n > 64 && !engine::in_parallel())
        for (std::size_t i = 0; i < n; ++i) {
            const V* arow = a.row(i);
            V part[K]{};
            for (std::size_t blk = 0; blk < m / K; ++blk) {
                for (std::size_t k = 0; k < K; ++k) {
                    part[k] += arow[blk * K + k] * x[blk * K + k];
                }
            }
            V acc{};
            for (std::size_t k = 0; k < K; ++k) acc += part[k];
            for (std::size_t j = m - m % K; j < m; ++j) {
                acc += arow[j] * x[j];
            }
            y[i] = acc;
        }
    }
}

/// x <- alpha * x
template <typename V>
void scal(const V& alpha, VectorView<V> x) {
    MF_GUARD_SENTINEL("blas.scal");
    const std::size_t n = x.size;
#pragma omp parallel for schedule(static) if (n > 4096 && !engine::in_parallel())
    for (std::size_t i = 0; i < n; ++i) {
        x[i] *= alpha;
    }
}

/// sum_i |x_i|  (abs is found by ADL for expansions, std::abs for scalars)
template <typename V>
[[nodiscard]] V asum(ConstVectorView<V> x) {
    MF_GUARD_SENTINEL("blas.asum");
    using std::abs;
    V acc{};
    for (std::size_t i = 0; i < x.size; ++i) acc += abs(x[i]);
    return acc;
}

/// sqrt(<x, x>)  (sqrt found by ADL for expansions)
template <typename V>
[[nodiscard]] V nrm2(ConstVectorView<V> x) {
    using std::sqrt;
    return sqrt(dot<V>(x, x));
}

/// Index of the element with the largest magnitude (0 for empty input).
template <typename V>
[[nodiscard]] std::size_t iamax(ConstVectorView<V> x) {
    MF_GUARD_SENTINEL("blas.iamax");
    using std::abs;
    std::size_t best = 0;
    for (std::size_t i = 1; i < x.size; ++i) {
        if (abs(x[best]) < abs(x[i])) best = i;
    }
    return best;
}

/// A <- A + alpha * x y^T  (rank-1 update; A row-major x.size x y.size)
template <typename V>
void ger(const V& alpha, ConstVectorView<V> x, ConstVectorView<V> y,
         MatrixView<V> a) {
    MF_GUARD_SENTINEL("blas.ger");
    MF_BLAS_REQUIRE(a.rows == x.size, "blas.ger", "a.rows == x.size");
    MF_BLAS_REQUIRE(a.cols == y.size, "blas.ger", "a.cols == y.size");
    MF_BLAS_REQUIRE(a.stride >= a.cols, "blas.ger", "a.stride >= a.cols");
    const std::size_t n = x.size;
    const std::size_t m = y.size;
#pragma omp parallel for schedule(static) if (n > 64 && !engine::in_parallel())
    for (std::size_t i = 0; i < n; ++i) {
        const V ax = alpha * x[i];
        if constexpr (detail::is_multifloat_v<V>) {
            using T = typename V::value_type;
            constexpr int N = V::num_limbs;
            simd::axpy_aos<T, N>(ax, y.data, a.row(i), m);
        } else {
            V* arow = a.row(i);
            for (std::size_t j = 0; j < m; ++j) {
                arow[j] += ax * y[j];
            }
        }
    }
}

/// C <- A B  (row-major; C is n x m, A is n x k, B is k x m)
///
/// MultiFloat views run the packed engine (engine/gemm_packed.hpp): C is
/// zeroed, then the packed engine accumulates C += A B straight from
/// the interleaved views, parallel over row blocks and micro-panel columns.
/// Every element still receives its k updates add(mul(a, b), c) in
/// kk-ascending order, so the result is bit-identical to
/// check::reference_gemm, and to gemm_packed on the same data in planar
/// form. Other number types run the ikj loop.
template <typename V>
void gemm(ConstMatrixView<V> a, ConstMatrixView<V> b, MatrixView<V> c) {
    // The one sentinel of the call: the engine entry below is unguarded and
    // learns from `enforced()` whether its workers must enforce too.
    const guard::Sentinel sentinel{"blas.gemm"};
    MF_BLAS_REQUIRE(a.rows == c.rows, "blas.gemm", "a.rows == c.rows");
    MF_BLAS_REQUIRE(a.cols == b.rows, "blas.gemm", "a.cols == b.rows");
    MF_BLAS_REQUIRE(b.cols == c.cols, "blas.gemm", "b.cols == c.cols");
    MF_BLAS_REQUIRE(a.stride >= a.cols, "blas.gemm", "a.stride >= a.cols");
    MF_BLAS_REQUIRE(b.stride >= b.cols, "blas.gemm", "b.stride >= b.cols");
    MF_BLAS_REQUIRE(c.stride >= c.cols, "blas.gemm", "c.stride >= c.cols");
    const std::size_t n = c.rows;
    const std::size_t m = c.cols;
    const std::size_t k = a.cols;
    if constexpr (detail::is_multifloat_v<V>) {
        for (std::size_t i = 0; i < n; ++i) std::fill_n(c.row(i), m, V{});
        engine::gemm_accumulate(engine::access(a), engine::access(b), engine::access(c),
                                GemmConfig{}, sentinel.enforced());
    } else {
#pragma omp parallel for schedule(static) if (n > 16 && !engine::in_parallel())
        for (std::size_t i = 0; i < n; ++i) {
            V* crow = c.row(i);
            const V* arow = a.row(i);
            for (std::size_t j = 0; j < m; ++j) crow[j] = V{};
            for (std::size_t kk = 0; kk < k; ++kk) {
                const V aik = arow[kk];
                const V* brow = b.row(kk);
                for (std::size_t j = 0; j < m; ++j) {
                    crow[j] += aik * brow[j];
                }
            }
        }
    }
}

}  // namespace mf::blas
