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
// backend; elementwise kernels end on one masked partial pack, reductions
// on a scalar tail) instead of relying on the auto-vectorizer. The
// `if constexpr` split keeps a single kernel entry
// point per operation, so all existing call sites -- including ones that
// pass the element type explicitly, e.g. dot<Float64x2>(...) -- get the
// pack path for free.
//
// Parallelism: every kernel that can split its work hands it to
// engine::parallel_for (engine/threading.hpp) with the call's multiply-add
// count -- rows for GEMV and GER (ij order), row blocks of the generic ikj
// GEMM, contiguous ranges for AXPY and SCAL. That one helper owns the
// decision to fork: below engine::kCallForkMadds the body runs inline on the
// calling thread, so a small call costs its arithmetic plus the sentinel;
// above it the engine's worker team splits the ranges, serially when the
// caller is already inside a parallel region or the team is busy. DOT reduces fixed 2048-element chunks in
// chunk order, so its bits depend on neither the team size nor the order in
// which workers finish. MultiFloat GEMM runs the packed engine
// (engine/gemm_packed.hpp) instead.
//
// Robustness (DESIGN.md §12): every view entry point opens a guard::Sentinel
// (FP-environment check, MF_GUARD_POLICY-driven); a kernel that forks passes
// the sentinel's enforced() on, so under `enforce` its workers run in the
// nominal environment too. MF_BLAS_REQUIRE shape/stride validation is
// compiled in under the MF_BOUNDS_CHECK CMake option only.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <vector>

#include "../guard/policy.hpp"
#include "../mf/multifloat.hpp"
#include "../simd/dispatch.hpp"
#include "engine/gemm_packed.hpp"
#include "views.hpp"

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
    const guard::Sentinel sentinel{"blas.axpy"};
    MF_BLAS_REQUIRE(x.size == y.size, "blas.axpy", "x.size == y.size");
    engine::parallel_for(
        x.size, x.size,
        [&](std::size_t lo, std::size_t hi) {
            if constexpr (detail::is_multifloat_v<V>) {
                simd::axpy(alpha, simd::aos(x.data + lo), simd::aos(y.data + lo), hi - lo);
            } else {
                for (std::size_t i = lo; i < hi; ++i) y[i] += alpha * x[i];
            }
        },
        sentinel.enforced());
}

namespace detail {

/// Elements per DOT partial: a fixed chunking (not a per-worker one) keeps
/// the reduction tree independent of the team size.
inline constexpr std::size_t kDotChunk = 2048;

/// Shortest MultiFloat vector blas::iamax hands to the lane kernel. The
/// lanes' merge costs a fixed 65-170 ns and the scalar loop 5-8 ns an
/// element on random data: the two cross at 16-18 elements, and from 18 on
/// the lanes are no slower on SSE2, AVX2 or AVX-512 (EXPERIMENTS.md, "Short
/// BLAS calls at full-pack cost").
inline constexpr std::size_t kIamaxLaneMin = 18;

/// V{} + part(c0) + part(c1) + ..., added in chunk order, where part(c) =
/// chunk_sum(lo, hi) over the c-th kDotChunk elements of [0, n). Serial,
/// nested and forked runs share the chunks and the order, so all of them
/// return the same bits.
template <typename V, typename F>
[[nodiscard]] V chunked_sum(std::size_t n, const F& chunk_sum, bool nominal_env) {
    V acc{};
    if (n <= kDotChunk) {
        acc += chunk_sum(std::size_t{0}, n);
        return acc;
    }
    std::vector<V> part((n + kDotChunk - 1) / kDotChunk);
    engine::parallel_for(
        part.size(), n,
        [&](std::size_t c0, std::size_t c1) {
            for (std::size_t c = c0; c < c1; ++c) {
                part[c] = chunk_sum(c * kDotChunk, std::min(n, (c + 1) * kDotChunk));
            }
        },
        nominal_env);
    for (const V& p : part) acc += p;
    return acc;
}

}  // namespace detail

/// <x, y>
///
/// Eight (or pack-width) independent partial accumulators break the
/// loop-carried dependence so the (branch-free) per-element work pipelines
/// and vectorizes -- the SIMD-reduction structure the paper credits for
/// MultiFloats' DOT advantage over libraries whose operations cannot be
/// interleaved. Long vectors are reduced in fixed chunks
/// (detail::chunked_sum), so the result is the same on any team size.
template <typename V>
[[nodiscard]] V dot(ConstVectorView<V> x, ConstVectorView<V> y) {
    const guard::Sentinel sentinel{"blas.dot"};
    MF_BLAS_REQUIRE(x.size == y.size, "blas.dot", "x.size == y.size");
    const auto chunk_dot = [&](std::size_t lo, std::size_t hi) -> V {
        if constexpr (detail::is_multifloat_v<V>) {
            return simd::dot(simd::aos(x.data + lo), simd::aos(y.data + lo), hi - lo);
        } else {
            constexpr std::size_t K = 8;
            V part[K]{};
            std::size_t i = lo;
            for (; i + K <= hi; i += K) {
                for (std::size_t k = 0; k < K; ++k) part[k] += x[i + k] * y[i + k];
            }
            V acc{};
            for (std::size_t k = 0; k < K; ++k) acc += part[k];
            for (; i < hi; ++i) acc += x[i] * y[i];
            return acc;
        }
    };
    return detail::chunked_sum<V>(x.size, chunk_dot, sentinel.enforced());
}

/// y <- A x  (A row-major rows x cols; ij loop order; MultiFloat rows reduce
/// through the pack dot kernel, other types use a 4-way unrolled inner dot)
template <typename V>
void gemv(ConstMatrixView<V> a, ConstVectorView<V> x, VectorView<V> y) {
    const guard::Sentinel sentinel{"blas.gemv"};
    MF_BLAS_REQUIRE(a.cols == x.size, "blas.gemv", "a.cols == x.size");
    MF_BLAS_REQUIRE(a.rows == y.size, "blas.gemv", "a.rows == y.size");
    MF_BLAS_REQUIRE(a.stride >= a.cols, "blas.gemv", "a.stride >= a.cols");
    const std::size_t n = a.rows;
    const std::size_t m = a.cols;
    const auto row_dot = [&](std::size_t i) -> V {
        if constexpr (detail::is_multifloat_v<V>) {
            return simd::dot(simd::aos(a.row(i)), simd::aos(x.data), m);
        } else {
            constexpr std::size_t K = 4;
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
            return acc;
        }
    };
    engine::parallel_for(
        n, n * m,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) y[i] = row_dot(i);
        },
        sentinel.enforced());
}

/// x <- alpha * x  (each element x[i] * alpha, in that operand order)
template <typename V>
void scal(const V& alpha, VectorView<V> x) {
    const guard::Sentinel sentinel{"blas.scal"};
    engine::parallel_for(
        x.size, x.size,
        [&](std::size_t lo, std::size_t hi) {
            if constexpr (detail::is_multifloat_v<V>) {
                simd::scal(alpha, simd::aos(x.data + lo), hi - lo);
            } else {
                for (std::size_t i = lo; i < hi; ++i) x[i] *= alpha;
            }
        },
        sentinel.enforced());
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

/// Index of the element with the largest magnitude (0 for empty input): the
/// first i with abs(x[best]) < abs(x[i]) false for every later element, so
/// ties go to the lower index and a NaN never wins unless it is x[0].
/// MultiFloat vectors of detail::kIamaxLaneMin elements or more run the lane
/// kernel simd::kernels::iamax, which returns this loop's index; shorter
/// ones run the loop without a dispatch.
template <typename V>
[[nodiscard]] std::size_t iamax(ConstVectorView<V> x) {
    MF_GUARD_SENTINEL("blas.iamax");
    if constexpr (detail::is_multifloat_v<V>) {
        if (x.size >= detail::kIamaxLaneMin) {
            return simd::iamax(simd::aos(x.data), x.size);
        }
    }
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
    const guard::Sentinel sentinel{"blas.ger"};
    MF_BLAS_REQUIRE(a.rows == x.size, "blas.ger", "a.rows == x.size");
    MF_BLAS_REQUIRE(a.cols == y.size, "blas.ger", "a.cols == y.size");
    MF_BLAS_REQUIRE(a.stride >= a.cols, "blas.ger", "a.stride >= a.cols");
    const std::size_t n = x.size;
    const std::size_t m = y.size;
    if constexpr (detail::is_multifloat_v<V>) {
        // One backend resolve and one element count for the whole update
        // (in the AoS axpy's series: each row gets axpy(alpha x[i], y)'s
        // bits); each range of rows is then one bare rank-1 kernel.
        MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"axpy_aos\"}", n * m);
        const auto am = engine::access(a);
        simd::with_active_width<typename V::value_type>([&](auto w) {
            engine::parallel_for(
                n, n * m,
                [&](std::size_t lo, std::size_t hi) {
                    simd::kernels::ger<w()>(
                        simd::kernels::scaled(alpha, simd::aos(x.data + lo)),
                        simd::aos(y.data), decltype(am){am.row(lo), hi - lo, m, am.stride},
                        hi - lo, m);
                },
                sentinel.enforced());
        });
    } else {
        engine::parallel_for(
            n, n * m,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                    const V ax = alpha * x[i];
                    V* arow = a.row(i);
                    for (std::size_t j = 0; j < m; ++j) arow[j] += ax * y[j];
                }
            },
            sentinel.enforced());
    }
}

/// C <- A B  (row-major; C is n x m, A is n x k, B is k x m)
///
/// MultiFloat views run the packed engine (engine/gemm_packed.hpp) in its
/// overwrite mode: each work item starts its own C block from zero on the
/// first kc block, then accumulates C += A B straight from the interleaved
/// views, parallel over row blocks and micro-panel columns. C's prior
/// contents are never read, NaNs included.
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
        if (k == 0) {  // an empty sum: the engine has no kc block to zero C in
            for (std::size_t i = 0; i < n; ++i) std::fill_n(c.row(i), m, V{});
            return;
        }
        engine::gemm_accumulate(engine::access(a), engine::access(b), engine::access(c),
                                GemmConfig{}, sentinel.enforced(), /*zero_c=*/true);
    } else {
        engine::parallel_for(
            n, n * m * k,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
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
            },
            sentinel.enforced());
    }
}

}  // namespace mf::blas
