#pragma once
// Blocked/tiled GEMM driver on top of the pack kernels: the multicore x SIMD
// combination (cf. Verschelde, "Multiword Arithmetic and Parallel Computing")
// layered over the planar layout.
//
// C += A B with A (n x k), B (k x m), C (n x m), all planar row-major views.
// The iteration space is partitioned into (ti x tj) output tiles with the
// k dimension blocked by tk; within a tile the update is the ikj-order
// fused multiply-add sweep c[i, j0:j1] += a[i,kk] * b[kk, j0:j1], executed
// by the dispatched pack fma_range.
//
// Determinism: for every output element c[i, j] the kk updates execute in
// ascending order exactly as in planar::gemm (tiles only re-group the i/j
// dimensions and split kk into ascending blocks), and OpenMP threads
// partition whole row-tiles, so each c element is owned by one thread. The
// tiled result is therefore bit-identical to planar::gemm, threaded or not
// (tests/simd_kernel_test.cpp asserts this).
//
// Degenerate shapes are no-ops: any zero dimension returns immediately, and
// tile dims larger than the matrix clamp to a single tile (the loop bounds
// take min() everywhere), so there is no UB to hit
// (tests/blas_views_test.cpp regression-tests both).
//
// Nested parallelism: the omp parallel-for is suppressed when already inside
// a parallel region (blas::engine::in_parallel, the guard every parallel
// region in the library uses), so composing this GEMM with parallel
// callers cannot oversubscribe.
//
// For large problems prefer mf::blas::gemm_packed (blas/engine/), which adds
// BLIS-style packing and a register-blocked micro-kernel on top of the same
// determinism contract.

#include <cstddef>

#include "../blas/engine/threading.hpp"
#include "../blas/planar.hpp"
#include "../telemetry/events.hpp"
#include "dispatch.hpp"

namespace mf::simd {

/// Tile shape: rows x columns of one C tile, and the k-block length.
/// Defaults keep one tile's working set (a-block + b-block + c-tile) inside
/// a few hundred KiB of L2 for double x N<=4.
struct TileShape {
    std::size_t ti = 32;
    std::size_t tj = 256;
    std::size_t tk = 64;
};

/// C += A B, planar views, tiled, OpenMP-parallel over row-tiles.
template <FloatingPoint T, int N>
void gemm_tiled(planar::ConstMatrixView<T, N> a, planar::ConstMatrixView<T, N> b,
                planar::MatrixView<T, N> c, TileShape tile = {}) {
    const std::size_t n = c.rows;
    const std::size_t m = c.cols;
    const std::size_t k = a.cols;
    if (n == 0 || m == 0 || k == 0) return;  // degenerate: nothing to update
    const std::size_t ti = tile.ti ? tile.ti : 1;
    const std::size_t tj = tile.tj ? tile.tj : 1;
    const std::size_t tk = tile.tk ? tile.tk : 1;
    const std::size_t n_itiles = (n + ti - 1) / ti;
    // Backend dispatch hoisted out of the tile loops (one resolve per call,
    // not one per fma sweep).
    with_active_width<T>([&](auto w) {
#pragma omp parallel for schedule(static) \
    if (n_itiles > 1 && !blas::engine::in_parallel())
        for (std::size_t it = 0; it < n_itiles; ++it) {
            // One span per row-tile per worker thread: the chrome trace of
            // these is the GEMM's load-imbalance picture, and the latency
            // histogram its tile-cost distribution. Telemetry-off builds
            // compile both lines away.
            MF_TELEM_SPAN_TIMED("gemm_row_tile", "mf_gemm_tile_ns");
            MF_TELEM_COUNT("mf_gemm_tiles_total");
            const std::size_t i1 = (it * ti + ti < n) ? it * ti + ti : n;
            for (std::size_t j0 = 0; j0 < m; j0 += tj) {
                const std::size_t j1 = (j0 + tj < m) ? j0 + tj : m;
                for (std::size_t k0 = 0; k0 < k; k0 += tk) {
                    const std::size_t k1 = (k0 + tk < k) ? k0 + tk : k;
                    for (std::size_t i = it * ti; i < i1; ++i) {
                        T* crow[N];
                        for (int p = 0; p < N; ++p) crow[p] = c.row(p, i);
                        for (std::size_t kk = k0; kk < k1; ++kk) {
                            MultiFloat<T, N> aik;
                            for (int p = 0; p < N; ++p) aik.limb[p] = a.row(p, i)[kk];
                            const T* brow[N];
                            for (int p = 0; p < N; ++p) brow[p] = b.row(p, kk);
                            kernels::fma_range<T, N, w()>(aik, brow, crow, j0, j1);
                        }
                    }
                }
            }
        }
    });
}

/// All-mutable-view overload: template deduction cannot cross the
/// MatrixView -> ConstMatrixView conversion, so the common case of freshly
/// built (mutable) views gets its own forwarder.
template <FloatingPoint T, int N>
void gemm_tiled(planar::MatrixView<T, N> a, planar::MatrixView<T, N> b,
                planar::MatrixView<T, N> c, TileShape tile = {}) {
    gemm_tiled<T, N>(planar::ConstMatrixView<T, N>(a),
                     planar::ConstMatrixView<T, N>(b), c, tile);
}

/// Deprecated pre-view signature: positional sizes over whole planar Vectors.
template <FloatingPoint T, int N>
[[deprecated("use gemm_tiled(planar::ConstMatrixView, planar::ConstMatrixView, planar::MatrixView)")]]
void gemm_tiled(const planar::Vector<T, N>& a, const planar::Vector<T, N>& b,
                planar::Vector<T, N>& c, std::size_t n, std::size_t k,
                std::size_t m, TileShape tile = {}) {
    gemm_tiled<T, N>(planar::ConstMatrixView<T, N>(a, n, k),
                     planar::ConstMatrixView<T, N>(b, k, m),
                     planar::MatrixView<T, N>(c, n, m), tile);
}

}  // namespace mf::simd
