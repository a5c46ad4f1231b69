#pragma once
// Register-blocked mr x nr GEMM micro-kernel over packed panels
// (DESIGN.md §11).
//
// One invocation computes C[0:mr, 0:nr] += A(0:mr, 0:kc) * B(0:kc, 0:nr)
// with the C micro-tile held in MultiFloat<Pack<T, W>, N> accumulators for
// the whole kc sweep: C traffic drops from one load+store per kk (an axpy
// sweep's cost) to one load+store per kc, packed-B rows are loaded once per
// kk and reused across all mr rows, and the mr x nrp independent
// accumulation chains give the out-of-order core far more exploitable ILP
// than a single axpy's one-chain-per-pack.
//
// The tile lives in registers only if the compiler scalarizes acc[MR][NRP],
// so every fixed-trip loop of full() is unrolled. With a rolled r loop GCC
// keeps acc in a stack array, and each kk step loads and stores all of it
// on the dependent add chain; unrolled, a Float64x2 kk step on AVX-512 is
// 8 madds of 29 vector FP ops each and no stack reference. N = 4 spills a
// few temporaries even so, and still runs faster unrolled (DESIGN.md §11).
//
// Bit-identity argument: every output element receives exactly the update
// check::reference_gemm applies -- add(mul(a_ik, b_kj), c_ij), the identical
// FPAN gate sequence, in the identical kk-ascending order. Holding the
// partial result in a register instead of storing/reloading it through the
// C plane does not change any arithmetic, and pack lanes execute the same
// IEEE ops as scalars (pack.hpp), so the packed result is bit-for-bit the
// reference's (enforced by check::diff_gemm_packed /
// tests/gemm_threads_test.cpp).
//
// C is reached only through a layout accessor (simd/layout.hpp), so the same
// kernel serves planar and AoS matrices: a full tile loads and stores its
// MR x NR block once per kc sweep, and never otherwise touches C. With
// `fresh` set (the first kc block of an overwriting blas::gemm) the tile
// starts from zero instead of loading C, so C's prior contents are never
// read -- the same updates reference_gemm applies to its zero start.
//
// Edge tiles (rows < mr from the last row block, cols < nr from the last
// column block) drop to one kernels::ger rank-1 update per kk over the packed
// panels -- a different loop shape but, per element, the same kk-ascending
// updates, so identity holds at the edges too.

#include <cstddef>

#include "../../mf/multifloat.hpp"
#include "../../simd/kernels.hpp"
#include "../../simd/layout.hpp"
#include "../../simd/pack.hpp"
#include "../../telemetry/events.hpp"

namespace mf::blas::engine {

/// Micro-kernel geometry and bodies for one (T, N, W) instantiation.
template <std::floating_point T, int N, int W>
struct MicroKernel {
    using P = simd::Pack<T, W>;

    /// Rows per micro-tile: four independent accumulation chains per pack
    /// column -- enough ILP to cover the FPAN networks' dependent-add
    /// latency without exhausting architectural registers.
    static constexpr int MR = 4;
    /// Packs per micro-tile row. Two for short expansions when the register
    /// file allows it (AVX-512's 32 registers, or scalar packs where
    /// "registers" are the compiler's problem); one otherwise -- N=3/4
    /// accumulators already occupy MR*N registers.
    static constexpr int NRP = (N <= 2 && (W >= 8 || W == 1)) ? 2 : 1;
    /// Columns per micro-tile.
    static constexpr int NR = NRP * W;

    /// Full tile: C[i0:i0+MR, j0:j0+NR] += A(0:MR, 0:kc) * B(0:kc, 0:NR),
    /// or = when `fresh` (the tile starts from zero, C is not read).
    /// ap[p]: packed A plane p at the tile's row origin, row stride lda (=kc);
    /// bp[p]: packed B plane p at the tile's column origin, row stride ldb;
    /// c: layout accessor of C (layout.hpp), read and written only here.
    template <typename CAccess>
    static void full(const T* const (&ap)[N], std::size_t lda,
                     const T* const (&bp)[N], std::size_t ldb, const CAccess& c,
                     std::size_t i0, std::size_t j0, std::size_t kc, bool fresh) {
        // Unrolled throughout so acc stays in registers (see file header).
        MultiFloat<P, N> acc[MR][NRP];
        if (!fresh) {
#pragma GCC unroll 4
            for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
                for (int q = 0; q < NRP; ++q) {
                    acc[r][q] = c.row(i0 + static_cast<std::size_t>(r))
                                    .template load<P>(j0 + static_cast<std::size_t>(q) * W);
                }
            }
        }
        for (std::size_t kk = 0; kk < kc; ++kk) {
            MultiFloat<P, N> bv[NRP];
#pragma GCC unroll 2
            for (int q = 0; q < NRP; ++q) {
#pragma GCC unroll 4
                for (int p = 0; p < N; ++p) {
                    bv[q].limb[p] = P::load(bp[p] + kk * ldb + q * W);
                }
            }
#pragma GCC unroll 4
            for (int r = 0; r < MR; ++r) {
                MultiFloat<T, N> a_s;
#pragma GCC unroll 4
                for (int p = 0; p < N; ++p) {
                    a_s.limb[p] = ap[p][static_cast<std::size_t>(r) * lda + kk];
                }
                const MultiFloat<P, N> av = simd::kernels::broadcast<P, T, N>(a_s);
#pragma GCC unroll 2
                for (int q = 0; q < NRP; ++q) {
                    acc[r][q] = add(mul(av, bv[q]), acc[r][q]);
                }
            }
        }
#pragma GCC unroll 4
        for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
            for (int q = 0; q < NRP; ++q) {
                c.row(i0 + static_cast<std::size_t>(r))
                    .store(j0 + static_cast<std::size_t>(q) * W, acc[r][q]);
            }
        }
    }

    /// Partial tile (rows <= MR, cols <= NR, at least one of them short):
    /// the C tile (zeros when `fresh`) is staged in a planar scratch tile,
    /// takes one kernels::ger per kk, kk ascending (column kk of the packed
    /// A block times row kk of the packed B panel), and is written back --
    /// same per-element update sequence, memory-accumulated, any layout.
    /// The updates count their elements in the planar axpy's series,
    /// mf_simd_kernel_ops_total{kernel="fma_range"}, once per tile.
    template <typename CAccess>
    static void edge(const T* const (&ap)[N], std::size_t lda,
                     const T* const (&bp)[N], std::size_t ldb, const CAccess& c,
                     std::size_t i0, std::size_t j0, std::size_t kc,
                     std::size_t rows, std::size_t cols, bool fresh) {
        MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"fma_range\"}", rows * kc * cols);
        T tile[N][MR * NR];
        simd::Planar<T, N> stage;
        for (int p = 0; p < N; ++p) stage.planes[p] = tile[p];
        for (std::size_t r = 0; r < rows; ++r) {
            const auto crow = c.row(i0 + r) + j0;
            for (std::size_t j = 0; j < cols; ++j) {
                stage.set(r * NR + j, fresh ? MultiFloat<T, N>{} : crow.get(j));
            }
        }
        const simd::Matrix<simd::Planar<const T, N>> apm{simd::planar(ap), rows, kc, lda};
        const simd::Matrix<simd::Planar<T, N>> tilem{stage, rows, cols, NR};
        for (std::size_t kk = 0; kk < kc; ++kk) {
            simd::kernels::ger<W>(simd::kernels::column(apm, kk), simd::planar(bp) + kk * ldb,
                                  tilem, rows, cols);
        }
        for (std::size_t r = 0; r < rows; ++r) {
            const auto crow = c.row(i0 + r) + j0;
            for (std::size_t j = 0; j < cols; ++j) crow.set(j, stage.get(r * NR + j));
        }
    }
};

}  // namespace mf::blas::engine
