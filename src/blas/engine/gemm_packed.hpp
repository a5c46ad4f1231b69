#pragma once
// BLIS-style packed cache-blocked GEMM engine (DESIGN.md §11).
//
// C += A B with A (n x k), B (k x m), C (n x m), row-major. This is the
// library's one GEMM engine: one loop nest (engine::gemm_accumulate) serves
// both storage layouts, planar views through gemm_packed below (the only
// planar GEMM entry) and interleaved MultiFloat views through blas::gemm
// (kernels.hpp). It reads operands only through the layout
// accessors of simd/layout.hpp and never copies a whole matrix.
//
// Loop structure (outside in), following the classical
// Goto/BLIS decomposition:
//
//   jc over m in nc columns     B column-panel        (L3-resident packed)
//    pc over k in kc rows       one parallel region   (ascending: kk order)
//     pack B(pc, jc)            by the team, in kk-row slices
//     ic over n in mc rows      macro-panels           (work items, below)
//       pack A(ic, pc)          per-worker scratch     (L2-resident packed)
//       jr over nc in NR cols   packed-B micro-panel   (L1-resident)
//        ir over mc in MR rows  register micro-kernel  (microkernel.hpp)
//
// The parallel work items are the ic row blocks when there are at least as
// many as workers; otherwise each row block's jr micro-panels are also cut
// into column ranges, so small and skinny products still reach every core.
// mc is picked from the shape and the worker count so that a region holds
// several items per worker, and the workers claim them from a shared
// counter (item_rows, plan_partition and parallel_items in threading.hpp).
//
// Block sizes kc/nc, and mc's upper bound, are selected per detected
// backend at dispatch time (auto_blocks below; pack width and expansion
// length set the micro-tile footprint) and can be pinned via GemmConfig
// for experiments.
//
// Determinism/bit-identity: the pc loop ascends and the micro-kernel ascends
// kk within each pc block, so every C element sees its k updates in exactly
// check::reference_gemm's order, each update being the identical
// add(mul(.,.),.) FPAN sequence; work items partition C into disjoint (row
// block, jr column range) pieces, each run by exactly one worker, and a kc
// block's region ends before the next one starts, so no element is touched
// by two threads at once and none sees its updates out of order.
// Result: bit-identical to the scalar check::reference_gemm for every
// backend and worker count -- enforced by check::diff_gemm_packed and the
// fuzz-smoke conformance tier.

#include <algorithm>
#include <cstddef>
#include <new>

#include "../../guard/guard.hpp"
#include "../../simd/dispatch.hpp"
#include "../../telemetry/events.hpp"
#include "../planar.hpp"
#include "../views.hpp"
#include "layout.hpp"
#include "microkernel.hpp"
#include "packing.hpp"
#include "threading.hpp"

namespace mf::blas {

/// Cache-block sizes for gemm_packed; 0 = select per detected backend (mc:
/// from the shape and worker count as well, engine::item_rows).
struct BlockShape {
    std::size_t mc = 0;  ///< rows of a packed A block and work item (L2 target)
    std::size_t kc = 0;  ///< k-extent of packed A/B blocks (L1 target)
    std::size_t nc = 0;  ///< columns of a packed B panel (L3 target)
};

/// Execution knobs for gemm_packed.
struct GemmConfig {
    BlockShape blocks{};       ///< 0-fields auto-selected per backend
    unsigned max_threads = 0;  ///< worker cap; 1 = serial, 0 = engine::default_threads()
};

namespace engine {

/// Fill the zero fields of `req` with per-backend defaults. The micro-tile
/// geometry (mr x nr, from the active pack width W and expansion length N)
/// sets the footprints: kc so a packed B micro-panel (kc x nr x N limbs)
/// stays L1-resident under the A rows streaming through, mc so the packed A
/// block (mc x kc) stays L2-resident, nc so the packed B panel (kc x nc)
/// stays L3-resident. Cache targets are conservative fixed budgets (24 KiB /
/// 192 KiB / 2 MiB) rather than probed sizes: the blocks only need to be
/// comfortably inside each level, and fixed budgets keep runs reproducible
/// across machines.
template <std::floating_point T, int N>
[[nodiscard]] inline BlockShape auto_blocks(int mr, int nr, BlockShape req) {
    const std::size_t elem = sizeof(T) * static_cast<std::size_t>(N);
    BlockShape bs = req;
    if (bs.kc == 0) {
        const std::size_t kc = (24u * 1024u) / (static_cast<std::size_t>(nr) * elem);
        bs.kc = std::clamp<std::size_t>(kc, 32, 512);
    }
    if (bs.mc == 0) {
        std::size_t mc = (192u * 1024u) / (bs.kc * elem);
        mc -= mc % static_cast<std::size_t>(mr);
        bs.mc = std::clamp<std::size_t>(mc, static_cast<std::size_t>(mr), 512);
    }
    if (bs.nc == 0) {
        std::size_t nc = (2u * 1024u * 1024u) / (bs.kc * elem);
        nc -= nc % static_cast<std::size_t>(nr);
        bs.nc = std::clamp<std::size_t>(nc, static_cast<std::size_t>(nr), 8192);
    }
    return bs;
}

namespace detail {

/// Sequential unpacked fallback over layout accessors: after zeroing C when
/// `zero_c`, C takes one kernels::ger per kk, c_ij += a_ik b_kj -- the
/// kk-ascending add(mul(a_ik, b_kj), c_ij) of every element, ending on one
/// partial pack. Bit-identical to the packed loop nest for every layout
/// and pack width -- which is why gemm_accumulate may switch to this path
/// when panel scratch cannot be allocated without changing a single result
/// bit.
template <typename AAccess, typename BAccess, typename CAccess>
void gemm_unpacked(const AAccess& a, const BAccess& b, const CAccess& c, bool zero_c) {
    using T = typename CAccess::value_type;
    if (zero_c) {
        for (std::size_t i = 0; i < c.rows; ++i) {
            for (std::size_t j = 0; j < c.cols; ++j) c.row(i).set(j, {});
        }
    }
    simd::with_active_width<T>([&](auto w) {
        for (std::size_t kk = 0; kk < a.cols; ++kk) {
            simd::kernels::ger<w()>(simd::kernels::column(a, kk), b.row(kk), c, c.rows, c.cols);
        }
    });
}

}  // namespace detail

/// The packed loop nest: C += A B over layout accessors (layout.hpp), so the
/// same code runs planar and AoS operands; with `zero_c`, C = A B: each work
/// item starts its own C block from zero on the first kc block (blas::gemm's
/// overwrite, with no serial zeroing pass and no read of C's prior
/// contents). k must then be nonzero, or no item runs. Unguarded: the
/// public entries (gemm_packed below, blas::gemm) own the FP-environment
/// sentinel and pass `nominal_env` = whether it enforced, so the workers
/// enforce too.
///
/// Robustness (DESIGN.md §12): ALL panel scratch -- the shared B panel plus
/// one A block per worker slot -- is reserved before any C element is
/// written, and reservation failure degrades to detail::gemm_unpacked
/// (bit-identical, counted as mf_guard_degraded_total{path="alloc"}).
/// Nothing allocates after that: every block extent is bounded by the
/// reserved worst case.
template <typename AAccess, typename BAccess, typename CAccess>
void gemm_accumulate(const AAccess& a, const BAccess& b, const CAccess& c,
                     const GemmConfig& cfg = {}, bool nominal_env = false,
                     bool zero_c = false) {
    using T = typename CAccess::value_type;
    constexpr int N = CAccess::limbs;
    const std::size_t n = c.rows;
    const std::size_t m = c.cols;
    const std::size_t k = a.cols;
    if (n == 0 || m == 0 || k == 0) return;
    // One backend resolve per call; everything below runs width-templated.
    simd::with_active_width<T>([&](auto w) {
        constexpr int W = w();
        using MK = MicroKernel<T, N, W>;
        constexpr auto MR = static_cast<std::size_t>(MK::MR);
        constexpr auto NR = static_cast<std::size_t>(MK::NR);
        const BlockShape bs = auto_blocks<T, N>(MK::MR, MK::NR, cfg.blocks);
        const std::size_t panels = (std::min(bs.nc, m) + NR - 1) / NR;
        const std::size_t tiles = (n + MR - 1) / MR * panels;
        const std::size_t tile_madds = MR * NR * std::min(bs.kc, k);
        // An auto mc cuts the rows into several items per worker the work
        // can keep busy, and the plan forks no more workers than that. A
        // pinned mc is taken as given, and its ic-only plan forks a worker
        // per row block up to the cap: tiny pinned blocks are how the fault
        // matrix forces spawns on a small product (check/robustness.hpp).
        const bool pinned = cfg.blocks.mc != 0;
        const unsigned nw = fork_workers(tiles, tile_madds, cfg.max_threads);
        const std::size_t mc = pinned ? bs.mc : item_rows(n, MR, bs.mc, nw);
        const std::size_t row_blocks = (n + mc - 1) / mc;
        const Partition plan = plan_partition(row_blocks, panels, tiles, tile_madds,
                                              pinned ? cfg.max_threads : nw);
        // Pack scratch: the shared B panel, then one A block per worker slot,
        // each padded to whole cache lines, in the calling thread's one
        // scratch block (thread_scratch), which later calls reuse.
        constexpr std::size_t line = AlignedBuffer<T>::alignment / sizeof(T);
        const auto lines = [](std::size_t len) { return (len + line - 1) / line * line; };
        const std::size_t b_len = lines(static_cast<std::size_t>(N) * std::min(bs.kc, k) *
                                        std::min(bs.nc, m));
        const std::size_t a_len = lines(static_cast<std::size_t>(N) * std::min(mc, n) *
                                        std::min(bs.kc, k));
        AlignedBuffer<T>& scratch = thread_scratch<T>();
        try {
            // Reserve the worst-case footprint up front. C is untouched
            // until this succeeds, so a bad_alloc here (real or injected)
            // can still choose a different execution strategy.
            scratch.ensure(b_len + plan.workers * a_len);
        } catch (const std::bad_alloc&) {
            MF_TELEM_COUNT_N("mf_guard_degraded_total{path=\"alloc\"}", 1);
            detail::gemm_unpacked(a, b, c, zero_c);
            return;
        }
        T* const bbuf = scratch.data();
        for (std::size_t jc = 0; jc < m; jc += bs.nc) {
            const std::size_t ncb = std::min(bs.nc, m - jc);
            const std::size_t jpanels = (ncb + NR - 1) / NR;
            const std::size_t splits = std::min(plan.col_splits, jpanels);
            for (std::size_t pc = 0; pc < k; pc += bs.kc) {
                const std::size_t kcb = std::min(bs.kc, k - pc);
                const bool fresh = zero_c && pc == 0;
                const T* bpk[N];
                for (int p = 0; p < N; ++p) {
                    bpk[p] = bbuf + static_cast<std::size_t>(p) * kcb * ncb;
                }
                // The workers pack B in kk-row slices, then claim items;
                // no item starts before the whole panel is packed.
                const std::size_t slices = std::min<std::size_t>(plan.workers, kcb);
                // Fault-injection checkpoint: a mid-call environment flip
                // lands here; the sentinel's exit probe must notice it.
                guard::inject::maybe_perturb_env();
                parallel_items(
                    slices,
                    [&](std::size_t s) {
                        pack_b(b, pc, jc, kcb, ncb, kcb * s / slices, kcb * (s + 1) / slices,
                               bbuf);
                    },
                    row_blocks * splits,
                    [&](std::size_t item, unsigned slot) {
                        MF_TELEM_SPAN_TIMED("gemm_macro_panel",
                                            "mf_gemm_macro_panel_ns");
                        const std::size_t ib = item / splits;
                        const std::size_t sp = item % splits;
                        const std::size_t ic = ib * mc;
                        const std::size_t mcb = std::min(mc, n - ic);
                        // Pre-reserved per-slot scratch: allocation-free.
                        const T* apk[N];
                        pack_a(a, ic, pc, mcb, kcb, bbuf + b_len + slot * a_len, apk);
                        const std::size_t jr0 = NR * (jpanels * sp / splits);
                        const std::size_t jr1 =
                            std::min(ncb, NR * (jpanels * (sp + 1) / splits));
                        for (std::size_t jr = jr0; jr < jr1; jr += NR) {
                            const std::size_t nrb = std::min(NR, ncb - jr);
                            const T* bpt[N];
                            for (int p = 0; p < N; ++p) bpt[p] = bpk[p] + jr;
                            for (std::size_t ir = 0; ir < mcb; ir += MR) {
                                const std::size_t mrb = std::min(MR, mcb - ir);
                                const T* apt[N];
                                for (int p = 0; p < N; ++p) apt[p] = apk[p] + ir * kcb;
                                MF_TELEM_COUNT("mf_gemm_microkernel_total");
                                if (mrb == MR && nrb == NR) {
                                    MK::full(apt, kcb, bpt, ncb, c, ic + ir, jc + jr, kcb,
                                             fresh);
                                } else {
                                    MK::edge(apt, kcb, bpt, ncb, c, ic + ir, jc + jr, kcb,
                                             mrb, nrb, fresh);
                                }
                            }
                        }
                    },
                    plan.workers, nominal_env);
            }
        }
    });
}

}  // namespace engine

/// C += A B through packed panels and the register-blocked micro-kernel,
/// planar views. Bit-identical to check::reference_gemm (see file header);
/// degenerate shapes (any zero dimension) are no-ops. The entry point
/// carries an FP-environment sentinel (MF_GUARD_POLICY decides
/// detect/enforce behavior) and, under MF_BOUNDS_CHECK, the same shape and
/// stride validation as blas::gemm (DESIGN.md §12).
template <FloatingPoint T, int N>
void gemm_packed(planar::ConstMatrixView<T, N> a, planar::ConstMatrixView<T, N> b,
                 planar::MatrixView<T, N> c, const GemmConfig& cfg = {}) {
    MF_BLAS_REQUIRE(a.rows == c.rows, "blas.gemm_packed", "a.rows == c.rows");
    MF_BLAS_REQUIRE(a.cols == b.rows, "blas.gemm_packed", "a.cols == b.rows");
    MF_BLAS_REQUIRE(b.cols == c.cols, "blas.gemm_packed", "b.cols == c.cols");
    MF_BLAS_REQUIRE(a.stride >= a.cols, "blas.gemm_packed", "a.stride >= a.cols");
    MF_BLAS_REQUIRE(b.stride >= b.cols, "blas.gemm_packed", "b.stride >= b.cols");
    MF_BLAS_REQUIRE(c.stride >= c.cols, "blas.gemm_packed", "c.stride >= c.cols");
    if (c.rows == 0 || c.cols == 0 || a.cols == 0) return;
    const guard::Sentinel sentinel{"blas.gemm_packed"};
    engine::gemm_accumulate(engine::access(a), engine::access(b), engine::access(c), cfg,
                            sentinel.enforced());
}

/// All-mutable-view overload: template deduction cannot cross the
/// MatrixView -> ConstMatrixView conversion, so the common case of freshly
/// built (mutable) views gets its own forwarder.
template <FloatingPoint T, int N>
void gemm_packed(planar::MatrixView<T, N> a, planar::MatrixView<T, N> b,
                 planar::MatrixView<T, N> c, const GemmConfig& cfg = {}) {
    gemm_packed<T, N>(planar::ConstMatrixView<T, N>(a),
                      planar::ConstMatrixView<T, N>(b), c, cfg);
}

}  // namespace mf::blas
