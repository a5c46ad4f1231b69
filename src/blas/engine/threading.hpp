#pragma once
// Static owner-computes parallelism for the packed GEMM engine
// (DESIGN.md §11) and, through parallel_for, for the level-1/2 blas::
// kernels, with graceful degradation (DESIGN.md §12).
//
// gemm_packed parallelizes over work items: an mc-row block of C, or (when
// there are fewer row blocks than workers) one column range of jr
// micro-panels within a row block -- plan_partition below derives which
// from the shape. Each worker owns a contiguous range of whole items
// ("owner-computes"), so every C element is written by exactly one thread
// and the kk-ascending update order per element is untouched -- the result
// is bit-identical to the sequential run for ANY worker count, which is
// what the conformance differ enforces (check::diff_gemm_packed).
//
// Two execution substrates behind one entry point:
//   * OpenMP (when compiled in): one parallel region per call, same
//     omp_in_parallel() guard discipline as every other parallel region in
//     this codebase -- called from inside an existing region we run serially
//     instead of oversubscribing with nested teams;
//   * a std::thread fallback pool, used when OpenMP is not compiled in, or
//     on request (ThreadMode::pool) so OpenMP builds can still exercise and
//     differential-test the fallback path.
// Workers are forked per call; plan_partition (GEMM) and parallel_for
// (level-1/2 kernels) never fork for less work than the fork costs, and a
// persistent pool would be one more global to tear down.
//
// FP environment: a caller whose guard sentinel enforced a nominal
// environment asks for `nominal_env`, and every worker other than the
// calling thread then installs guard::ScopedFpEnv around its range -- a
// pooled OpenMP thread keeps whatever rounding mode it last ran under, so
// the caller's repaired environment does not reach it by itself.
//
// Degradation contract: a std::thread construction that throws
// std::system_error (pthread limit, cgroup cap, or an injected fault) is
// ABSORBED, never propagated -- already-spawned workers keep their ranges,
// the calling thread picks up every unowned block, and a
// mf_guard_degraded_total{path="thread"} counter records the event. Because
// ownership stays a partition of [0, nblocks) and per-block work is
// unchanged, the degraded run is bit-identical to the healthy one.

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "../../guard/fp_env.hpp"
#include "../../guard/inject.hpp"
#include "../../telemetry/events.hpp"

namespace mf::blas::engine {

/// How parallel_blocks_slots executes its workers.
enum class ThreadMode {
    automatic,  ///< OpenMP when compiled in, std::thread pool otherwise
    pool,       ///< force the std::thread pool (testable in OpenMP builds)
    serial,     ///< no worker threads at all
};

/// True when already executing inside an OpenMP parallel region. Every
/// parallel region in the library (engine, blas:: kernels) checks this and
/// runs serially instead of oversubscribing with nested teams.
inline bool in_parallel() noexcept {
#if defined(_OPENMP)
    return omp_in_parallel() != 0;
#else
    return false;
#endif
}

/// Worker count the runtime would grant right now (OpenMP's max_threads or
/// hardware_concurrency).
[[nodiscard]] inline unsigned default_threads() noexcept {
#if defined(_OPENMP)
    return static_cast<unsigned>(omp_get_max_threads());
#else
    const unsigned hc = std::thread::hardware_concurrency();
    return hc ? hc : 1u;
#endif
}

/// Worker count parallel_blocks_slots would PLAN for this call -- an upper bound
/// on the slot index fn will ever see, so callers can pre-size per-slot
/// scratch before entering the parallel region. (The granted team can be
/// smaller; slots are always < the planned count.)
[[nodiscard]] inline unsigned planned_workers(std::size_t nblocks,
                                              ThreadMode mode = ThreadMode::automatic,
                                              unsigned max_threads = 0) noexcept {
    unsigned nw = max_threads ? max_threads : default_threads();
    if (nw > nblocks) nw = static_cast<unsigned>(nblocks);
    if (mode == ThreadMode::serial || in_parallel() || nw <= 1) return 1;
    return nw;
}

/// Shape-derived work split of one packed-GEMM macro-iteration: C's
/// `row_blocks` mc-row blocks, each cut into `col_splits` ranges of jr
/// micro-panels, give row_blocks * col_splits work items; item
/// `ib * col_splits + s` is column range s of row block ib.
struct Partition {
    std::size_t row_blocks = 1;
    std::size_t col_splits = 1;  ///< 1 = the ic-only partition
    unsigned workers = 1;        ///< planned worker slots (see planned_workers)

    [[nodiscard]] std::size_t items() const noexcept { return row_blocks * col_splits; }
};

/// Multiply-adds one worker must receive before forking it pays. On a
/// 4-core AVX-512 Xeon (bench_gemm prints the fork/join line), an empty
/// engine region costs about 2 us at 4 workers, and 16384 madds are about
/// 20 us of one worker's micro-kernel time (Float64x2, 1.2 ns/madd): ten
/// fork/joins. A plan with fewer workers still forks the full team
/// (parallel_blocks_slots), so no region pays for re-created threads.
inline constexpr std::size_t kForkMadds = 16384;

/// Plan the split for `row_blocks` row blocks of `panels` jr micro-panels
/// each, `tiles` micro-tiles in all, each tile worth `tile_madds`.
///
///  * Row blocks fill the workers: keep the ic-only partition (one item per
///    row block, planned_workers of them) -- large products are untouched.
///  * Otherwise add workers up to the runtime cap, but never so many that
///    one gets fewer micro-tiles than kForkMadds buys, and never fewer than
///    the ic-only plan had. Each row block is cut into
///    workers / gcd(row_blocks, workers) column ranges (at most one per
///    micro-panel), so the item count is a multiple of the workers and the
///    static partition stays balanced.
[[nodiscard]] inline Partition plan_partition(std::size_t row_blocks, std::size_t panels,
                                              std::size_t tiles, std::size_t tile_madds,
                                              ThreadMode mode = ThreadMode::automatic,
                                              unsigned max_threads = 0) noexcept {
    Partition plan{row_blocks, 1, planned_workers(row_blocks, mode, max_threads)};
    if (mode == ThreadMode::serial || in_parallel()) return plan;
    const unsigned cap = max_threads ? max_threads : default_threads();
    if (cap <= row_blocks) return plan;
    const std::size_t min_tiles = (kForkMadds + tile_madds - 1) / tile_madds;
    const std::size_t nw = std::min<std::size_t>(cap, tiles / min_tiles);
    if (nw <= row_blocks) return plan;
    plan.col_splits = std::min(nw / std::gcd(row_blocks, nw), panels);
    plan.workers = static_cast<unsigned>(std::min(nw, plan.items()));
    return plan;
}

namespace detail {

/// Blocks owned by worker `w` of `nw`: the contiguous range
/// [nblocks*w/nw, nblocks*(w+1)/nw) -- the same static partition for both
/// substrates, so OpenMP and pool runs even share their work assignment.
///
/// Spawn failure is absorbed here: if constructing worker `w` throws
/// std::system_error, workers [1, w) run their ranges as planned and the
/// calling thread (slot 0) covers its own range plus everything from w's
/// range onward. Join-before-return holds on every path.
template <typename F>
void run_pool(unsigned nw, std::size_t nblocks, F&& fn, bool nominal_env) {
    std::vector<std::thread> workers;
    workers.reserve(nw - 1);
    unsigned spawned = nw;  // workers with a live owner, caller included
    try {
        for (unsigned w = 1; w < nw; ++w) {
            if (guard::inject::should_fail_spawn()) {
                throw std::system_error(
                    std::make_error_code(std::errc::resource_unavailable_try_again),
                    "mf::guard injected thread-spawn fault");
            }
            workers.emplace_back([&fn, w, nw, nblocks, nominal_env] {
                std::optional<guard::ScopedFpEnv> env;
                if (nominal_env) env.emplace();
                const std::size_t lo = nblocks * w / nw;
                const std::size_t hi = nblocks * (w + 1) / nw;
                for (std::size_t blk = lo; blk < hi; ++blk) fn(blk, w);
            });
        }
    } catch (const std::system_error&) {
        spawned = static_cast<unsigned>(workers.size()) + 1;
        MF_TELEM_COUNT_N("mf_guard_degraded_total{path=\"thread\"}", 1);
    }
    const std::size_t hi0 = nblocks / nw;  // worker 0 = the calling thread
    for (std::size_t blk = 0; blk < hi0; ++blk) fn(blk, 0u);
    // Orphaned ranges (spawn failed): run on the calling thread, slot 0 --
    // its scratch is free again once its own range is done.
    for (std::size_t blk = nblocks * spawned / nw; blk < nblocks; ++blk) {
        fn(blk, 0u);
    }
    for (auto& t : workers) t.join();
}

}  // namespace detail

/// Run fn(block, slot) for every block in [0, nblocks), statically
/// partitioned over up to max_threads workers (0 = runtime default). `slot`
/// identifies the executing worker, 0 <= slot < planned_workers(...): stable
/// per worker within one call, so fn can index pre-allocated per-worker
/// scratch. Serializes when nested inside an existing OpenMP parallel
/// region; absorbs thread-spawn failure by running orphaned blocks on the
/// calling thread (see run_pool). With `nominal_env`, every worker but the
/// calling thread runs its blocks under guard::ScopedFpEnv.
///
/// Under OpenMP a plan for fewer workers than the runtime's default team
/// still forks that whole team and leaves the surplus threads idle. libgomp
/// retires the pool threads a smaller team does not use and creates new
/// ones for the next larger region. In a blocked LU solve that alternation
/// ended and created two threads per solve, and the solve's tail latency
/// then followed the host's load (EXPERIMENTS.md, "One team size").
template <typename F>
void parallel_blocks_slots(std::size_t nblocks, F&& fn,
                           ThreadMode mode = ThreadMode::automatic,
                           unsigned max_threads = 0, bool nominal_env = false) {
    const unsigned nw = planned_workers(nblocks, mode, max_threads);
    if (nw <= 1) {
        for (std::size_t blk = 0; blk < nblocks; ++blk) fn(blk, 0u);
        return;
    }
    if (mode == ThreadMode::pool) {
        detail::run_pool(nw, nblocks, std::forward<F>(fn), nominal_env);
        return;
    }
#if defined(_OPENMP)
#pragma omp parallel num_threads(static_cast<int>(std::max(nw, default_threads())))
    {
        // Partition over the first min(nw, granted) threads (the runtime
        // can grant fewer than asked); the result does not depend on it --
        // only the work assignment does. The rest of the team idles.
        const auto team = std::min(nw, static_cast<unsigned>(omp_get_num_threads()));
        const auto w = static_cast<unsigned>(omp_get_thread_num());
        if (w < team) {
            std::optional<guard::ScopedFpEnv> env;
            if (nominal_env && w != 0) env.emplace();
            const std::size_t lo = nblocks * w / team;
            const std::size_t hi = nblocks * (w + 1) / team;
            for (std::size_t blk = lo; blk < hi; ++blk) fn(blk, w);
        }
    }
#else
    detail::run_pool(nw, nblocks, std::forward<F>(fn), nominal_env);
#endif
}

/// Multiply-adds a level-1/2 blas:: call (axpy, dot, gemv, scal, ger, the
/// generic gemm) must carry before parallel_for forks. With OpenMP the fork
/// reuses the runtime's warm team: on a 4-core AVX-512 Xeon one fork/join
/// costs 2-2.5 us, and a Float64x2 AoS axpy or ger row runs at about
/// 1.7 ns per madd, so a 4-worker split breaks even at about 2048 madds
/// (EXPERIMENTS.md, "AoS kernels at planar speed", has the table and the
/// lu_solve sweep). The std::thread pool creates its workers per call -- an
/// empty 4-worker region costs about 56 us there -- and a split Float64x2
/// axpy only broke even with the serial one at 262144 madds, so without
/// OpenMP the level-1/2 kernels split only calls that large.
#if defined(_OPENMP)
inline constexpr std::size_t kCallForkMadds = 2048;
#else
inline constexpr std::size_t kCallForkMadds = 262144;
#endif

/// Run body(lo, hi) over a partition of [0, n) into contiguous ranges: on
/// the calling thread as body(0, n) when the call's `madds` are below
/// kCallForkMadds -- a plain branch, no parallel region is entered -- and
/// otherwise over one range per worker of the runtime's default team.
/// Everything else comes from parallel_blocks_slots: serial when nested in
/// a parallel region, spawn failures absorbed, and with `nominal_env` every
/// worker but the caller runs under guard::ScopedFpEnv. Ranges must be
/// independent; the split depends on the team size, so a reduction keeps
/// its own fixed chunks (blas::dot).
template <typename F>
void parallel_for(std::size_t n, std::size_t madds, F&& body, bool nominal_env = false) {
    if (madds < kCallForkMadds || n < 2) {
        body(std::size_t{0}, n);
        return;
    }
    const unsigned nw = default_threads();
    parallel_blocks_slots(
        nw,
        [&body, n, nw](std::size_t w, unsigned) {
            const std::size_t lo = n * w / nw;
            const std::size_t hi = n * (w + 1) / nw;
            if (lo < hi) body(lo, hi);
        },
        ThreadMode::automatic, nw, nominal_env);
}

}  // namespace mf::blas::engine
