#pragma once
// Owner-computes parallelism for the packed GEMM engine (DESIGN.md §11)
// and, through parallel_for, for the level-1/2 blas:: kernels, with
// graceful degradation (DESIGN.md §12).
//
// gemm_packed parallelizes over work items: an mc-row block of C, or (when
// there are fewer row blocks than workers) one column range of jr
// micro-panels within a row block. fork_workers, item_rows and
// plan_partition below derive the workers, mc and the items from the
// shape, several items per worker. Each kc block of the product is one
// region (parallel_items): the team packs the shared B panel, then claims
// items from one atomic counter, so a slow worker leaves its last items to
// the others instead of holding the region's end. Every item is run by
// exactly one thread, so every C element has one writer and its
// kk-ascending update order is untouched -- the result is bit-identical
// to the sequential run for ANY worker count and any claim order, which is
// what the conformance differ enforces (check::diff_gemm_packed). The
// level-1/2 kernels keep static contiguous ranges (parallel_blocks_slots).
//
// Two execution substrates behind both entry points:
//   * OpenMP (when compiled in): one parallel region per call, same
//     omp_in_parallel() guard discipline as every other parallel region in
//     this codebase -- called from inside an existing region we run serially
//     instead of oversubscribing with nested teams;
//   * a std::thread fallback pool, used when OpenMP is not compiled in, or
//     on request (ThreadMode::pool) so OpenMP builds can still exercise and
//     differential-test the fallback path.
// Workers are forked per region; fork_workers (GEMM) and parallel_for
// (level-1/2 kernels) never fork for less work than the fork costs, and a
// persistent pool would be one more global to tear down.
//
// FP environment: a caller whose guard sentinel enforced a nominal
// environment asks for `nominal_env`, and every worker other than the
// calling thread then installs guard::ScopedFpEnv around its work -- a
// pooled OpenMP thread keeps whatever rounding mode it last ran under, so
// the caller's repaired environment does not reach it by itself.
//
// Degradation contract: a std::thread construction that throws
// std::system_error (pthread limit, cgroup cap, or an injected fault) is
// ABSORBED, never propagated, and a mf_guard_degraded_total{path="thread"}
// counter records the event. Already-spawned workers keep working; under
// parallel_blocks_slots the calling thread picks up every unowned block,
// under parallel_items the live workers simply claim the missing worker's
// items. Per-item work is unchanged, so the degraded run is bit-identical
// to the healthy one.

#include <algorithm>
#include <atomic>
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
/// 14 us of one worker's micro-kernel time (Float64x2, about 0.85 ns/madd
/// per worker with four busy): seven fork/joins. A plan with fewer workers
/// still forks the full team (detail::run_omp), so no region pays for
/// re-created threads.
inline constexpr std::size_t kForkMadds = 16384;

/// Workers a product of `tiles` micro-tiles, each worth `tile_madds`, can
/// keep busy: up to the runtime cap (max_threads, 0 = runtime default), but
/// never so many that one gets less work than kForkMadds. One in serial
/// mode and inside an enclosing parallel region.
[[nodiscard]] inline unsigned fork_workers(std::size_t tiles, std::size_t tile_madds,
                                           ThreadMode mode = ThreadMode::automatic,
                                           unsigned max_threads = 0) noexcept {
    if (mode == ThreadMode::serial || in_parallel()) return 1;
    const unsigned cap = max_threads ? max_threads : default_threads();
    const std::size_t min_tiles = (kForkMadds + tile_madds - 1) / tile_madds;
    return static_cast<unsigned>(std::clamp<std::size_t>(tiles / min_tiles, 1, cap));
}

/// Work items an engine region aims to give each worker. Workers claim
/// items as they go (parallel_items), so with several per worker one that
/// runs slow -- preempted, or sharing its core -- hands its last items to
/// the others instead of holding every worker at the region's end.
inline constexpr std::size_t kItemsPerWorker = 8;

/// Rows per work item (the engine's mc) for an n-row product on `workers`
/// workers: the fewest row blocks of at most mc_max rows, raised to
/// kItemsPerWorker blocks per worker when n has the rows. The size is a
/// multiple of mr, and only the last block is shorter.
[[nodiscard]] inline std::size_t item_rows(std::size_t n, std::size_t mr, std::size_t mc_max,
                                           unsigned workers) noexcept {
    std::size_t blocks = (n + mc_max - 1) / mc_max;
    if (workers > 1) blocks = std::max<std::size_t>(blocks, kItemsPerWorker * workers);
    const std::size_t rows = (n + blocks - 1) / blocks;
    return std::min(mc_max, (rows + mr - 1) / mr * mr);
}

/// Plan the split for `row_blocks` row blocks of `panels` jr micro-panels
/// each, `tiles` micro-tiles in all, each tile worth `tile_madds`.
///
///  * Row blocks fill the workers: keep the ic-only partition (one item per
///    row block, planned_workers of them) -- large products are untouched.
///  * Otherwise add workers up to fork_workers(...), never fewer than the
///    ic-only plan had. Each row block is cut into
///    workers / gcd(row_blocks, workers) column ranges (at most one per
///    micro-panel), so the item count is a multiple of the workers.
[[nodiscard]] inline Partition plan_partition(std::size_t row_blocks, std::size_t panels,
                                              std::size_t tiles, std::size_t tile_madds,
                                              ThreadMode mode = ThreadMode::automatic,
                                              unsigned max_threads = 0) noexcept {
    Partition plan{row_blocks, 1, planned_workers(row_blocks, mode, max_threads)};
    if (mode == ThreadMode::serial || in_parallel()) return plan;
    const unsigned cap = max_threads ? max_threads : default_threads();
    if (cap <= row_blocks) return plan;
    const unsigned nw = fork_workers(tiles, tile_madds, mode, max_threads);
    if (nw <= row_blocks) return plan;
    plan.col_splits = std::min<std::size_t>(nw / std::gcd<std::size_t>(row_blocks, nw), panels);
    plan.workers = static_cast<unsigned>(std::min<std::size_t>(nw, plan.items()));
    return plan;
}

namespace detail {

/// Start workers 1..nw-1 of a std::thread team, each running body(w), under
/// guard::ScopedFpEnv with `nominal_env`; worker 0 is the calling thread,
/// which runs its own share. A construction that throws std::system_error
/// is absorbed: no later worker is started, and the caller learns how many
/// workers are live (itself included) from the return value. The caller
/// joins `threads` before returning, on every path.
template <typename B>
unsigned spawn_workers(std::vector<std::thread>& threads, unsigned nw, const B& body,
                       bool nominal_env) {
    threads.reserve(nw - 1);
    try {
        for (unsigned w = 1; w < nw; ++w) {
            if (guard::inject::should_fail_spawn()) {
                throw std::system_error(
                    std::make_error_code(std::errc::resource_unavailable_try_again),
                    "mf::guard injected thread-spawn fault");
            }
            threads.emplace_back([&body, w, nominal_env] {
                std::optional<guard::ScopedFpEnv> env;
                if (nominal_env) env.emplace();
                body(w);
            });
        }
    } catch (const std::system_error&) {
        MF_TELEM_COUNT_N("mf_guard_degraded_total{path=\"thread\"}", 1);
    }
    return static_cast<unsigned>(threads.size()) + 1;
}

#if defined(_OPENMP)
/// Run body(w, team) on the first team = min(nw, granted) threads of one
/// OpenMP region (the runtime can grant fewer than asked), every one but
/// the calling thread under guard::ScopedFpEnv with `nominal_env`.
///
/// The region forks at least the runtime's default team and idles the
/// threads the plan does not use. libgomp retires the pool threads a
/// smaller team does not use and creates new ones for the next larger
/// region. In a blocked LU solve that alternation ended and created two
/// threads per solve, and the solve's tail latency then followed the host's
/// load (EXPERIMENTS.md, "One team size").
template <typename B>
void run_omp(unsigned nw, const B& body, bool nominal_env) {
#pragma omp parallel num_threads(static_cast<int>(std::max(nw, default_threads())))
    {
        const auto team = std::min(nw, static_cast<unsigned>(omp_get_num_threads()));
        const auto w = static_cast<unsigned>(omp_get_thread_num());
        if (w < team) {
            std::optional<guard::ScopedFpEnv> env;
            if (nominal_env && w != 0) env.emplace();
            body(w, team);
        }
    }
}
#endif

}  // namespace detail

/// Run fn(block, slot) for every block in [0, nblocks), statically
/// partitioned over up to max_threads workers (0 = runtime default): worker
/// w of `team` owns the contiguous range [nblocks*w/team,
/// nblocks*(w+1)/team), the same partition on both substrates. `slot`
/// identifies the executing worker, 0 <= slot < planned_workers(...):
/// stable per worker within one call, so fn can index pre-allocated
/// per-worker scratch. Serializes when nested inside an existing OpenMP
/// parallel region. With `nominal_env`, every worker but the calling thread
/// runs its blocks under guard::ScopedFpEnv.
///
/// Spawn failure is absorbed: if starting worker w throws, workers [1, w)
/// run their ranges as planned and the calling thread (slot 0) covers its
/// own range plus everything from w's range onward.
template <typename F>
void parallel_blocks_slots(std::size_t nblocks, F&& fn,
                           ThreadMode mode = ThreadMode::automatic,
                           unsigned max_threads = 0, bool nominal_env = false) {
    const unsigned nw = planned_workers(nblocks, mode, max_threads);
    if (nw <= 1) {
        for (std::size_t blk = 0; blk < nblocks; ++blk) fn(blk, 0u);
        return;
    }
    const auto range = [&fn, nblocks](unsigned w, unsigned team) {
        const std::size_t hi = nblocks * (w + 1) / team;
        for (std::size_t blk = nblocks * w / team; blk < hi; ++blk) fn(blk, w);
    };
#if defined(_OPENMP)
    if (mode != ThreadMode::pool) {
        detail::run_omp(nw, range, nominal_env);
        return;
    }
#endif
    const auto worker = [&range, nw](unsigned w) { range(w, nw); };
    std::vector<std::thread> threads;
    const unsigned live = detail::spawn_workers(threads, nw, worker, nominal_env);
    worker(0);
    // Orphaned ranges run on the calling thread, slot 0: its scratch is free
    // again once its own range is done.
    for (std::size_t blk = nblocks * live / nw; blk < nblocks; ++blk) fn(blk, 0u);
    for (auto& t : threads) t.join();
}

/// One region of the packed GEMM engine: setup(t) for every t in
/// [0, nsetup), then fn(item, slot) for every item in [0, nitems), each
/// exactly once, on up to `workers` workers (planned_workers decides, as
/// for parallel_blocks_slots). The workers claim tasks from one shared
/// counter, setup tasks first: a worker that finishes early takes the next
/// task instead of idling at the region's end behind a slower one, and a
/// worker whose spawn failed simply claims nothing, so the rest (the
/// calling thread always among them) run its share. No item starts before
/// every setup task has finished and its writes are visible; setup tasks
/// are the team's share of the work the items read (engine: the packed B
/// panel). `slot` is stable per worker and below planned_workers(...), as
/// for parallel_blocks_slots. Which worker runs an item varies from run to
/// run; what an item computes does not, so results cannot depend on it.
template <typename S, typename F>
void parallel_items(std::size_t nsetup, S&& setup, std::size_t nitems, F&& fn,
                    ThreadMode mode, unsigned workers, bool nominal_env = false) {
    const unsigned nw = planned_workers(nitems, mode, workers);
    if (nw <= 1) {
        for (std::size_t t = 0; t < nsetup; ++t) setup(t);
        for (std::size_t item = 0; item < nitems; ++item) fn(item, 0u);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> ready{0};  // setup tasks finished
    const auto claim = [&](unsigned w) {
        for (std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
             t < nsetup + nitems; t = next.fetch_add(1, std::memory_order_relaxed)) {
            if (t < nsetup) {
                setup(t);
                ready.fetch_add(1, std::memory_order_release);
                continue;
            }
            // Every setup task is claimed by now, each by a running worker
            // that finishes it without waiting on anything.
            while (ready.load(std::memory_order_acquire) < nsetup) std::this_thread::yield();
            fn(t - nsetup, w);
        }
    };
#if defined(_OPENMP)
    if (mode != ThreadMode::pool) {
        detail::run_omp(nw, [&claim](unsigned w, unsigned) { claim(w); }, nominal_env);
        return;
    }
#endif
    std::vector<std::thread> threads;
    detail::spawn_workers(threads, nw, claim, nominal_env);
    claim(0);
    for (auto& t : threads) t.join();
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
