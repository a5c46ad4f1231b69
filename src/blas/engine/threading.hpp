#pragma once
// Owner-computes parallelism for the packed GEMM engine (DESIGN.md §11; its
// work items, and why any worker count gives the same bits, are described in
// gemm_packed.hpp) and, through parallel_for, for the level-1/2 blas::
// kernels, with graceful degradation (DESIGN.md §12).
//
// Both entry points run on the library's one worker team (detail::Team),
// started by the first region that needs it and grown to the largest region
// asked for. Between regions each worker spins briefly, then parks in
// std::atomic::wait, so a fork/join costs about a microsecond. The calling
// thread is worker 0. A region runs serially instead of nesting when
// in_parallel() (a team worker, a caller's own share, or an OpenMP region of
// code built with OpenMP), or when another thread's region holds the team.
// A child made by fork() forgets its parent's workers and starts its own.
//
// FP environment: a worker keeps the environment of the thread that started
// it. With `nominal_env` (the caller's sentinel enforced) every worker but
// the calling thread runs its share under guard::ScopedFpEnv.
//
// Degradation: a worker whose std::thread construction throws
// std::system_error (pthread limit, cgroup cap, injected fault) is not
// started; the failure is absorbed and counted in
// mf_guard_degraded_total{path="thread"}, and the next region retries.
// parallel_blocks_slots runs the missing workers' blocks on the calling
// thread; under parallel_items the live workers claim their items. Per-item
// work is unchanged, so the degraded run is bit-identical.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
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

namespace detail {

/// Set on team workers, and on a caller while it runs its own share.
inline thread_local bool t_in_region = false;
/// The worker count set_default_threads installed; 0 = none.
inline std::atomic<unsigned> g_default_threads{0};

}  // namespace detail

/// True on a team worker, on a caller running its own share, and inside an
/// OpenMP parallel region of code built with OpenMP: every region of the
/// library then runs serially instead of nesting.
inline bool in_parallel() noexcept {
#if defined(_OPENMP)
    if (omp_in_parallel() != 0) return true;
#endif
    return detail::t_in_region;
}

/// Workers a region uses when the call sets no cap of its own: the count
/// of the last set_default_threads, else the deployment's, read once: the
/// first entry of OMP_NUM_THREADS when it is a positive count, else the
/// CPUs the process may run on (its affinity mask, as OpenMP counts them).
[[nodiscard]] inline unsigned default_threads() noexcept {
    static const unsigned deployment = [] {
        const char* env = std::getenv("OMP_NUM_THREADS");
        const long v = env ? std::strtol(env, nullptr, 10) : 0;
        unsigned cpus = std::thread::hardware_concurrency();
#if defined(__linux__)
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof set, &set) == 0) cpus = CPU_COUNT(&set);
#endif
        return v > 0 ? static_cast<unsigned>(std::min(v, 0xFFFFL)) : cpus ? cpus : 1u;
    }();
    const unsigned n = detail::g_default_threads.load(std::memory_order_relaxed);
    return n ? n : deployment;
}

/// Set the count default_threads() returns, process-wide (0 = back to the
/// deployment's). Returns the previous setting, so set_default_threads(saved)
/// restores it.
inline unsigned set_default_threads(unsigned n) noexcept {
    return detail::g_default_threads.exchange(n, std::memory_order_relaxed);
}

/// Worker count parallel_blocks_slots would PLAN for this call -- an upper
/// bound on the slot index fn will ever see, so callers can pre-size
/// per-slot scratch before entering the parallel region. (The granted team
/// can be smaller; slots are always < the planned count.)
[[nodiscard]] inline unsigned planned_workers(std::size_t nblocks,
                                              unsigned max_threads = 0) noexcept {
    const auto nw = std::min<std::size_t>(max_threads ? max_threads : default_threads(), nblocks);
    return in_parallel() || nw <= 1 ? 1u : static_cast<unsigned>(nw);
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
/// engine region costs about 1 us at 4 workers, and 16384 madds are about
/// 14 us of one worker's micro-kernel time (Float64x2, about 0.85 ns/madd
/// per worker with four busy).
inline constexpr std::size_t kForkMadds = 16384;

/// Workers a product of `tiles` micro-tiles, each worth `tile_madds`, can
/// keep busy: up to the cap (max_threads, 0 = default_threads()), but never
/// so many that one gets less work than kForkMadds. One inside an
/// enclosing parallel region.
[[nodiscard]] inline unsigned fork_workers(std::size_t tiles, std::size_t tile_madds,
                                           unsigned max_threads = 0) noexcept {
    if (in_parallel()) return 1;
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
                                              unsigned max_threads = 0) noexcept {
    Partition plan{row_blocks, 1, planned_workers(row_blocks, max_threads)};
    const unsigned cap = max_threads ? max_threads : default_threads();
    if (cap <= row_blocks) return plan;
    const unsigned nw = fork_workers(tiles, tile_madds, max_threads);
    if (nw <= row_blocks) return plan;
    plan.col_splits = std::min<std::size_t>(nw / std::gcd<std::size_t>(row_blocks, nw), panels);
    plan.workers = static_cast<unsigned>(std::min<std::size_t>(nw, plan.items()));
    return plan;
}

namespace detail {

/// A waiting thread spins for kSpinFor, then parks in std::atomic::wait (a
/// parked worker is woken through the kernel and a VM host's scheduler). It
/// keeps its CPU for kSpinAlone, so no other process takes it in the short
/// gaps of a solver loop, then yields it every ~50 us, so a thread sharing it
/// (more team threads than CPUs) need not wait out the spin (EXPERIMENTS.md).
inline constexpr auto kSpinFor = std::chrono::milliseconds(10);
inline constexpr auto kSpinAlone = std::chrono::milliseconds(1);

/// Wait, as above, until `a` holds a value other than `old`; return it.
template <typename T>
T next_value(const std::atomic<T>& a, T old) noexcept {
    const auto start = std::chrono::steady_clock::now();
    for (unsigned round = 1;; ++round) {
        for (int i = 0; i < 64; ++i) {
            const T v = a.load(std::memory_order_acquire);
            if (v != old) return v;
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#elif defined(__aarch64__)
            asm volatile("yield");
#endif
        }
        const auto spun = std::chrono::steady_clock::now() - start;
        if (spun >= kSpinFor) break;
        if (spun >= kSpinAlone && round % 64 == 0) std::this_thread::yield();
    }
    a.wait(old, std::memory_order_acquire);
    return a.load(std::memory_order_acquire);
}

/// The library's worker team (file header). Team::get() is the process's
/// one team; it is never destroyed, and parked workers end with the process.
class Team {
public:
    static Team& get() {
        static Team* const team = new Team;
        return *team;
    }

    Team(const Team&) = delete;  // the workers hold its address
    Team& operator=(const Team&) = delete;

    /// Run body(w) for w in [0, live) -- body(0) on the calling thread, the
    /// rest on workers (under guard::ScopedFpEnv with `nominal_env`) -- and
    /// return live <= nw (the caller and the workers that could be started),
    /// or 0 if another thread's region holds the team. body must not throw:
    /// the workers still use it (as with an OpenMP region, the program ends).
    template <typename B>
    [[gnu::noinline]] unsigned run(unsigned nw, const B& body, bool nominal_env) noexcept {
        if (forked_.load(std::memory_order_relaxed) && forked_.exchange(false)) [[unlikely]] {
            // A child made by fork(): the parent's workers and region are gone.
            busy_.store(false, std::memory_order_relaxed);
            restart(/*forked=*/true);
        }
        if (busy_.exchange(true, std::memory_order_acquire)) return 0;
        if (guard::inject::spawn_armed()) [[unlikely]] restart(/*forked=*/false);
        const unsigned live = grow(std::min(nw, kMaxWorkers));
        job_ = [](const void* b, unsigned w) { (*static_cast<const B*>(b))(w); };
        body_ = &body;
        nominal_env_ = nominal_env;
        pending_.store(live - 1, std::memory_order_relaxed);
        publish(live);
        const bool outer = std::exchange(t_in_region, true);
        body(0);
        t_in_region = outer;
        for (unsigned p = live - 1; p != 0;) p = next_value(pending_, p);
        busy_.store(false, std::memory_order_release);
        return live;
    }

private:
    /// Region word: a sequence number above 12 bits of participant count. A
    /// worker could miss a region only by sleeping through 2^20 of them.
    static constexpr unsigned kMaxWorkers = 0xFFF;

    Team() {
        pthread_atfork(nullptr, nullptr, [] { get().forked_.store(true); });
    }

    /// Start the next region for workers [1, count); count 0 stops them all.
    void publish(unsigned count) {
        const std::uint32_t seq = (word_.load(std::memory_order_relaxed) >> 12) + 1;
        word_.store(seq << 12 | count, std::memory_order_release);
        word_.notify_all();
    }

    /// Start workers for a region of nw; returns those it gets, caller included.
    unsigned grow(unsigned nw) {
        try {
            while (workers_.size() + 1 < nw) {
                if (guard::inject::should_fail_spawn()) {
                    throw std::system_error(
                        std::make_error_code(std::errc::resource_unavailable_try_again),
                        "mf::guard injected thread-spawn fault");
                }
                const auto id = static_cast<unsigned>(workers_.size()) + 1;
                workers_.emplace_back(&Team::work, this, id,
                                      word_.load(std::memory_order_relaxed));
            }
        } catch (const std::exception&) {  // std::system_error, or bad_alloc growing workers_
            MF_TELEM_COUNT_N("mf_guard_degraded_total{path=\"thread\"}", 1);
        }
        return std::min(nw, static_cast<unsigned>(workers_.size()) + 1);
    }

    /// The team's one reset path; the next region starts new workers. A child
    /// made by fork() has none of its parent's, so their handles are ended in
    /// place, unjoined (std::thread's destructor would terminate on them).
    void restart(bool forked) {
        if (!forked) publish(0);
        for (std::thread& t : workers_) forked ? (void)std::construct_at(&t) : t.join();
        workers_.clear();
    }

    /// Worker `id`'s loop: run its share of every region it takes part in.
    void work(unsigned id, std::uint32_t seen) {
        t_in_region = true;
        for (;;) {
            seen = next_value(word_, seen);
            const unsigned count = seen & kMaxWorkers;
            if (count == 0) return;
            if (id >= count) continue;
            {
                std::optional<guard::ScopedFpEnv> env;
                if (nominal_env_) env.emplace();
                job_(body_, id);
            }
            if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) pending_.notify_one();
        }
    }

    // Written by the caller before it publishes the word, read by the region's
    // participants, which the caller waits for before it writes them again.
    alignas(64) std::atomic<std::uint32_t> word_{0};
    void (*job_)(const void*, unsigned) = nullptr;
    const void* body_ = nullptr;
    bool nominal_env_ = false;
    alignas(64) std::atomic<unsigned> pending_{0};  ///< participants still running
    alignas(64) std::atomic<bool> busy_{false};     ///< a region holds the team
    std::atomic<bool> forked_{false};
    std::vector<std::thread> workers_;  ///< worker w is workers_[w - 1]
};

}  // namespace detail

/// Run fn(block, slot) for every block in [0, nblocks), statically
/// partitioned over up to max_threads workers (0 = default_threads()):
/// worker w of the planned nw owns blocks [nblocks*w/nw, nblocks*(w+1)/nw).
/// `slot` = w < planned_workers(...) is stable within the call, so fn can
/// index pre-allocated per-worker scratch. Runs serially when nested or when
/// the team is busy. With `nominal_env`, every worker but the calling thread
/// runs its blocks under guard::ScopedFpEnv. If worker w cannot be started,
/// the calling thread (slot 0) also runs everything from w's range onward.
template <typename F>
[[gnu::noinline]] void parallel_blocks_slots(std::size_t nblocks, F&& fn,
                                             unsigned max_threads = 0, bool nominal_env = false) {
    const unsigned nw = planned_workers(nblocks, max_threads);
    const auto range = [&fn, nblocks, nw](unsigned w) {
        const std::size_t hi = nblocks * (w + 1) / nw;
        for (std::size_t blk = nblocks * w / nw; blk < hi; ++blk) fn(blk, w);
    };
    const unsigned live = nw > 1 ? detail::Team::get().run(nw, range, nominal_env) : 0;
    // Ranges no worker ran (all, when serial) run on the calling thread.
    for (std::size_t blk = nblocks * live / nw; blk < nblocks; ++blk) fn(blk, 0u);
}

/// One region of the packed GEMM engine: setup(t) for every t in
/// [0, nsetup), then fn(item, slot) for every item in [0, nitems), each
/// exactly once, on up to `workers` workers (planned_workers decides). The
/// workers claim tasks from one shared counter, setup tasks first, so one
/// that finishes early takes the next task instead of idling behind a
/// slower one, and one that could not be started leaves its share to the
/// rest. No item starts before every setup task (engine: a slice of the
/// packed B panel) has finished and its writes are visible. `slot` is as for
/// parallel_blocks_slots; which worker runs an item varies, its result not.
template <typename S, typename F>
void parallel_items(std::size_t nsetup, S&& setup, std::size_t nitems, F&& fn,
                    unsigned workers, bool nominal_env = false) {
    const unsigned nw = planned_workers(nitems, workers);
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
    if (nw <= 1 || detail::Team::get().run(nw, claim, nominal_env) == 0) claim(0);
}

/// Multiply-adds a level-1/2 blas:: call (axpy, dot, gemv, scal, ger, the
/// generic gemm) must carry before parallel_for forks. A 4-worker region
/// costs 0.6-0.9 us and the rank-1 kernel 0.9-1.4 ns per Float64x2 madd, so
/// an isolated ger gains from about 2-3k madds on; but a fork also moves the
/// rows it writes into other cores' caches, where the caller's next scalar
/// pass (an LU's column gather and row swap) must fetch them. 8192 keeps
/// every level-2 call of a 256-wide LU on the caller (its largest, a 255 x 31
/// panel ger, is 7905) and still forks a 255 x 64 one (EXPERIMENTS.md, "One
/// rank-1 kernel", has the lu_solve sweep).
inline constexpr std::size_t kCallForkMadds = 8192;

/// Run body(lo, hi) over a partition of [0, n) into contiguous ranges: as
/// body(0, n) on the calling thread when `madds` < kCallForkMadds (a plain
/// branch), otherwise one range per default_threads() worker through
/// parallel_blocks_slots, whose rules (nesting, busy team, spawn failure,
/// `nominal_env`) apply. Ranges must be independent; the split depends on
/// the team size, so a reduction keeps its own fixed chunks (blas::dot).
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
        nw, nominal_env);
}

}  // namespace mf::blas::engine
