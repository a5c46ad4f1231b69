#pragma once
// Process-wide metric registry: named counters and log2-bucketed histograms,
// sharded per thread, merged on read.
//
// Hot-path discipline (the whole point of this design): an increment touches
// ONLY cells of the calling thread's private shard, via relaxed atomic
// load/store pairs. No read-modify-write instructions, no shared cache
// lines, no locks. The relaxed atomics exist solely so the merging reader
// (snapshot()) may load another thread's cells without a data race; on every
// ISA we target they compile to the same mov/add/mov as a plain uint64_t.
//
// Registration (name -> id) is the cold path: it takes a mutex and is done
// once per call site (see events.hpp, which caches the id in a per-site
// static). Shards are owned by the registry and never freed: a thread that
// exits leaves its totals behind for every later snapshot, which is exactly
// the "merged on flush" semantics the exporters want. An exiting thread
// hands its shard back, and the next thread to touch a metric adopts it and
// keeps adding to the same cells, so the shard count tracks the most
// threads alive at once, not every thread ever started (an OpenMP runtime
// that retires and respawns pool threads would otherwise grow the registry
// by one shard per respawn). An adopted shard keeps its `tid`; the two
// threads sharing it never overlap in time.
//
// This header has no dependency on the MF_TELEMETRY compile mode: the
// registry API is always available (tools and exporters link against it
// unconditionally); only the instrumentation macros in events.hpp compile
// away. Keeping the definitions mode-independent also keeps translation
// units built with different telemetry settings ODR-compatible.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mf::telemetry {

inline constexpr int kMaxCounters = 256;
inline constexpr int kMaxHistograms = 64;
inline constexpr int kHistBuckets = 64;

/// Opaque slot index into every shard's cell arrays. Default-constructed ids
/// are inert: add/observe on them are no-ops, so running out of slots
/// degrades to dropped metrics, never UB.
struct CounterId {
    int idx = -1;
};
struct HistogramId {
    int idx = -1;
};

/// log2 bucketing: bucket 0 holds [0, 2), bucket b holds [2^b, 2^(b+1)),
/// and the last bucket absorbs everything wider. Power-of-two boundaries
/// make the exposition's `le` edges exact integers (tested).
[[nodiscard]] constexpr int log2_bucket(std::uint64_t v) noexcept {
    const int b = (v == 0) ? 0 : static_cast<int>(std::bit_width(v)) - 1;
    return b < kHistBuckets ? b : kHistBuckets - 1;
}

/// One completed span, chrome://tracing "X" (complete) event shaped.
/// Timestamps are nanoseconds since the registry's construction.
struct TraceEvent {
    std::string name;
    int tid = 0;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
};

struct CounterSnap {
    std::string name;
    std::uint64_t value = 0;
};
struct HistogramSnap {
    std::string name;
    std::array<std::uint64_t, kHistBuckets> bucket{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

/// Point-in-time merge of all shards (live and exited threads alike).
struct Snapshot {
    std::vector<CounterSnap> counters;      ///< sorted by name
    std::vector<HistogramSnap> histograms;  ///< sorted by name
    std::vector<TraceEvent> spans;          ///< sorted by (tid, begin, name)
};

class Registry {
public:
    /// The process-wide registry. Intentionally leaked (never destroyed) so
    /// instrumented code running during static destruction, or on threads
    /// outliving main, can never touch a dead object.
    static Registry& instance() {
        static Registry* r = new Registry();
        return *r;
    }

    /// Register (or look up) a counter by full name, labels included, e.g.
    /// "mf_simd_dispatch_total{backend=\"avx2\"}". Cold path: takes a mutex.
    [[nodiscard]] CounterId counter(std::string_view name) {
        std::lock_guard<std::mutex> lock(mu_);
        return {intern(counter_names_, name, kMaxCounters)};
    }

    [[nodiscard]] HistogramId histogram(std::string_view name) {
        std::lock_guard<std::mutex> lock(mu_);
        return {intern(histogram_names_, name, kMaxHistograms)};
    }

    /// Hot path: bump this thread's shard cell. Relaxed load/store of a cell
    /// only this thread writes -- no RMW, no contention.
    void add(CounterId id, std::uint64_t n = 1) noexcept {
        if (id.idx < 0) return;
        std::atomic<std::uint64_t>& c = tls().counters[static_cast<std::size_t>(id.idx)];
        c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    }

    /// Hot path: record one histogram observation in this thread's shard.
    void observe(HistogramId id, std::uint64_t v) noexcept {
        if (id.idx < 0) return;
        ThreadShard::Hist& h = tls().hists[static_cast<std::size_t>(id.idx)];
        bump(h.bucket[static_cast<std::size_t>(log2_bucket(v))], 1);
        bump(h.count, 1);
        bump(h.sum, v);
    }

    /// Tracing gate, read per span construction; default off so clock calls
    /// stay out of instrumented loops unless an operator asked for a trace.
    [[nodiscard]] bool trace_enabled() const noexcept {
        return trace_on_.load(std::memory_order_relaxed);
    }
    void set_trace_enabled(bool on) noexcept {
        trace_on_.store(on, std::memory_order_relaxed);
    }

    /// Nanoseconds since this registry was constructed (the trace epoch).
    [[nodiscard]] std::uint64_t now_ns() const noexcept {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    /// Record a completed span on the calling thread's shard.
    void record_span(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns) {
        ThreadShard& s = tls();
        std::lock_guard<std::mutex> lock(s.span_mu);
        s.spans.push_back(TraceEvent{name, s.tid, begin_ns, end_ns});
    }

    /// Deterministic-injection variant (golden tests, replay tools): the
    /// thread id and timestamps are the caller's, not the clock's.
    void record_span(const char* name, int tid, std::uint64_t begin_ns,
                     std::uint64_t end_ns) {
        std::lock_guard<std::mutex> lock(mu_);
        injected_spans_.push_back(TraceEvent{name, tid, begin_ns, end_ns});
    }

    /// Sequential id of the calling thread's shard (the `tid` its spans use).
    [[nodiscard]] int thread_id() noexcept { return tls().tid; }

    /// Merge every shard into one consistent view. Cold path: locks out
    /// registration and shard creation, then sums cells with relaxed loads.
    [[nodiscard]] Snapshot snapshot() {
        std::lock_guard<std::mutex> lock(mu_);
        Snapshot out;
        out.counters.resize(counter_names_.size());
        for (std::size_t i = 0; i < counter_names_.size(); ++i) {
            out.counters[i].name = counter_names_[i];
        }
        out.histograms.resize(histogram_names_.size());
        for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
            out.histograms[i].name = histogram_names_[i];
        }
        for (const std::unique_ptr<ThreadShard>& s : shards_) {
            for (std::size_t i = 0; i < out.counters.size(); ++i) {
                out.counters[i].value += s->counters[i].load(std::memory_order_relaxed);
            }
            for (std::size_t i = 0; i < out.histograms.size(); ++i) {
                const ThreadShard::Hist& h = s->hists[i];
                HistogramSnap& g = out.histograms[i];
                for (int b = 0; b < kHistBuckets; ++b) {
                    g.bucket[static_cast<std::size_t>(b)] +=
                        h.bucket[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
                }
                g.count += h.count.load(std::memory_order_relaxed);
                g.sum += h.sum.load(std::memory_order_relaxed);
            }
            std::lock_guard<std::mutex> span_lock(s->span_mu);
            out.spans.insert(out.spans.end(), s->spans.begin(), s->spans.end());
        }
        out.spans.insert(out.spans.end(), injected_spans_.begin(), injected_spans_.end());
        sort_by_name(out.counters);
        sort_by_name(out.histograms);
        std::sort(out.spans.begin(), out.spans.end(),
                  [](const TraceEvent& a, const TraceEvent& b) {
                      if (a.tid != b.tid) return a.tid < b.tid;
                      if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
                      return a.name < b.name;
                  });
        return out;
    }

    /// Zero every cell and drop every span; registered names keep their ids.
    /// Test/tool use only -- concurrent writers during a reset may leave a
    /// few torn counts behind, so quiesce instrumented threads first.
    void reset() {
        std::lock_guard<std::mutex> lock(mu_);
        for (const std::unique_ptr<ThreadShard>& s : shards_) {
            for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
            for (auto& h : s->hists) {
                for (auto& b : h.bucket) b.store(0, std::memory_order_relaxed);
                h.count.store(0, std::memory_order_relaxed);
                h.sum.store(0, std::memory_order_relaxed);
            }
            std::lock_guard<std::mutex> span_lock(s->span_mu);
            s->spans.clear();
        }
        injected_spans_.clear();
    }

private:
    struct ThreadShard {
        struct Hist {
            std::array<std::atomic<std::uint64_t>, kHistBuckets> bucket{};
            std::atomic<std::uint64_t> count{0};
            std::atomic<std::uint64_t> sum{0};
        };
        std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
        std::array<Hist, kMaxHistograms> hists{};
        std::mutex span_mu;
        std::vector<TraceEvent> spans;
        int tid = 0;
    };

    Registry() : epoch_(std::chrono::steady_clock::now()) {}

    static void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
        c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    }

    /// Name -> dense index, first-wins; -1 once `cap` distinct names exist.
    [[nodiscard]] int intern(std::vector<std::string>& names, std::string_view name,
                             int cap) {
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i] == name) return static_cast<int>(i);
        }
        if (static_cast<int>(names.size()) >= cap) return -1;
        names.emplace_back(name);
        return static_cast<int>(names.size()) - 1;
    }

    template <typename V>
    static void sort_by_name(V& v) {
        std::sort(v.begin(), v.end(),
                  [](const auto& a, const auto& b) { return a.name < b.name; });
    }

    /// Hands the calling thread's shard back when the thread exits. The two
    /// thread-locals it clears are trivially destructible, so they stay
    /// readable after the lease is gone: a metric touched later in thread
    /// teardown takes a shard for good instead of re-entering a destroyed
    /// lease.
    struct ShardLease {
        ~ShardLease() {
            if (tls_shard != nullptr) Registry::instance().release(tls_shard);
            tls_shard = nullptr;
            tls_released = true;
        }
    };
    // constinit: the hot path reads tls_shard directly, with no
    // thread-local init wrapper.
    static constinit thread_local ThreadShard* tls_shard;
    static constinit thread_local bool tls_released;

    /// The calling thread's shard: on first touch, a shard an exited thread
    /// handed back, else a new one. The mutex orders the exited thread's
    /// last cell stores before the adopter's first loads.
    ThreadShard& tls() {
        if (tls_shard == nullptr) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (!free_.empty()) {
                    tls_shard = free_.back();
                    free_.pop_back();
                } else {
                    shards_.push_back(std::make_unique<ThreadShard>());
                    shards_.back()->tid = static_cast<int>(shards_.size()) - 1;
                    tls_shard = shards_.back().get();
                }
            }
            if (!tls_released) {
                thread_local ShardLease lease;
                (void)lease;
            }
        }
        return *tls_shard;
    }

    void release(ThreadShard* shard) {
        std::lock_guard<std::mutex> lock(mu_);
        free_.push_back(shard);
    }

    std::mutex mu_;
    std::vector<std::string> counter_names_;
    std::vector<std::string> histogram_names_;
    std::vector<std::unique_ptr<ThreadShard>> shards_;
    std::vector<ThreadShard*> free_;  ///< shards of exited threads
    std::vector<TraceEvent> injected_spans_;
    std::atomic<bool> trace_on_{false};
    std::chrono::steady_clock::time_point epoch_;
};

inline constinit thread_local Registry::ThreadShard* Registry::tls_shard = nullptr;
inline constinit thread_local bool Registry::tls_released = false;

}  // namespace mf::telemetry
