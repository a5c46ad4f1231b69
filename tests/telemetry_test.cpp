// mf::telemetry: registry semantics (concurrent sharded counting, log2
// histogram bucketing, span recording), exporter formats (Prometheus text
// exposition, chrome://tracing JSON vs a committed golden file), and the
// end-to-end wiring through the instrumented GEMM stack.
//
// Each TEST runs in its own process (gtest_discover_tests), but every test
// still calls reset() up front so counts from static initialization or
// backend detection never leak into assertions.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blas/engine/gemm_packed.hpp"
#include "blas/kernels.hpp"
#include "mf/multifloats.hpp"
#include "simd/dispatch.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace mf::telemetry;

Registry& reg() { return Registry::instance(); }

const CounterSnap* find_counter(const Snapshot& s, const std::string& name) {
    for (const CounterSnap& c : s.counters) {
        if (c.name == name) return &c;
    }
    return nullptr;
}

const HistogramSnap* find_hist(const Snapshot& s, const std::string& name) {
    for (const HistogramSnap& h : s.histograms) {
        if (h.name == name) return &h;
    }
    return nullptr;
}

std::uint64_t sum_counters_with_prefix(const Snapshot& s, const std::string& prefix) {
    std::uint64_t total = 0;
    for (const CounterSnap& c : s.counters) {
        if (c.name.rfind(prefix, 0) == 0) total += c.value;
    }
    return total;
}

// The arithmetic core carries no instrumentation, so with telemetry compiled
// in its networks still constant-evaluate: a counter in them would not.
using MF3 = mf::MultiFloat<double, 3>;
using MF4 = mf::MultiFloat<double, 4>;
static_assert(mf::add(mf::add(MF3(1.0), MF3(0x1p-70)), 0x1p-140).limb[2] == 0x1p-140);
static_assert(mf::add(mf::add(MF4(1.0), MF4(0x1p-70)), 0x1p-140).limb[2] == 0x1p-140);

TEST(TelemetryRegistry, ConcurrentShardedIncrementsMergeExactly) {
    reg().reset();
    const CounterId id = reg().counter("test_concurrent_total");
    constexpr int kThreads = 16;
    constexpr std::uint64_t kPerThread = 100000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([id] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) reg().add(id);
        });
    }
    for (std::thread& w : workers) w.join();
    // All 16 worker threads have exited; their shards must still contribute
    // ("merged on flush" semantics -- shards outlive their threads).
    const Snapshot snap = reg().snapshot();
    const CounterSnap* c = find_counter(snap, "test_concurrent_total");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, kThreads * kPerThread);
}

TEST(TelemetryRegistry, ExitedThreadShardIsAdoptedNotLeaked) {
    reg().reset();
    const CounterId id = reg().counter("test_adopted_total");
    const int caller_tid = reg().thread_id();  // the caller holds its shard
    // Threads that never overlap: each adopts the shard the previous one
    // handed back on exit (same tid), so the shard count stays flat, and
    // every thread's counts still merge.
    constexpr int kRounds = 8;
    std::vector<int> tids;
    for (int r = 0; r < kRounds; ++r) {
        int tid = -1;
        std::thread t([id, &tid] {
            reg().add(id, 3);
            tid = reg().thread_id();
        });
        t.join();
        tids.push_back(tid);
    }
    for (int r = 1; r < kRounds; ++r) EXPECT_EQ(tids[r], tids[0]) << "round " << r;
    EXPECT_NE(tids[0], caller_tid) << "a live thread's shard is never lent";
    const Snapshot snap = reg().snapshot();
    const CounterSnap* c = find_counter(snap, "test_adopted_total");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 3u * kRounds);
}

TEST(TelemetryRegistry, CounterIdIsStableAndAddNIsExact) {
    reg().reset();
    const CounterId a = reg().counter("test_stable_total");
    const CounterId b = reg().counter("test_stable_total");
    EXPECT_EQ(a.idx, b.idx);
    reg().add(a, 5);
    reg().add(b, 7);
    const Snapshot snap = reg().snapshot();
    const CounterSnap* c = find_counter(snap, "test_stable_total");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 12u);
}

TEST(TelemetryRegistry, InertIdsAreNoOps) {
    reg().reset();
    CounterId none;      // default: idx = -1
    HistogramId hnone;   // default: idx = -1
    reg().add(none, 3);  // must not crash or count anything
    reg().observe(hnone, 42);
    const Snapshot snap = reg().snapshot();
    for (const CounterSnap& c : snap.counters) EXPECT_EQ(c.value, 0u) << c.name;
    for (const HistogramSnap& h : snap.histograms) EXPECT_EQ(h.count, 0u) << h.name;
}

TEST(TelemetryHistogram, PowerOfTwoBucketEdges) {
    // Bucket 0 = [0, 2), bucket b = [2^b, 2^(b+1)): the exact contract the
    // exposition's `le` edges encode.
    EXPECT_EQ(log2_bucket(0), 0);
    EXPECT_EQ(log2_bucket(1), 0);
    EXPECT_EQ(log2_bucket(2), 1);
    EXPECT_EQ(log2_bucket(3), 1);
    EXPECT_EQ(log2_bucket(4), 2);
    EXPECT_EQ(log2_bucket(7), 2);
    EXPECT_EQ(log2_bucket(8), 3);
    EXPECT_EQ(log2_bucket((std::uint64_t{1} << 40) - 1), 39);
    EXPECT_EQ(log2_bucket(std::uint64_t{1} << 40), 40);
    EXPECT_EQ(log2_bucket(~std::uint64_t{0}), kHistBuckets - 1);

    reg().reset();
    const HistogramId h = reg().histogram("test_buckets");
    for (std::uint64_t v : {0u, 1u, 2u, 3u, 4u, 7u, 8u}) reg().observe(h, v);
    const Snapshot snap = reg().snapshot();
    const HistogramSnap* s = find_hist(snap, "test_buckets");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->bucket[0], 2u);  // 0, 1
    EXPECT_EQ(s->bucket[1], 2u);  // 2, 3
    EXPECT_EQ(s->bucket[2], 2u);  // 4, 7
    EXPECT_EQ(s->bucket[3], 1u);  // 8
    EXPECT_EQ(s->count, 7u);
    EXPECT_EQ(s->sum, 0u + 1 + 2 + 3 + 4 + 7 + 8);
}

TEST(TelemetryTrace, GoldenChromeTraceJson) {
    reg().reset();
    // Deterministic injected spans (explicit tid + timestamps): the exporter
    // output for these is byte-stable, so it lives as a committed golden
    // file. Regenerate with tools/mf_top + this test's inputs if the format
    // deliberately changes.
    reg().record_span("alpha", /*tid=*/0, /*begin_ns=*/1000, /*end_ns=*/2500);
    reg().record_span("beta", /*tid=*/1, /*begin_ns=*/2000, /*end_ns=*/4000);
    const std::string got = chrome_trace_json(reg().snapshot());

    std::ifstream golden(std::string(MF_GOLDEN_DIR) + "/trace_golden.json");
    ASSERT_TRUE(golden.is_open()) << "missing " MF_GOLDEN_DIR "/trace_golden.json";
    std::stringstream want;
    want << golden.rdbuf();
    EXPECT_EQ(got, want.str());
}

// The remaining tests exercise the MF_TELEM_* macros and the instrumented
// kernels, so they are meaningful only when the instrumentation is compiled
// in (MF_TELEMETRY=ON, the default). In an OFF build the registry/exporter
// tests above still run; these skip.

TEST(TelemetryTrace, ScopedSpanRecordsOnlyWhenEnabled) {
#if !MF_TELEMETRY_ENABLED
    GTEST_SKIP() << "telemetry instrumentation compiled out";
#else
    reg().reset();
    reg().set_trace_enabled(false);
    { MF_TELEM_SPAN("quiet"); }
    EXPECT_TRUE(reg().snapshot().spans.empty());
    reg().set_trace_enabled(true);
    { MF_TELEM_SPAN("loud"); }
    reg().set_trace_enabled(false);
    const Snapshot snap = reg().snapshot();
    ASSERT_EQ(snap.spans.size(), 1u);
    EXPECT_EQ(snap.spans[0].name, "loud");
    EXPECT_LE(snap.spans[0].begin_ns, snap.spans[0].end_ns);
#endif
}

TEST(TelemetryExposition, RendersCountersHistogramsAndBuildInfo) {
    reg().reset();
    reg().add(reg().counter("test_expo_total{kind=\"a\"}"), 3);
    reg().add(reg().counter("test_expo_total{kind=\"b\"}"), 4);
    const HistogramId h = reg().histogram("test_expo_ns");
    reg().observe(h, 1);  // bucket 0 -> le="2"
    reg().observe(h, 5);  // bucket 2 -> le="8"
    const std::string text = render_exposition(reg().snapshot(), build_info());

    // One TYPE line for the shared base name, then both labeled series.
    EXPECT_NE(text.find("# TYPE test_expo_total counter"), std::string::npos);
    EXPECT_NE(text.find("test_expo_total{kind=\"a\"} 3\n"), std::string::npos);
    EXPECT_NE(text.find("test_expo_total{kind=\"b\"} 4\n"), std::string::npos);
    // Histogram: cumulative buckets with exact power-of-two edges.
    EXPECT_NE(text.find("# TYPE test_expo_ns histogram"), std::string::npos);
    EXPECT_NE(text.find("test_expo_ns_bucket{le=\"2\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("test_expo_ns_bucket{le=\"8\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("test_expo_ns_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("test_expo_ns_sum 6\n"), std::string::npos);
    EXPECT_NE(text.find("test_expo_ns_count 2\n"), std::string::npos);
    // Build provenance rides along as the standard info-gauge.
    EXPECT_NE(text.find("# TYPE mf_build_info gauge"), std::string::npos);
    EXPECT_NE(text.find("mf_build_info{git_sha="), std::string::npos);
    EXPECT_NE(text.find("backend="), std::string::npos);
}

TEST(TelemetryWiring, GemmPopulatesDispatchAndTileCounters) {
#if !MF_TELEMETRY_ENABLED
    GTEST_SKIP() << "telemetry instrumentation compiled out";
#else
    constexpr std::size_t n = 8;
    constexpr int N = 4;
    mf::planar::Vector<double, N> a(n * n), b(n * n), c(n * n);
    for (std::size_t i = 0; i < n * n; ++i) {
        a.set(i, mf::MultiFloat<double, N>(1.0 + double(i) * 0x1p-20));
        b.set(i, mf::MultiFloat<double, N>(2.0 - double(i) * 0x1p-21));
    }
    // Micro-tile geometry of the active backend (MR = 4 rows, NR = W columns
    // at N = 4), read before the reset so its own lookup is not counted.
    const auto w = static_cast<std::size_t>(mf::simd::active_width<double>());
    reg().reset();
    reg().set_trace_enabled(true);
    mf::blas::gemm_packed(mf::planar::matrix_view(a, n, n),
                          mf::planar::matrix_view(b, n, n),
                          mf::planar::matrix_view(c, n, n));
    reg().set_trace_enabled(false);

    const Snapshot snap = reg().snapshot();
    // One dispatch resolve (hoisted out of the loop nest), one micro-kernel
    // call per 4 x W tile, and A and B each packed once in full.
    EXPECT_EQ(sum_counters_with_prefix(snap, "mf_simd_dispatch_total"), 1u);
    const CounterSnap* tiles = find_counter(snap, "mf_gemm_microkernel_total");
    ASSERT_NE(tiles, nullptr);
    EXPECT_EQ(tiles->value, (n + 3) / 4 * ((n + w - 1) / w));
    EXPECT_EQ(sum_counters_with_prefix(snap, "mf_gemm_pack_bytes_total"),
              2 * N * n * n * sizeof(double));
    // n = 8 fits one macro-panel: one traced span, one latency observation.
    ASSERT_EQ(snap.spans.size(), 1u);
    EXPECT_EQ(snap.spans[0].name, std::string("gemm_macro_panel"));
    const HistogramSnap* lat = find_hist(snap, "mf_gemm_macro_panel_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, 1u);
#endif
}

// A rank-1 update resolves the backend once and counts its elements once:
// rows x cols axpy_aos elements and one dispatch decision, however many rows
// it has and whether or not it forks.
TEST(TelemetryWiring, GerCountsEveryElementAndOneDispatch) {
#if !MF_TELEMETRY_ENABLED
    GTEST_SKIP() << "telemetry instrumentation compiled out";
#else
    using V = mf::MultiFloat<double, 2>;
    // 255 x 64 is above engine::kCallForkMadds and forks; the others do not.
    for (const auto& [n, m] :
         {std::pair<std::size_t, std::size_t>{37, 7}, {255, 31}, {255, 64}}) {
        std::vector<V> x(n, V(1.5)), y(m, V(-0.25)), a(n * m, V(2.0));
        reg().reset();
        mf::blas::ger<V>(V(3.0), mf::blas::view(x), mf::blas::view(y),
                         mf::blas::view(a, n, m));
        const Snapshot snap = reg().snapshot();
        const CounterSnap* ops =
            find_counter(snap, "mf_simd_kernel_ops_total{kernel=\"axpy_aos\"}");
        ASSERT_NE(ops, nullptr);
        EXPECT_EQ(ops->value, n * m) << n << " x " << m;
        EXPECT_EQ(sum_counters_with_prefix(snap, "mf_simd_dispatch_total"), 1u)
            << n << " x " << m;
    }
#endif
}

// A GEMM edge tile (fewer than MR = 4 rows here) counts its fma_range
// sweeps once: rows x kc x cols elements. Full tiles count nothing there.
TEST(TelemetryWiring, GemmEdgeTilesCountTheirFmaRangeElements) {
#if !MF_TELEMETRY_ENABLED
    GTEST_SKIP() << "telemetry instrumentation compiled out";
#else
    using V = mf::MultiFloat<double, 2>;
    const auto fma_ops = [](std::size_t n, std::size_t m, std::size_t k) {
        std::vector<V> a(n * k, V(1.5)), b(k * m, V(-0.25)), c(n * m);
        reg().reset();
        mf::blas::gemm<V>(mf::blas::view(std::as_const(a), n, k),
                          mf::blas::view(std::as_const(b), k, m), mf::blas::view(c, n, m));
        const Snapshot snap = reg().snapshot();
        const CounterSnap* ops =
            find_counter(snap, "mf_simd_kernel_ops_total{kernel=\"fma_range\"}");
        return ops ? ops->value : std::uint64_t{0};
    };
    EXPECT_EQ(fma_ops(3, 19, 5), 3u * 19u * 5u);  // every tile is 3 rows
    EXPECT_EQ(fma_ops(4, 16, 5), 0u);             // NR divides 16 at every width
#endif
}

// blas::iamax runs vectors shorter than kIamaxLaneMin through the scalar
// loop before any dispatch; from there on it is one dispatched lane call.
TEST(TelemetryWiring, ShortIamaxSkipsTheDispatch) {
#if !MF_TELEMETRY_ENABLED
    GTEST_SKIP() << "telemetry instrumentation compiled out";
#else
    using V = mf::MultiFloat<double, 2>;
    constexpr std::size_t lane_min = mf::blas::detail::kIamaxLaneMin;
    for (const std::size_t n : {lane_min - 1, lane_min}) {
        const std::vector<V> x(n, V(0.5));
        reg().reset();
        (void)mf::blas::iamax<V>(mf::blas::view(x));
        const Snapshot snap = reg().snapshot();
        const CounterSnap* ops =
            find_counter(snap, "mf_simd_kernel_ops_total{kernel=\"iamax_aos\"}");
        const bool lanes = n >= lane_min;
        EXPECT_EQ(ops ? ops->value : 0u, lanes ? n : 0u) << n;
        EXPECT_EQ(sum_counters_with_prefix(snap, "mf_simd_dispatch_total"), lanes ? 1u : 0u)
            << n;
    }
#endif
}

TEST(TelemetryWiring, ScalarCoreRegistersNothing) {
    // The arithmetic core counts nothing in either mode: add/sub/mul, the
    // Newton div/sqrt/recip and the IEEE wrappers run on finite, signed-zero,
    // infinite, NaN and subnormal operands without touching the registry.
    const auto drive = [](auto tag) {
        using V = decltype(tag);
        const double inf = std::numeric_limits<double>::infinity();
        const V vals[] = {V(1.5), V(-0x1p-70), V(0.0), V(-0.0), V(inf), V(-inf),
                          V(std::numeric_limits<double>::quiet_NaN()),
                          V(std::numeric_limits<double>::denorm_min())};
        for (const V& x : vals) {
            (void)mf::recip(x);
            (void)mf::sqrt(x);
            (void)mf::sqrt_ieee(x);
            for (const V& y : vals) {
                (void)mf::add(x, y);
                (void)mf::sub(x, y);
                (void)mf::mul(x, y);
                (void)mf::div(x, y);
                (void)mf::add_ieee(x, y);
                (void)mf::sub_ieee(x, y);
                (void)mf::mul_ieee(x, y);
                (void)mf::div_ieee(x, y);
            }
        }
    };
    reg().reset();
    drive(mf::MultiFloat<double, 2>{});
    drive(MF3{});
    drive(MF4{});
    const Snapshot snap = reg().snapshot();
    for (const CounterSnap& c : snap.counters) EXPECT_EQ(c.value, 0u) << c.name;
    for (const HistogramSnap& h : snap.histograms) EXPECT_EQ(h.count, 0u) << h.name;
}

TEST(TelemetryRegistry, ResetZeroesValuesButKeepsSeries) {
    reg().reset();
    const CounterId id = reg().counter("test_reset_total");
    reg().add(id, 9);
    reg().reset();
    const Snapshot after_reset = reg().snapshot();
    const CounterSnap* c = find_counter(after_reset, "test_reset_total");
    ASSERT_NE(c, nullptr);  // name survives reset
    EXPECT_EQ(c->value, 0u);
    reg().add(id, 2);  // pre-reset id still valid
    const Snapshot after_add = reg().snapshot();
    ASSERT_NE(find_counter(after_add, "test_reset_total"), nullptr);
    EXPECT_EQ(find_counter(after_add, "test_reset_total")->value, 2u);
}

}  // namespace
