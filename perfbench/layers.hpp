#pragma once
// Per-layer metrics of a traced run: the benchmark's own spans, the
// library's `gemm_macro_panel` spans, and deltas of the counters the library
// already exports, mapped onto this repo's layers (mf, simd, blas, engine,
// guard, telemetry). See PREDICTIONS.md for which end-to-end metric each one
// should move.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Counter and histogram-count deltas over the traced calls.
struct CounterDeltas {
    std::map<std::string, double> counters;
    std::map<std::string, double> histogram_counts;

    /// Sum over every label set of one metric family.
    [[nodiscard]] double family(const std::string& prefix) const;
};

/// a - b, name by name (names missing from b count as 0).
[[nodiscard]] CounterDeltas delta(const mf::telemetry::Snapshot& a,
                                  const mf::telemetry::Snapshot& b);
[[nodiscard]] CounterDeltas minus(const CounterDeltas& a, const CounterDeltas& b,
                                  double times);

struct TracedRun {
    std::vector<SpanRec> spans;                    ///< benchmark spans
    std::vector<mf::telemetry::TraceEvent> lib;    ///< library spans, same clock
    int caller_tid = 0;                            ///< registry tid of this thread
    CounterDeltas counters;                        ///< over the calls, checks excluded
    int counter_calls = 0;                         ///< calls the counters cover
    int calls = 0;                                 ///< traced calls
    double call_ns = 0.0;         ///< summed call latency of the traced calls
    double ops_per_call = 0.0;    ///< nominal extended add/sub/mul per call
    double untraced_calls_per_s = 0.0;
    double traced_calls_per_s = 0.0;
};

/// Every per-layer metric, in BENCHMARK.json order. Metrics derived from
/// library counters or library spans are left out when the library was
/// built with MF_TELEMETRY=OFF (absent, not zero).
[[nodiscard]] std::vector<Metric> layer_metrics(const TracedRun& run);

/// `s` with JSON string escapes for quotes and backslashes.
[[nodiscard]] std::string json_escape(const std::string& s);

/// chrome://tracing JSON of the first `max_calls` calls' spans.
void write_trace(const TracedRun& run, int max_calls, const std::string& path,
                 const std::string& provenance_json);

}  // namespace perfbench
