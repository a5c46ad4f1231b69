#pragma once
// Prometheus-style text exposition of a registry snapshot.
//
// Counters render as `name{labels} value` with one `# TYPE base counter`
// line per base name (labels are part of the registered name, so one base
// can fan out into many series). Histograms render in the standard
// cumulative-bucket form; because observations are log2-bucketed, every
// `le` edge is an exact power of two:
//
//   # TYPE mf_gemm_macro_panel_ns histogram
//   mf_gemm_macro_panel_ns_bucket{le="131072"} 3
//   mf_gemm_macro_panel_ns_bucket{le="262144"} 9
//   mf_gemm_macro_panel_ns_bucket{le="+Inf"} 9
//   mf_gemm_macro_panel_ns_sum 1482211
//   mf_gemm_macro_panel_ns_count 9
//
// The first sample is an `mf_build_info` series (value 1) carrying the
// provenance labels from build_info(), the idiomatic way to ship build
// metadata through a metrics pipeline.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "build_info.hpp"
#include "registry.hpp"

namespace mf::telemetry {

namespace detail {

/// Metric names/labels are library-controlled ASCII; strip the two
/// characters that could break the text format, as the JSON writers do.
[[nodiscard]] inline std::string expo_clean(const std::string& s) {
    std::string r;
    for (char c : s) {
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) r.push_back(c);
    }
    return r;
}

[[nodiscard]] inline std::string base_name(const std::string& name) {
    const std::size_t brace = name.find('{');
    return brace == std::string::npos ? name : name.substr(0, brace);
}

/// Splice an `le` label into a (possibly already labeled) histogram name:
/// "h" -> "h_bucket{le=\"8\"}", "h{k=\"v\"}" -> "h_bucket{k=\"v\",le=\"8\"}".
[[nodiscard]] inline std::string bucket_series(const std::string& name,
                                               const std::string& le) {
    const std::size_t brace = name.find('{');
    if (brace == std::string::npos) {
        return name + "_bucket{le=\"" + le + "\"}";
    }
    std::string labels = name.substr(brace + 1);  // "k=\"v\"}"
    labels.pop_back();                            // drop '}'
    return name.substr(0, brace) + "_bucket{" + labels + ",le=\"" + le + "\"}";
}

[[nodiscard]] inline std::string suffixed_series(const std::string& name,
                                                 const char* suffix) {
    const std::size_t brace = name.find('{');
    if (brace == std::string::npos) return name + suffix;
    return name.substr(0, brace) + suffix + name.substr(brace);
}

}  // namespace detail

/// Render a snapshot as Prometheus exposition text.
[[nodiscard]] inline std::string render_exposition(const Snapshot& snap,
                                                   const BuildInfo& info) {
    std::string out;
    out += "# mf::telemetry exposition\n";
    out += "# TYPE mf_build_info gauge\n";
    out += "mf_build_info{git_sha=\"" + detail::expo_clean(info.git_sha) +
           "\",compiler=\"" + detail::expo_clean(info.compiler) + "\",threads=\"" +
           std::to_string(info.threads) + "\",backend=\"" +
           detail::expo_clean(info.backend) + "\",fp_env=\"" +
           detail::expo_clean(info.fp_env) + "\"} 1\n";

    std::string last_base;
    for (const CounterSnap& c : snap.counters) {
        const std::string base = detail::base_name(c.name);
        if (base != last_base) {
            out += "# TYPE " + base + " counter\n";
            last_base = base;
        }
        out += c.name + " " + std::to_string(c.value) + "\n";
    }

    for (const HistogramSnap& h : snap.histograms) {
        out += "# TYPE " + detail::base_name(h.name) + " histogram\n";
        int top = -1;
        for (int b = 0; b < kHistBuckets; ++b) {
            if (h.bucket[static_cast<std::size_t>(b)] != 0) top = b;
        }
        std::uint64_t cum = 0;
        // Cumulative buckets up to the highest populated one; bucket b holds
        // [2^b, 2^(b+1)), so its upper edge is 2^(b+1). The final kHistBuckets-1
        // bucket is open-ended and only ever rendered as +Inf.
        for (int b = 0; b <= top && b < kHistBuckets - 1; ++b) {
            cum += h.bucket[static_cast<std::size_t>(b)];
            const std::uint64_t edge = std::uint64_t{1} << (b + 1);
            out += detail::bucket_series(h.name, std::to_string(edge)) + " " +
                   std::to_string(cum) + "\n";
        }
        out += detail::bucket_series(h.name, "+Inf") + " " + std::to_string(h.count) + "\n";
        out += detail::suffixed_series(h.name, "_sum") + " " + std::to_string(h.sum) + "\n";
        out += detail::suffixed_series(h.name, "_count") + " " +
               std::to_string(h.count) + "\n";
    }
    return out;
}

/// Snapshot the process registry and write the exposition to `path`
/// ("-" = stdout). Returns false (with a stderr note) on IO failure.
inline bool write_exposition(const std::string& path) {
    const std::string text =
        render_exposition(Registry::instance().snapshot(), build_info());
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return true;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "mf::telemetry: cannot write %s\n", path.c_str());
        return false;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    return true;
}

}  // namespace mf::telemetry
