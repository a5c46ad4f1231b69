#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string_view>
#include <utility>

namespace perfbench {
namespace {

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Length of the union of `v`, clipped to [lo, hi].
std::uint64_t covered(std::vector<Interval> v, std::uint64_t lo, std::uint64_t hi) {
    std::sort(v.begin(), v.end());
    std::uint64_t total = 0;
    std::uint64_t end = lo;
    for (auto [a, b] : v) {
        a = std::max(a, end);
        b = std::min(b, hi);
        if (b > a) {
            total += b - a;
            end = b;
        }
    }
    return total;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    double m = v[mid];
    if (v.size() % 2 == 0) {
        m = (m + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid))) / 2;
    }
    return m;
}

bool starts_with(std::string_view s, std::string_view p) {
    return s.substr(0, p.size()) == p;
}

double dur(const SpanRec& s) { return static_cast<double>(s.t1 - s.t0); }

/// Finds the benchmark span a library span belongs to. Call roots are
/// sorted by start time; spans of one call are contiguous.
struct Attacher {
    const std::vector<SpanRec>& spans;
    std::vector<int> roots;
    std::vector<int> depth;

    explicit Attacher(const std::vector<SpanRec>& s) : spans(s), depth(s.size(), 0) {
        for (std::size_t i = 0; i < s.size(); ++i) {
            if (s[i].parent < 0) {
                roots.push_back(static_cast<int>(i));
            } else {
                depth[i] = depth[static_cast<std::size_t>(s[i].parent)] + 1;
            }
        }
    }

    /// Index of the deepest benchmark span containing `e`, or -1.
    int owner(const mf::telemetry::TraceEvent& e) const {
        auto it = std::upper_bound(roots.begin(), roots.end(), e.begin_ns,
                                   [this](std::uint64_t t, int r) {
                                       return t < spans[static_cast<std::size_t>(r)].t0;
                                   });
        if (it == roots.begin()) return -1;
        const int root = *std::prev(it);
        const int stop = it == roots.end() ? static_cast<int>(spans.size()) : *it;
        int best = -1;
        for (int i = root; i < stop; ++i) {
            const SpanRec& s = spans[static_cast<std::size_t>(i)];
            if (s.t0 <= e.begin_ns && e.end_ns <= s.t1 &&
                (best < 0 || depth[static_cast<std::size_t>(i)] >
                                 depth[static_cast<std::size_t>(best)])) {
                best = i;
            }
        }
        return best;
    }
};

}  // namespace

std::string json_escape(const std::string& s) {
    std::string r;
    for (char c : s) {
        if (c == '"' || c == '\\') r += '\\';
        r += c;
    }
    return r;
}

double CounterDeltas::family(const std::string& prefix) const {
    double sum = 0.0;
    for (const auto& [name, v] : counters) {
        if (name == prefix || starts_with(name, prefix + "{")) sum += v;
    }
    return sum;
}

CounterDeltas delta(const mf::telemetry::Snapshot& a, const mf::telemetry::Snapshot& b) {
    CounterDeltas d;
    for (const auto& c : a.counters) d.counters[c.name] += static_cast<double>(c.value);
    for (const auto& c : b.counters) d.counters[c.name] -= static_cast<double>(c.value);
    for (const auto& h : a.histograms) {
        d.histogram_counts[h.name] += static_cast<double>(h.count);
    }
    for (const auto& h : b.histograms) {
        d.histogram_counts[h.name] -= static_cast<double>(h.count);
    }
    return d;
}

CounterDeltas minus(const CounterDeltas& a, const CounterDeltas& b, double times) {
    CounterDeltas d = a;
    for (const auto& [name, v] : b.counters) d.counters[name] -= times * v;
    for (const auto& [name, v] : b.histogram_counts) d.histogram_counts[name] -= times * v;
    return d;
}

std::vector<Metric> layer_metrics(const TracedRun& run) {
    const std::vector<SpanRec>& spans = run.spans;
    const double calls = std::max(run.calls, 1);
    const Attacher attach(spans);

    // Children of every benchmark span: benchmark spans plus attached
    // library spans, once over all threads and once on the calling thread.
    std::vector<std::vector<Interval>> kids_all(spans.size());
    std::vector<std::vector<Interval>> kids_caller(spans.size());
    for (const SpanRec& s : spans) {
        if (s.parent >= 0) {
            kids_all[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
            kids_caller[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
        }
    }
    // Engine spans: benchmark spans whose call ran macro-panels.
    std::vector<std::set<int>> panel_tids(spans.size());
    std::vector<double> panel_ns(spans.size(), 0.0);
    std::vector<double> panel_durs;
    double caller_lib_ns = 0.0;
    for (const auto& e : run.lib) {
        const int o = attach.owner(e);
        if (o < 0) continue;
        const auto oi = static_cast<std::size_t>(o);
        kids_all[oi].push_back({e.begin_ns, e.end_ns});
        if (e.tid == run.caller_tid) {
            kids_caller[oi].push_back({e.begin_ns, e.end_ns});
            caller_lib_ns += static_cast<double>(e.end_ns - e.begin_ns);
        }
        if (e.name == "gemm_macro_panel") {
            panel_tids[oi].insert(e.tid);
            panel_ns[oi] += static_cast<double>(e.end_ns - e.begin_ns);
            panel_durs.push_back(static_cast<double>(e.end_ns - e.begin_ns));
        }
    }

    double engine_ns = 0.0, engine_work = 0.0, engine_serial_ns = 0.0;
    double panels_ns = 0.0, worker_ns = 0.0;
    std::size_t workers = 0;
    double self_sum_ns = caller_lib_ns;
    std::map<std::string, double> busy;    // group -> ns
    std::map<std::string, double> ncalls;  // group -> layer calls
    std::map<std::string, double> work;    // group -> work
    std::vector<double> small_calls_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRec& s = spans[i];
        // The root's self time is whatever no layer span covers; leaving it
        // out makes the sum the share of the call the layer spans account for.
        if (s.parent >= 0) {
            self_sum_ns += dur(s) - static_cast<double>(covered(kids_caller[i], s.t0, s.t1));
        }
        const std::string_view name = s.name;
        std::string group(name.substr(0, name.rfind('.')));
        if (starts_with(name, "lu.") || starts_with(name, "fft.")) group = s.name;
        busy[group] += dur(s);
        ncalls[group] += 1;
        work[group] += static_cast<double>(s.work);
        if (starts_with(name, "blas.") && s.work <= 64) small_calls_ns.push_back(dur(s));
        if (!panel_tids[i].empty()) {
            engine_ns += dur(s);
            engine_work += static_cast<double>(s.work);
            engine_serial_ns +=
                dur(s) - static_cast<double>(covered(kids_all[i], s.t0, s.t1));
            panels_ns += panel_ns[i];
            worker_ns += dur(s) * static_cast<double>(panel_tids[i].size());
            workers = std::max(workers, panel_tids[i].size());
        }
    }

    const auto per_call_s = [&](const std::string& g) { return busy[g] * 1e-9 / calls; };
    const auto per_call = [&](double v) { return v / calls; };
    const double ccalls = std::max(run.counter_calls, 1);
    const auto per_ccall = [&](double v) { return v / ccalls; };
    const CounterDeltas& c = run.counters;
    const double pack_a = c.family("mf_gemm_pack_bytes_total{panel=\"a\"}");
    const double pack_b = c.family("mf_gemm_pack_bytes_total{panel=\"b\"}");
    const double ops = run.ops_per_call * calls;
    const double counted_ops = run.ops_per_call * ccalls;
    const double guard_checks = c.family("mf_guard_check_total");
    const bool lib = MF_TELEMETRY_ENABLED != 0;  // library counters and spans exist

    std::vector<Metric> m;
    const auto add = [&m](const char* name, double v, const char* unit) {
        m.push_back({name, v, unit});
    };
    if (lib) {
        add("engine.gemm.busy_s", engine_ns * 1e-9 / calls, "s/call");
        add("engine.ns_per_madd", engine_work > 0 ? engine_ns / engine_work : 0.0, "ns");
        add("engine.workers", static_cast<double>(workers), "count");
        add("engine.worker_busy_frac", worker_ns > 0 ? panels_ns / worker_ns : 0.0, "ratio");
        add("engine.idle_s", (worker_ns - panels_ns) * 1e-9 / calls, "s/call");
        add("engine.serial_s", engine_serial_ns * 1e-9 / calls, "s/call");
        add("engine.macro_panels",
            per_ccall(c.histogram_counts.count("mf_gemm_macro_panel_ns")
                         ? c.histogram_counts.at("mf_gemm_macro_panel_ns")
                         : 0.0),
            "count/call");
        add("engine.macro_panel_p50_us", median(panel_durs) * 1e-3, "us");
        add("engine.pack_a_bytes", per_ccall(pack_a), "B/call");
        add("engine.pack_b_bytes", per_ccall(pack_b), "B/call");
        add("engine.madds_per_pack_byte",
            pack_a + pack_b > 0 ? engine_work / calls / per_ccall(pack_a + pack_b) : 0.0,
            "madd/B");
        add("engine.microkernel_calls", per_ccall(c.family("mf_gemm_microkernel_total")),
            "count/call");
    }
    add("blas.gemm.calls", per_call(ncalls["blas.gemm"]), "count/call");
    add("blas.gemm.busy_s", per_call_s("blas.gemm"), "s/call");
    add("blas.gemm.madds", per_call(work["blas.gemm"]), "madd/call");
    for (const char* g : {"blas.panel", "blas.trsm", "blas.update", "blas.trsv"}) {
        add((std::string(g) + ".calls").c_str(), per_call(ncalls[g]), "count/call");
        add((std::string(g) + ".busy_s").c_str(), per_call_s(g), "s/call");
    }
    add("blas.entry_ns", median(small_calls_ns), "ns");
    if (lib) {
        add("simd.axpy_aos.ops",
            per_ccall(c.family("mf_simd_kernel_ops_total{kernel=\"axpy_aos\"}")), "ops/call");
        add("simd.dot_aos.ops",
            per_ccall(c.family("mf_simd_kernel_ops_total{kernel=\"dot_aos\"}")), "ops/call");
        add("guard.checks", guard_checks, "count");
        add("guard.checks_per_call", per_ccall(guard_checks), "count/call");
        add("guard.violations", c.family("mf_guard_violation_total"), "count");
        add("guard.degraded", c.family("mf_guard_degraded_total"), "count");
    }
    add("mf.ops", run.ops_per_call, "ops/call");
    add("mf.ns_per_op", ops > 0 ? run.call_ns / ops : 0.0, "ns");
    add("fft.bitrev_busy_s", per_call_s("fft.bitrev"), "s/call");
    add("fft.butterfly_busy_s", per_call_s("fft.butterfly"), "s/call");
    add("lu.scalar_busy_s", per_call_s("lu.scalar"), "s/call");
    if (lib) {
        const double renorm = c.family("mf_renorm_accumulate_total");
        add("mf.renorm_calls", per_ccall(renorm), "count/call");
        add("mf.ieee_fixups", per_ccall(c.family("mf_ieee_fixup_total")), "count/call");
        double counter_sum = 0.0;
        for (const auto& [name, v] : c.counters) counter_sum += v;
        add("telemetry.counter_bumps_per_op", counted_ops > 0 ? counter_sum / counted_ops : 0.0,
            "bumps/op");
    }
    add("telemetry.trace_overhead_frac",
        run.untraced_calls_per_s > 0
            ? 1.0 - run.traced_calls_per_s / run.untraced_calls_per_s
            : 0.0,
        "ratio");
    add("trace.self_sum_frac", run.call_ns > 0 ? self_sum_ns / run.call_ns : 0.0, "ratio");
    add("trace.spans_per_call", per_call(static_cast<double>(spans.size() + run.lib.size())),
        "count/call");
    return m;
}

void write_trace(const TracedRun& run, int max_calls, const std::string& path,
                 const std::string& provenance_json) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
        return;
    }
    std::uint64_t end_ns = 0;
    for (const SpanRec& s : run.spans) {
        if (s.call >= max_calls) break;
        end_ns = std::max(end_ns, s.t1);
    }
    std::fprintf(f, "{\"provenance\": %s,\n\"traceEvents\": [\n", provenance_json.c_str());
    bool first = true;
    const auto event = [&](const std::string& name, int tid, std::uint64_t t0,
                           std::uint64_t t1, int call, int parent, std::uint64_t work) {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, "
                     "\"dur\": %.3f, \"args\": {\"call\": %d, \"parent\": %d, "
                     "\"work\": %llu}}",
                     first ? "" : ",\n", json_escape(name).c_str(), tid,
                     static_cast<double>(t0) * 1e-3,
                     static_cast<double>(t1 - t0) * 1e-3, call, parent,
                     static_cast<unsigned long long>(work));
        first = false;
    };
    for (const SpanRec& s : run.spans) {
        if (s.call >= max_calls) break;
        event(s.name, run.caller_tid, s.t0, s.t1, s.call, s.parent, s.work);
    }
    for (const auto& e : run.lib) {
        if (e.end_ns <= end_ns) event(e.name, e.tid, e.begin_ns, e.end_ns, -1, -1, 0);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

}  // namespace perfbench
