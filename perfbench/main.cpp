// perfbench: the repository benchmark binary (run it through run.py).
//
//   perfbench --workload <gemm_large|lu_solve|fft_roundtrip> --seed <n>
//             --seconds <s> --trace <0|1> [--corrupt] [--trace-out <file>]
//
// Each workload is a closed loop: one client, the next call starts when the
// previous one returns. Every call's output is checked. Set-up (inputs,
// reference, warm-up call) is repeated at evenly spaced points of the run, so
// its median samples the same host conditions as the calls.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced calls (benchmark spans + library trace + counter deltas) and prints
// the per-layer metrics only. --corrupt flips one
// limb of one output: the run must then report failures and exit 1.
//
// stdout: a provenance line, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. A human summary goes to
// stderr. Exit codes: 0 ok, 1 a check failed, 2 usage, 3 host or allocator
// not sane.

#include <malloc.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 7;          // set-up repetitions (median reported)
constexpr int kMinCalls = 100;      // p90 needs >= 10 samples beyond it
constexpr double kMaxSeconds = 120; // hard cap on one measured phase
constexpr int kTraceFileCalls = 4;  // calls written to the trace file
constexpr std::size_t kSpanBudget = 500000;  // spans held by a traced run

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool corrupt = false;
    std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<gemm_large|lu_solve|fft_roundtrip> --seed <n> --seconds <s> "
                 "--trace <0|1> [--corrupt] [--trace-out <file>]\n",
                 msg);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") o.workload = value();
        else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds") o.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace") o.trace = value() == "1";
        else if (a == "--corrupt") o.corrupt = true;
        else if (a == "--trace-out") o.trace_out = value();
        else usage(("unknown argument " + a).c_str());
    }
    if (!(o.seconds > 0)) usage("--seconds must be positive");
    return o;
}

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t seed);

Factory factory(const std::string& name) {
    if (name == "gemm_large") return make_gemm_large;
    if (name == "lu_solve") return make_lu_solve;
    if (name == "fft_roundtrip") return make_fft_roundtrip;
    return nullptr;
}

std::string cpu_name() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        regs[0] >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                        &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

mf::simd::Backend widest_backend() {
    mf::simd::Backend best = mf::simd::Backend::scalar;
    for (auto b : {mf::simd::Backend::neon, mf::simd::Backend::sse2,
                   mf::simd::Backend::avx2, mf::simd::Backend::avx512}) {
        if (mf::simd::backend_available(b)) best = b;
    }
    return best;
}

/// Provenance stamp from telemetry::build_info(), plus the pack width, the
/// telemetry mode, the guard policy and the CPU brand.
std::string provenance(const Options& o) {
    const mf::telemetry::BuildInfo b = mf::telemetry::build_info();
    const mf::simd::Backend be = mf::simd::active_backend();
    char buf[1024];
    std::snprintf(buf, sizeof buf,
                  "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                  "\"git_sha\": \"%s\", \"compiler\": \"%s\", \"backend\": \"%s\", "
                  "\"pack_width\": %d, \"workers\": %u, \"fp_env\": \"%s\", "
                  "\"telemetry\": \"%s\", \"guard_policy\": \"%s\", \"cpu\": \"%s\"}",
                  json_escape(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
                  o.trace ? 1 : 0, json_escape(b.git_sha).c_str(), json_escape(b.compiler).c_str(),
                  b.backend.c_str(), mf::simd::backend_width<double>(be),
                  mf::blas::engine::default_threads(), b.fp_env.c_str(),
                  MF_TELEMETRY_ENABLED ? "on" : "off",
                  mf::guard::policy_name(mf::guard::policy()), json_escape(cpu_name()).c_str());
    return buf;
}

/// Linear-interpolated quantile (q in [0, 1]) of a sample.
double quantile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Tally {
    int attempted = 0;
    int failed = 0;
    double min_bits = 1e300;

    void record(const Check& c) {
        ++attempted;
        if (!c.ok) ++failed;
        min_bits = std::min(min_bits, c.bits);
    }
};

/// One closed-loop step: reset the inputs, time one call. Returns ns.
double timed_call(Workload& w, Tracer* tr, int call_id) {
    w.prepare();
    if (tr) tr->set_call(call_id);
    const std::uint64_t t0 = now_ns();
    {
        Span root(tr, "call");
        w.call(tr);
    }
    return static_cast<double>(now_ns() - t0);
}

/// One timed set-up: inputs, references, and a checked warm-up call. The
/// previous workload is freed first, so set-ups do not raise peak_rss_mb.
void set_up(Factory make, std::uint64_t seed, std::unique_ptr<Workload>& w, Tally& tally,
            std::vector<double>& setups) {
    w.reset();
    const std::uint64_t t0 = now_ns();
    w = make(seed);
    w->prepare();
    w->call(nullptr);
    const Check warm = w->check();
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    tally.record(warm);
}

/// Closed loop for `seconds` (and at least kMinCalls calls), every call
/// checked, with kSetups set-ups evenly spaced over the run. Returns each
/// call's latency in ns.
std::vector<double> measure(Factory make, std::uint64_t seed, double seconds, bool corrupt,
                            Tally& tally, std::vector<double>& setups) {
    std::unique_ptr<Workload> w;
    set_up(make, seed, w, tally, setups);
    std::vector<double> lat;
    const std::uint64_t start = now_ns();
    const auto elapsed = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
    while ((elapsed() < seconds || lat.size() < static_cast<std::size_t>(kMinCalls)) &&
           elapsed() < kMaxSeconds) {
        if (setups.size() < static_cast<std::size_t>(kSetups) &&
            elapsed() >= seconds * static_cast<double>(setups.size()) / kSetups) {
            set_up(make, seed, w, tally, setups);
        }
        lat.push_back(timed_call(*w, nullptr, 0));
        if (corrupt && lat.size() == 3) w->corrupt();
        tally.record(w->check());
    }
    return lat;
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, is not inherited across exec from a larger parent (run.py).
double peak_rss_mib() {
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long kib = 0;
        while (std::fgets(line, sizeof line, f)) {
            if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) break;
        }
        std::fclose(f);
        if (kib > 0) return static_cast<double>(kib) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
}

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
                t.failed == 0 ? "true" : "false", t.attempted, t.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int run(const Options& o) {
    // Host sanity: a misconfigured host must never become a baseline.
    const mf::guard::FpEnvSnapshot env = mf::guard::fp_env_snapshot();
    if (!mf::guard::env_nominal(env)) {
        std::fprintf(stderr, "perfbench: FP environment not nominal (%s); refusing to run\n",
                     mf::guard::fp_env_string(env).c_str());
        return 3;
    }
    if (mf::simd::active_backend() != widest_backend()) {
        std::fprintf(stderr,
                     "perfbench: active SIMD backend %s is not the widest available (%s); "
                     "refusing to run\n",
                     mf::simd::backend_name(mf::simd::active_backend()),
                     mf::simd::backend_name(widest_backend()));
        return 3;
    }
    const Factory make = factory(o.workload);
    if (!make) usage(("unknown workload '" + o.workload + "'").c_str());
    const std::string prov = provenance(o);
    std::printf("{\"provenance\": %s}\n", prov.c_str());
    std::fflush(stdout);

    Tally tally;
    std::vector<double> setups;
    std::vector<Metric> metrics;
    if (!o.trace) {
        const std::vector<double> lat = measure(make, o.seed, o.seconds, o.corrupt, tally, setups);
        metrics = {
            {"setup_s", quantile(setups, 0.5), "s"},
            {"calls_per_s", static_cast<double>(lat.size()) / (sum(lat) * 1e-9), "1/s"},
            {"call_p50_ms", quantile(lat, 0.5) * 1e-6, "ms"},
            {"call_p90_ms", quantile(lat, 0.9) * 1e-6, "ms"},
            {"correct_bits", tally.min_bits, "bits"},
            {"peak_rss_mb", peak_rss_mib(), "MiB"},
        };
        std::fprintf(stderr,
                     "perfbench %s seed=%llu: %zu calls, wrong_frac=%g, p50=%.3f ms, "
                     "p90=%.3f ms, setup=%.3f s (min %.3f, max %.3f), correct_bits=%.2f\n",
                     o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                     lat.size(), static_cast<double>(tally.failed) / tally.attempted,
                     metrics[2].value, metrics[3].value, metrics[0].value,
                     *std::min_element(setups.begin(), setups.end()),
                     *std::max_element(setups.begin(), setups.end()), tally.min_bits);
    } else {
        // Untraced and traced calls alternate, so the tracing overhead is
        // measured under the same host conditions. Counter deltas cover both
        // kinds (each call does the same counted work); spans only the traced.
        std::unique_ptr<Workload> w;
        set_up(make, o.seed, w, tally, setups);
        mf::telemetry::Registry& reg = mf::telemetry::Registry::instance();
        Tracer tracer;
        std::vector<double> plain;
        std::vector<double> traced;
        const mf::telemetry::Snapshot before = reg.snapshot();
        const std::uint64_t start = now_ns();
        const auto elapsed = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
        while (elapsed() < kMaxSeconds) {
            if (traced.size() >= static_cast<std::size_t>(kMinCalls) &&
                (elapsed() >= o.seconds || tracer.spans().size() >= kSpanBudget)) {
                break;
            }
            plain.push_back(timed_call(*w, nullptr, 0));
            tally.record(w->check());
            reg.set_trace_enabled(true);
            traced.push_back(timed_call(*w, &tracer, static_cast<int>(traced.size())));
            reg.set_trace_enabled(false);
            tally.record(w->check());
        }
        const mf::telemetry::Snapshot after = reg.snapshot();
        // The checks ran inside the counted window; one more check measures
        // what each of them added, so the deltas cover the calls alone.
        (void)w->check();
        const mf::telemetry::Snapshot after_check = reg.snapshot();
        TracedRun tr_run;
        tr_run.caller_tid = reg.thread_id();
        tr_run.counter_calls = static_cast<int>(plain.size() + traced.size());
        tr_run.counters = minus(delta(after, before), delta(after_check, after),
                                static_cast<double>(tr_run.counter_calls));
        tr_run.spans = tracer.spans();
        tr_run.lib = after.spans;
        tr_run.calls = static_cast<int>(traced.size());
        tr_run.call_ns = sum(traced);
        tr_run.ops_per_call = w->ops_per_call();
        tr_run.untraced_calls_per_s = static_cast<double>(plain.size()) / (sum(plain) * 1e-9);
        tr_run.traced_calls_per_s = static_cast<double>(traced.size()) / (sum(traced) * 1e-9);
        metrics = layer_metrics(tr_run);
        if (!o.trace_out.empty()) write_trace(tr_run, kTraceFileCalls, o.trace_out, prov);
        std::fprintf(stderr, "perfbench %s traced: %zu untraced + %zu traced calls, %zu spans\n",
                     o.workload.c_str(), plain.size(), traced.size(),
                     tr_run.spans.size() + tr_run.lib.size());
    }
    print_result(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    // Serve every allocation up to glibc's largest mmap threshold (32 MiB;
    // the biggest buffer here is a 4 MiB matrix) from the heap and never give
    // memory back, so peak_rss_mb measures the footprint rather than glibc's
    // run-dependent choice between mmap and heap. mallopt returns 0 when it
    // rejects a value.
    if (mallopt(M_MMAP_THRESHOLD, 32 << 20) == 0 || mallopt(M_TRIM_THRESHOLD, -1) == 0) {
        std::fprintf(stderr, "perfbench: cannot pin the allocator to the heap\n");
        return 3;
    }
    return perfbench::run(perfbench::parse(argc, argv));
}
