// mf_top: the library's metric viewer -- `top` for mf::telemetry.
//
// Two modes:
//
//   mf_top [--n SIZE] [--reps R] [--metrics PATH] [--trace PATH]
//     Run a traced double x 4 blas::gemm -- the public AoS entry point,
//     which runs the default packed engine -- then print a ranked counter
//     table, write the Prometheus exposition (--metrics, "-" = stdout,
//     default) and the chrome://tracing span JSON (--trace, default
//     mf_top_trace.json). Load the trace into chrome://tracing or
//     https://ui.perfetto.dev to see the per-worker gemm_macro_panel
//     timeline.
//
//   mf_top --from FILE
//     No workload: parse an exposition file previously dumped by another
//     tool (mf_fuzz/mf_calc --metrics) and render the same ranked table.
//
// Exit status is 0 unless an output file cannot be written.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "simd/backend.hpp"
#include "telemetry/telemetry.hpp"

namespace {

struct Row {
    std::string name;
    std::uint64_t value;
};

void print_table(const char* heading, std::vector<Row> rows) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& a, const Row& b) { return a.value > b.value; });
    std::size_t w = std::strlen("metric");
    for (const Row& r : rows) w = std::max(w, r.name.size());
    std::printf("%s\n", heading);
    std::printf("  %-*s  %20s\n", static_cast<int>(w), "metric", "value");
    for (const Row& r : rows) {
        std::printf("  %-*s  %20" PRIu64 "\n", static_cast<int>(w), r.name.c_str(),
                    r.value);
    }
}

/// Parse `name value` sample lines out of Prometheus exposition text
/// (comment lines start with '#'; histogram series parse like counters,
/// which is exactly what a ranked table wants).
bool table_from_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "mf_top: cannot read %s\n", path.c_str());
        return false;
    }
    std::vector<Row> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos || sp + 1 >= line.size()) continue;
        rows.push_back(Row{line.substr(0, sp),
                           std::strtoull(line.c_str() + sp + 1, nullptr, 10)});
    }
    print_table(("metrics from " + path).c_str(), std::move(rows));
    return true;
}

void usage() {
    std::printf(
        "usage: mf_top [--n SIZE] [--reps R] [--metrics PATH] [--trace PATH]\n"
        "       mf_top --from FILE\n"
        "  --n SIZE       GEMM dimension (n x n matrices, default 128)\n"
        "  --reps R       repeat the GEMM R times (default 1)\n"
        "  --metrics PATH write Prometheus exposition to PATH ('-' = stdout)\n"
        "  --trace PATH   write chrome://tracing span JSON to PATH\n"
        "                 (default mf_top_trace.json)\n"
        "  --from FILE    render a ranked table from an exposition file\n");
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t n = 128;
    int reps = 1;
    std::string metrics_path = "-";
    std::string trace_path = "mf_top_trace.json";
    std::string from_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_val = i + 1 < argc;
        if (arg == "--n" && has_val) {
            n = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--reps" && has_val) {
            reps = std::atoi(argv[++i]);
        } else if (arg == "--metrics" && has_val) {
            metrics_path = argv[++i];
        } else if (arg == "--trace" && has_val) {
            trace_path = argv[++i];
        } else if (arg == "--from" && has_val) {
            from_path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "mf_top: unknown argument '%s'\n", arg.c_str());
            usage();
            return 2;
        }
    }
    if (!from_path.empty()) return table_from_file(from_path) ? 0 : 1;
    if (n == 0) n = 1;

    using namespace mf;
    telemetry::Registry::instance().set_trace_enabled(true);

    // Deterministic well-scaled operands (no special values), so the
    // checksum printed below is the same on every run.
    using V = MultiFloat<double, 4>;
    std::vector<V> a(n * n), b(n * n), c(n * n);
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    const auto next = [&s] {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return static_cast<double>(s >> 11) / 9007199254740992.0 - 0.5;
    };
    for (std::size_t i = 0; i < n * n; ++i) {
        a[i] = V(next());
        b[i] = V(next());
    }
    for (int r = 0; r < reps; ++r) {
        blas::gemm(blas::view(std::as_const(a), n, n), blas::view(std::as_const(b), n, n),
                   blas::view(c, n, n));
    }
    // Fold the result into a checksum so the whole computation is observable
    // (and undead-code-eliminable).
    double checksum = 0;
    for (const V& x : c) checksum += x.limb[0];

    const telemetry::BuildInfo info = telemetry::build_info();
    const telemetry::Snapshot snap = telemetry::Registry::instance().snapshot();
    std::printf("mf_top: gemm double x 4, n=%zu, reps=%d, checksum %.6g\n", n, reps,
                checksum);
    std::printf("build: sha=%s threads=%d backend=%s\n", info.git_sha.c_str(),
                info.threads, info.backend.c_str());
    std::printf("spans recorded: %zu\n\n", snap.spans.size());
    std::vector<Row> rows;
    for (const telemetry::CounterSnap& cs : snap.counters) {
        rows.push_back(Row{cs.name, cs.value});
    }
    print_table("counters (ranked)", std::move(rows));
    std::printf("\n");

    bool ok = telemetry::write_chrome_trace(trace_path);
    std::fprintf(stderr, "mf_top: trace -> %s\n", trace_path.c_str());
    ok = telemetry::write_exposition(metrics_path) && ok;
    return ok ? 0 : 1;
}
