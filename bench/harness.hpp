#pragma once
// Shared benchmark harness for the paper's evaluation (§5): timing,
// throughput accounting, workload sizing, and table rendering.
//
// Conventions follow the paper: one "operation" is one multiplication
// followed by one addition, so AXPY/DOT perform n ops, GEMV n^2, GEMM n^3.
// Throughput is reported in billions of extended-precision operations per
// second (GOp/s).
//
// Deviation from the paper's methodology: problem sizes are chosen per
// number type so one measurement takes a sane wall time -- capped above by
// the L3-resident sizes the paper uses, and below so slow software-FPU
// baselines still finish. All kernels are compute-bound at
// these sizes, so GOp/s is insensitive to the exact n. See EXPERIMENTS.md.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace mf::bench {

/// Wall-clock seconds of invoking f() once.
template <typename F>
double time_once(F&& f) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/// Repeat f() until at least `min_time` seconds have elapsed in total, then
/// return the best per-iteration time (paper reports peak throughput).
template <typename F>
double best_time(F&& f, double min_time = 0.15, int min_reps = 3) {
    double best = 1e100;
    double total = 0.0;
    int reps = 0;
    while (total < min_time || reps < min_reps) {
        const double t = time_once(f);
        best = std::min(best, std::max(t, 1e-9));
        total += t;
        ++reps;
        if (reps > 10000) break;
    }
    return best;
}

/// One warm-up call, then repeat f() until at least `min_time` seconds AND
/// at least `min_reps` samples, and return the median per-iteration time.
/// Where best_time() reports peak throughput (the paper's headline metric),
/// the median is the robust estimator the BENCH_*.json trajectories want:
/// insensitive to the one-off stalls (page faults, frequency ramps, sibling
/// noise) that make best-of runs irreproducible across machines.
template <typename F>
double median_time(F&& f, double min_time = 0.15, int min_reps = 5) {
    time_once(f);  // warm-up: touch the working set, settle the clocks
    std::vector<double> samples;
    double total = 0.0;
    while (total < min_time || static_cast<int>(samples.size()) < min_reps) {
        const double t = std::max(time_once(f), 1e-9);
        samples.push_back(t);
        total += t;
        if (samples.size() > 10000) break;
    }
    const std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                     samples.end());
    return samples[mid];
}

/// Seconds per pass of each of `f...`: rounds of one timed pass of each in
/// turn until `budget` seconds (and at least 11 rounds), and per function the
/// median over rounds. Interleaving puts the host's drift on every variant
/// alike, and the median ignores the rounds an interrupt lands in. Also
/// returns, for each function, the median over rounds of its time over the
/// first function's.
template <typename... F>
std::pair<std::array<double, sizeof...(F)>, std::array<double, sizeof...(F)>> interleaved(
    double budget, F&&... f) {
    constexpr std::size_t K = sizeof...(F);
    std::array<std::vector<double>, K> t, ratio;
    double total = 0.0;
    while (total < budget || t[0].size() < 11) {
        std::array<double, K> round{};
        std::size_t i = 0;
        ((round[i++] = time_once(f)), ...);
        for (std::size_t k = 0; k < K; ++k) {
            t[k].push_back(round[k]);
            ratio[k].push_back(round[k] / round[0]);
            total += round[k];
        }
    }
    const auto median = [](std::vector<double>& v) {
        std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                         v.end());
        return v[v.size() / 2];
    };
    std::array<double, K> secs{}, rel{};
    for (std::size_t k = 0; k < K; ++k) {
        secs[k] = median(t[k]);
        rel[k] = median(ratio[k]);
    }
    return {secs, rel};
}

/// L3 cache size in bytes (sysfs, fallback 16 MiB).
std::size_t l3_cache_bytes();

/// One table cell: GOp/s or N/A.
struct Cell {
    bool available = false;
    double gops = 0.0;
};

/// A paper-style table: rows = libraries, columns = precisions.
struct Table {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::string> rows;
    std::vector<std::vector<Cell>> cells;  // [row][col]

    void set(std::size_t r, std::size_t c, double gops) {
        cells[r][c] = {true, gops};
    }
    void print(std::FILE* out = stdout) const;
    /// Best available value in a column excluding the given row.
    [[nodiscard]] double best_excluding(std::size_t row, std::size_t col) const;
};

Table make_table(std::string title, std::vector<std::string> rows,
                 std::vector<std::string> columns);

/// Short CPU description for table headers.
std::string cpu_name();

/// One machine-readable measurement for the BENCH_*.json trajectories:
/// which kernel on which number type, which SIMD backend and pack width ran
/// it, and what it cost. `gflops_equiv` is the native-FLOP-equivalent
/// throughput (extended ops/s x native flops per extended op), so trends
/// stay comparable across N and against plain-double peaks.
struct JsonRecord {
    std::string kernel;   // "axpy", "dot", "gemm", ...
    std::string type;     // "double", "float"
    int limbs = 0;        // expansion length N
    std::string backend;  // "scalar" | "sse2" | "avx2" | "avx512" | "neon"
                          // | "autovec" (pre-SIMD compiler-vectorized path)
    int width = 0;        // pack lanes (0 for autovec)
    double ns_per_op = 0.0;
    double gflops_equiv = 0.0;
    std::size_t dim = 0;  // problem dimension (GEMM n of n^3), 0 = n/a
    int threads = 0;      // workers the record ran with; 0 = runtime default
                          // (the document-level "threads" stamp), omitted
    // Optional, omitted when empty/zero:
    std::string op{};        // the entry a "blas_entry" / "lu_update" record timed:
                             // "axpy", "dot", "ger", "iamax" / "gemm_packed",
                             // "blas_gemm"
    std::size_t k = 0;       // GEMM inner dimension when it is not `dim` (n x k x n);
                             // a ger's column count (dim rows x k columns)
    std::string guard{};     // MF_GUARD_POLICY the record ran under
    double ceiling_ns = 0.0; // the same work without the entry's fixed costs
};

/// Collects JsonRecords and writes one self-describing JSON document.
struct JsonReport {
    std::string bench;  // benchmark family, e.g. "simd_planar"
    std::vector<JsonRecord> records;

    void add(JsonRecord r) { records.push_back(std::move(r)); }
    /// Write {"bench":..., "cpu":..., provenance..., "records":[...]} to
    /// `path`. Provenance (git_sha / compiler / threads / backend) comes from
    /// mf::telemetry::build_info(), so BENCH and CHECK JSON carry identical
    /// stamps. Returns false (and prints to stderr) on IO failure.
    bool write(const std::string& path) const;
};

/// Deterministic fill value in [1, 2): benign magnitudes so every library
/// runs its common path (matching the paper's dense BLAS workloads).
inline double fill_value(std::mt19937_64& rng) {
    return 1.0 + static_cast<double>(rng() >> 12) * 0x1p-52;
}

}  // namespace mf::bench
