// The packed GEMM engine (blas/engine/) at 1, 2 and 4 workers, with
// machine-readable output (BENCH_gemm.json). The first section times the
// planar entry, blas::gemm_packed, on cubes of every expansion length; the
// second times the public AoS entry, blas::gemm on Float64x2 vectors (the
// same engine reading interleaved storage): the small cubes there are where
// the engine's ic x jr split decides whether extra cores help. A third
// section times the blocked LU's trailing updates, n x 32 times 32 x n
// ("lu_update" records, both entries). Every GEMM record carries a
// ceiling_ns: the port-bound time per madd, madd_flops(N) vector FP ops
// (a TwoSum counted as the instructions the backend issues for it) over the
// rate a many-chain vector add loop reaches, per worker. Then a line
// prints the engine's fork/join cost, and a last section times small
// blas::axpy / blas::dot calls and the LU panel's blas::ger / blas::iamax
// calls and the U12 solve's blas::ger against their raw SIMD kernels (the
// public entry's fixed cost: "blas_entry" records with a ceiling_ns).
// Untimed 4-worker products run before the first record until their calls
// take a steady time (warm_up_team).
//
// The engine is the library's only GEMM: its result is bit-identical to the
// scalar check::reference_gemm for every worker count (the conformance tier
// enforces it), so the thread sweep isolates pure scheduling effects. The
// headline comparison is Float64x2 at 512^3 (the paper's L3-resident GEMM
// regime); smaller dims and longer expansions chart where the engine's
// overheads amortize. EXPERIMENTS.md analyses these numbers.
//
// Timings use median-of-K (bench::median_time): these records feed the
// BENCH_*.json trajectories, where run-to-run robustness beats peak
// flattery. The JSON is stamped with git SHA / compiler / thread count /
// active backend (harness.cpp, via mf::telemetry::build_info()).
//
//   usage: bench_gemm [--quick] [output.json]     (default BENCH_gemm.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "fpan/gates.hpp"
#include "guard/guard.hpp"
#include "harness.hpp"
#include "simd/simd.hpp"

namespace {

using namespace mf;

/// Launder a size through a volatile so the trip counts are runtime values
/// for every engine alike (no constant-propagated specializations).
std::size_t runtime_size(std::size_t v) {
    volatile std::size_t s = v;
    return s;
}

template <FloatingPoint T, int N>
planar::Vector<T, N> random_planar(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    planar::Vector<T, N> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v.set(i, MultiFloat<T, N>(static_cast<T>(bench::fill_value(rng))));
    }
    return v;
}

/// Vector FP ops per second one core retires on the active backend:
/// independent chains of Pack<T, W> adds (vaddpd on AVX-512 doubles), enough
/// of them to hide the add latency, so the loop runs at the FP ports'
/// throughput. Best of many runs: a ceiling is the fastest the core goes.
/// On the 4-core AVX-512 Xeon, 8 chains read 7% under 12 or 16 chains.
template <FloatingPoint T>
double vector_op_rate(double min_time) {
    return simd::with_active_width<T>([&](auto w) {
        constexpr int W = w();
        using P = simd::Pack<T, W>;
        constexpr int kChains = 16;
        const std::size_t iters = runtime_size(1u << 16);
        volatile T sink = 0;
        const double secs = bench::best_time(
            [&] {
                P acc[kChains];
                for (int c = 0; c < kChains; ++c) acc[c] = P::broadcast(T(1 + c));
                const P inc = P::broadcast(T(0x1p-20));
                for (std::size_t i = 0; i < iters; ++i) {
#pragma GCC unroll 16
                    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] + inc;
                }
                T total = 0;
                for (int c = 0; c < kChains; ++c) total += acc[c][0];
                sink = total;
            },
            min_time);
        return kChains * static_cast<double>(iters) / secs;
    });
}

/// Port-bound ns per madd of an N-limb GEMM on `threads` workers, each
/// retiring `rate` vector ops per second on the active backend's T packs:
/// madd_flops(N) with a TwoSum counted as the instructions it issues there
/// (5 on AVX-512DQ packs, 6 elsewhere), so the ceiling stays a floor.
template <FloatingPoint T>
double ceiling_ns(int limbs, double rate, int threads) {
    return simd::with_active_width<T>([&](auto w) {
        constexpr int two_sum_ops = OrderedTwoSum<simd::Pack<T, w()>> ? 5 : 6;
        return fpan::madd_flops(limbs, two_sum_ops) / (w() * rate * threads) * 1e9;
    });
}

void report(bench::JsonReport& out, const char* kernel, const char* type,
            int limbs, int width, double secs, double ops, std::size_t dim,
            int threads, double ceiling, const char* op = "", std::size_t k = 0) {
    const double ns = secs / ops * 1e9;
    const double gflops = ops * fpan::madd_flops(limbs) / secs / 1e9;
    std::printf("  %-11s %-11s %-7s N=%d  %4zu", kernel, op, type, limbs, dim);
    if (k) {
        std::printf("x%zu", k);
    } else {
        std::printf("^3 ");
    }
    std::printf("  w=%-2d  %8.3f ns/op  %8.3f GFLOP-equiv/s  threads=%d", width, ns, gflops,
                threads);
    std::printf("  ceiling %.3f ns (%.0f%%)\n", ceiling, 100.0 * ceiling / ns);
    bench::JsonRecord r{kernel, type, limbs, simd::backend_name(simd::active_backend()),
                        width, ns, gflops, dim, threads};
    r.op = op;
    r.k = k;
    r.ceiling_ns = ceiling;
    out.add(std::move(r));
}

/// gemm_packed on n x k times k x n at 1, 2 and 4 workers
/// (GemmConfig::max_threads): cubes (k = n) as "gemm_packed" records, the LU's skinny updates
/// (k = 32, Float64x2) as "lu_update" ones. C accumulates across reps (the
/// contract is C += A B) -- harmless for timing.
template <FloatingPoint T, int N>
void run_packed(bench::JsonReport& out, const char* type_name, std::size_t dim,
                double min_time, double rate, std::size_t kdim = 0) {
    const std::size_t n = runtime_size(dim);
    const std::size_t k = runtime_size(kdim ? kdim : dim);
    const bool cube = n == k;
    const double ops = double(n) * double(n) * double(k);
    const auto a = random_planar<T, N>(n * k, 3);
    const auto b = random_planar<T, N>(k * n, 4);
    planar::Vector<T, N> c(n * n);
    const int width = simd::active_width<T>();

    double t1 = 0.0;
    for (unsigned t : {1u, 2u, 4u}) {
        blas::GemmConfig cfg;
        cfg.max_threads = t;
        const double tp = bench::median_time(
            [&] {
                blas::gemm_packed(planar::matrix_view(a, n, k),
                                  planar::matrix_view(b, k, n),
                                  planar::matrix_view(c, n, n), cfg);
            },
            min_time);
        const int threads = static_cast<int>(t);
        report(out, cube ? "gemm_packed" : "lu_update", type_name, N, width, tp, ops, n,
               threads, ceiling_ns<T>(N, rate, threads), cube ? "" : "gemm_packed",
               cube ? 0 : k);
        if (t == 1) {
            t1 = tp;
        } else {
            std::printf("  %-11s %-7s N=%d  %4zu", "(speedup)", type_name, N, n);
            if (cube) {
                std::printf("^3 ");
            } else {
                std::printf("x%zu", k);
            }
            std::printf("  %u workers vs 1: %.3fx\n", t, t1 / tp);
        }
    }
}

/// Public AoS blas::gemm (C = A B over Float64x2 vectors), n x k times
/// k x n, at 1, 2 and 4 workers (engine::set_default_threads; blas::gemm
/// takes its worker count from the engine's default): the cubes (k = n) as "blas_gemm"
/// records, the LU's skinny updates (k = 32) as "lu_update" ones.
void run_blas_gemm(bench::JsonReport& out, std::size_t dim, std::size_t kdim,
                   double min_time, double rate) {
    using V = MultiFloat<double, 2>;
    const std::size_t n = runtime_size(dim);
    const std::size_t k = runtime_size(kdim);
    const double ops = double(n) * double(n) * double(k);
    std::mt19937_64 rng(5);
    std::vector<V> a(n * k), b(k * n), c(n * n);
    for (V& x : a) x = V(bench::fill_value(rng));
    for (V& x : b) x = V(bench::fill_value(rng));
    const int width = simd::active_width<double>();
    const bool cube = n == k;
    for (int t : {1, 2, 4}) {
        const unsigned saved = blas::engine::set_default_threads(static_cast<unsigned>(t));
        const double secs = bench::median_time(
            [&] {
                blas::gemm(blas::view(std::as_const(a), n, k), blas::view(std::as_const(b), k, n),
                           blas::view(c, n, n));
            },
            min_time);
        blas::engine::set_default_threads(saved);
        report(out, cube ? "blas_gemm" : "lu_update", "double", 2, width, secs, ops, n, t,
               ceiling_ns<double>(2, rate, t), cube ? "" : "blas_gemm", cube ? 0 : k);
    }
}

/// Fixed cost of a small public call: blas::axpy and blas::dot on n in
/// {8, 64} Float64x2 elements, the blocked LU panel's short calls --
/// blas::ger on 255 rows of 7 and of 31 columns (`k` = columns) and
/// blas::iamax over 255 elements -- and the U12 solve's first blas::ger, 31
/// rows of 224 columns, under MF_GUARD_POLICY warn and ignore, one record per
/// call with ns_per_op = ns per call. Each record's ceiling_ns is the same
/// work without the entry: the dispatched simd::axpy / dot / iamax kernel on
/// the same AoS data, and for ger one width resolve plus the bare
/// kernels::ger rank-1 kernel, split by the same engine::parallel_for fork
/// decision. The gap is what the entry adds: the guard sentinel, the
/// workers' FP-environment scopes and the view checks. Calls are timed in
/// batches; a single call is near the clock's resolution. Each call of a
/// batch takes the next row of a ring of kRing rows at the LU's stride, as
/// the LU's calls do: rerunning one short row in place would time store
/// forwarding and code alignment instead of the call. Entry and kernel
/// batches alternate in one loop, so both see the same host state and the
/// ceiling is a floor; each reports its median batch, or its best batch for
/// the n = 8 calls, whose medians swing by tens of percent between runs.
void run_blas_entry(bench::JsonReport& out, double min_time) {
    using V = MultiFloat<double, 2>;
    constexpr int kBatch = 256;
    constexpr std::size_t kRing = 64;
    const guard::Policy saved = guard::policy();
    const int width = simd::active_width<double>();
    // Rows of the 256-wide matrix of perfbench's lu_solve.
    const std::size_t ld = runtime_size(256);
    volatile double sink = 0.0;
    volatile std::size_t isink = 0;
    // Seconds per call of `call` and of `bare`, timed in alternating batches.
    const auto per_call = [&](auto&& call, auto&& bare, bool best) {
        const auto batch = [&](auto&& f) {
            return bench::time_once([&] {
                for (int i = 0; i < kBatch; ++i) f(static_cast<std::size_t>(i) % kRing);
            });
        };
        batch(call);  // warm-up: touch the ring, settle the clocks
        batch(bare);
        std::vector<double> tc, tb;
        double total = 0.0;
        while (total < min_time || tc.size() < 5) {
            tc.push_back(batch(call));
            tb.push_back(batch(bare));
            total += tc.back() + tb.back();
        }
        const auto pick = [&](std::vector<double>& t) {
            const auto at = best ? t.begin() : t.begin() + static_cast<std::ptrdiff_t>(t.size() / 2);
            std::nth_element(t.begin(), at, t.end());
            return *at / kBatch;
        };
        return std::pair{pick(tc), pick(tb)};
    };
    // `madds` = multiply-adds per call (0 for iamax, which only compares).
    const auto entry = [&](const char* op, std::size_t n, std::size_t cols, double madds,
                           auto&& call, auto&& bare) {
        for (const guard::Policy p : {guard::Policy::warn, guard::Policy::ignore}) {
            guard::set_policy(p);
            const auto [secs, ceiling] = per_call(call, bare, n == 8);
            std::printf("  %-11s %-5s  n=%-3zu%s%-3s guard=%-6s %8.1f ns/call  (kernel %6.1f ns)\n",
                        "blas_entry", op, n, cols ? " x " : "   ",
                        cols ? std::to_string(cols).c_str() : "", guard::policy_name(p),
                        secs * 1e9, ceiling * 1e9);
            bench::JsonRecord r{"blas_entry", "double", 2,
                                simd::backend_name(simd::active_backend()), width,
                                secs * 1e9, madds * fpan::madd_flops(2) / (secs * 1e9), n};
            r.op = op;
            r.k = cols;
            r.guard = guard::policy_name(p);
            r.ceiling_ns = ceiling * 1e9;
            out.add(std::move(r));
        }
        guard::set_policy(saved);
    };
    for (std::size_t dim : {8, 64}) {
        const std::size_t n = runtime_size(dim);
        std::mt19937_64 rng(6);
        std::vector<V> x(n), ring(kRing * ld);
        for (V& v : x) v = V(bench::fill_value(rng));
        for (V& v : ring) v = V(bench::fill_value(rng));
        const V alpha(bench::fill_value(rng));
        const auto row = [&](std::size_t r) { return ring.data() + r * ld; };
        entry(
            "axpy", n, 0, double(n),
            [&](std::size_t r) {
                blas::axpy(alpha, blas::view(std::as_const(x)), blas::VectorView<V>(row(r), n));
            },
            [&](std::size_t r) { simd::axpy(alpha, simd::aos(x.data()), simd::aos(row(r)), n); });
        entry(
            "dot", n, 0, double(n),
            [&](std::size_t r) {
                sink = blas::dot(blas::ConstVectorView<V>(row(r), n), blas::view(std::as_const(x)))
                           .limb[0];
            },
            [&](std::size_t r) {
                sink = simd::dot(simd::aos(row(r)), simd::aos(x.data()), n).limb[0];
            });
    }
    // The LU shapes of perfbench's lu_solve (n = 256, block 32): the first
    // panel column's 255-row ger of 31 columns, a late one of 7, and the
    // first U12 update's 31 rows of 224 columns, all rows of the 256-wide
    // matrix; and the first column's iamax. A ger's rows are already
    // distinct rows at the LU's stride, so it reruns on one matrix. Rows
    // shorter than the pack width end on one masked pack.
    std::mt19937_64 rng(7);
    const V alpha(-1.0);
    const auto ger = [&](std::size_t rows_dim, std::size_t cols_dim) {
        const std::size_t n = runtime_size(rows_dim);
        const std::size_t cols = runtime_size(cols_dim);
        std::vector<V> x(n), y(cols), a(n * ld);
        for (V& v : x) v = V(bench::fill_value(rng));
        for (V& v : y) v = V(bench::fill_value(rng));
        for (V& v : a) v = V(bench::fill_value(rng));
        entry(
            "ger", n, cols, double(n * cols),
            [&](std::size_t) {
                blas::ger(alpha, blas::view(std::as_const(x)), blas::view(std::as_const(y)),
                          blas::MatrixView<V>(a.data(), n, cols, ld));
            },
            [&](std::size_t) {
                const simd::Matrix<simd::Aos<double, 2>> am{simd::aos(a.data()), n, cols, ld};
                simd::with_active_width<double>([&](auto w) {
                    blas::engine::parallel_for(n, n * cols, [&](std::size_t lo, std::size_t hi) {
                        simd::kernels::ger<w()>(
                            simd::kernels::scaled(alpha, simd::aos(std::as_const(x).data() + lo)),
                            simd::aos(std::as_const(y).data()),
                            decltype(am){am.row(lo), hi - lo, cols, ld}, hi - lo, cols);
                    });
                });
            });
    };
    ger(255, 7);
    ger(255, 31);
    ger(31, 224);
    const std::size_t n = runtime_size(255);
    std::vector<V> x(n);
    for (V& v : x) v = V(bench::fill_value(rng));
    entry(
        "iamax", n, 0, 0.0,
        [&](std::size_t) { isink = blas::iamax(blas::view(std::as_const(x))); },
        [&](std::size_t) { isink = simd::iamax(simd::aos(x.data()), n); });
}

/// Cost of one engine fork/join: an empty parallel_blocks_slots region with
/// one block per worker, for a constant plan and for a plan that alternates
/// between 2 and 4 workers. Both plans run on the engine's one team, so the
/// pair should cost about two 4-worker regions; a pair far above that means
/// workers were ended and started again between them. This is the overhead
/// engine::kForkMadds weighs a worker's share against.
void report_fork_join(double min_time) {
    const auto region = [](unsigned nw) {
        blas::engine::parallel_blocks_slots(
            nw, [](std::size_t, unsigned) {}, nw);
    };
    std::printf("bench_gemm: engine fork/join, empty region");
    for (unsigned nw : {2u, 4u}) {
        std::printf("  %u workers %.2f us", nw,
                    bench::median_time([&] { region(nw); }, min_time) * 1e6);
    }
    const double pair = bench::median_time(
        [&] {
            region(2);
            region(4);
        },
        min_time);
    std::printf("  alternating 2/4 pair %.2f us\n", pair * 1e6);
}

/// Untimed multi-worker regions before the first timed record. The first
/// multi-threaded process after other work on a shared host runs its
/// multi-worker calls 3-15x slow, in whole multiples of 8 ms, for its first
/// seconds, whichever library runs (EXPERIMENTS.md, "One worker team"; a
/// fixed quarter second of warm-up did not cover it). So 4-worker 128^3
/// products run until 20 in a row each take under half of one worker's
/// time (a steady 4-worker call takes about a third), or for 30 s at most;
/// the line printed says how long that took.
void warm_up_team() {
    const std::size_t n = runtime_size(128);
    const auto a = random_planar<double, 2>(n * n, 1);
    const auto b = random_planar<double, 2>(n * n, 2);
    planar::Vector<double, 2> c(n * n);
    const auto call = [&](unsigned workers) {
        blas::GemmConfig cfg;
        cfg.max_threads = workers;
        blas::gemm_packed(planar::matrix_view(a, n, n), planar::matrix_view(b, n, n),
                          planar::matrix_view(c, n, n), cfg);
    };
    using clock = std::chrono::steady_clock;
    const double one = bench::best_time([&] { call(1); }, 0.02);
    const auto start = clock::now();
    int steady = 0;
    while (steady < 20 && clock::now() - start < std::chrono::seconds(30)) {
        const auto t0 = clock::now();
        call(4);
        const std::chrono::duration<double> t = clock::now() - t0;
        steady = t.count() < 0.5 * one ? steady + 1 : 0;
    }
    std::printf("bench_gemm: team warm-up %.2f s (%s)\n",
                std::chrono::duration<double>(clock::now() - start).count(),
                steady >= 20 ? "steady" : "not steady after 30 s");
}

}  // namespace

int main(int argc, char** argv) {
    // A perturbed FP environment would invalidate every number this harness
    // records (and the bit-identity claim above); the sentinel makes the run
    // fail loudly (or self-correct, under enforce) instead.
    MF_GUARD_SENTINEL("bench.bench_gemm");
    bool quick = false;
    std::string path = "BENCH_gemm.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else {
            path = argv[i];
        }
    }
    // Default (widest-detected) backend: the engine's thread scaling is what
    // this benchmark tracks; the per-backend spread is bench_simd's job.
    std::printf("bench_gemm: gemm_packed at 1/2/4 workers (backend %s)%s\n",
                simd::backend_name(simd::active_backend()),
                quick ? " [quick]" : "");
    bench::JsonReport out;
    out.bench = "gemm_engines";
    const double min_time = quick ? 0.05 : 0.25;
    warm_up_team();

    const double rate = vector_op_rate<double>(0.5);
    const double rate_f = vector_op_rate<float>(0.5);
    std::printf("bench_gemm: vector FP ops per core: %.3g/s (double), %.3g/s (float)\n", rate,
                rate_f);

    run_packed<double, 2>(out, "double", 128, min_time, rate);
    run_packed<double, 2>(out, "double", 256, min_time, rate);
    if (!quick) {
        run_packed<double, 2>(out, "double", 512, min_time, rate);  // headline cube
    }
    run_packed<double, 3>(out, "double", quick ? 96 : 160, min_time, rate);
    run_packed<double, 4>(out, "double", quick ? 64 : 128, min_time, rate);
    run_packed<float, 2>(out, "float", quick ? 128 : 256, min_time, rate_f);

    std::printf("bench_gemm: AoS blas::gemm, Float64x2, 1/2/4 workers\n");
    for (std::size_t dim : {64, 128, 256}) run_blas_gemm(out, dim, dim, min_time, rate);
    std::printf("bench_gemm: LU trailing updates n x 32 x n, Float64x2, both entries\n");
    for (std::size_t dim : {64, 128, 224}) {
        run_packed<double, 2>(out, "double", dim, min_time, rate, 32);
        run_blas_gemm(out, dim, 32, min_time, rate);
    }
    report_fork_join(min_time);
    std::printf("bench_gemm: public level-1/2 entry cost, Float64x2\n");
    run_blas_entry(out, min_time);

    if (!out.write(path)) return 1;
    std::printf("bench_gemm: wrote %s\n", path.c_str());
    return 0;
}
