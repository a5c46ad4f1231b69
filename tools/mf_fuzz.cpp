// mf_fuzz: oracle-driven differential fuzzing CLI for the mf::check layer.
//
// Hammers the extended-precision kernels with structure-aware adversarial
// inputs, checks every in-domain sample against the exact BigFloat oracle
// and the paper's error-bound table, diffs the scalar kernels against every
// compiled SIMD backend (and the packed GEMM engine against the scalar
// check::reference_gemm), and emits CHECK_*.json telemetry in the BENCH_*.json style.
//
// Usage:
//   mf_fuzz [--op add|sub|mul|div|sqrt|all] [--type double|float|all]
//           [--limbs 2|3|4|all] [--iters K] [--seed S] [--backend NAME]
//           [--json PATH] [--corpus FILE] [--write-corpus FILE]
//           [--metrics PATH] [--bound-domain-only] [--no-diff] [--self-test]
//
// Iteration count resolution: --iters, else the MF_FUZZ_ITERS environment
// variable, else 20000. Exit status: 0 clean, 1 conformance/diff failure,
// 2 usage error.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "guard/guard.hpp"
#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace mf;
using namespace mf::check;

struct Options {
    std::string op = "all";
    std::string type = "all";
    std::string limbs = "all";
    std::uint64_t iters = 20000;
    std::uint64_t seed = 20250807;
    std::string backend;       // restrict the differ to one backend
    std::string json_path;     // write a ConformanceReport JSON
    std::string corpus_path;   // replay this corpus before random fuzzing
    std::string write_corpus;  // append worst counterexamples here
    std::string metrics_path;  // dump telemetry exposition at exit ('-' = stdout)
    bool full_domain = true;   // subnormals / near-overflow / specials on
    bool diff = true;
    bool self_test = false;
    // --inject env,alloc,thread: with --self-test, run the mf::guard
    // fault-injection matrix for the listed classes instead of the
    // broken-kernel conformance self-test.
    bool inject_env = false;
    bool inject_alloc = false;
    bool inject_thread = false;
    bool inject_any = false;
};

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--op add|sub|mul|div|sqrt|all] [--type double|float|all]\n"
                 "          [--limbs 2|3|4|all] [--iters K] [--seed S] [--backend NAME]\n"
                 "          [--json PATH] [--corpus FILE] [--write-corpus FILE]\n"
                 "          [--metrics PATH] [--bound-domain-only] [--no-diff] "
                 "[--self-test]\n"
                 "          [--inject env,alloc,thread]   (requires --self-test: "
                 "run the fault matrix)\n",
                 argv0);
    return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!end || *end != '\0' || end == s) return false;
    *out = v;
    return true;
}

/// Per-(op, type, N) seed: reproducible, decorrelated across runs.
std::uint64_t derive_seed(std::uint64_t seed, Op op, int type_idx, int n) {
    const std::uint64_t k =
        (static_cast<std::uint64_t>(op) * 2 + static_cast<std::uint64_t>(type_idx)) * 8 +
        static_cast<std::uint64_t>(n);
    return seed ^ (0x9E3779B97F4A7C15ull * (k + 1));
}

template <FloatingPoint T, int N>
void print_counterexample(const char* tag, Op op, const MultiFloat<T, N>& x,
                          const MultiFloat<T, N>& y) {
    std::printf("  %s: %s", tag, op_name(op));
    std::printf("  x =");
    for (int i = 0; i < N; ++i) std::printf(" %a", static_cast<double>(x.limb[i]));
    if (!op_is_unary(op)) {
        std::printf("  y =");
        for (int i = 0; i < N; ++i) std::printf(" %a", static_cast<double>(y.limb[i]));
    }
    std::printf("\n");
}

/// One conformance run: corpus replay first, then random fuzzing; on a bound
/// violation the worst counterexample is shrunk to a minimal witness.
template <FloatingPoint T, int N>
RunStats fuzz_one(Op op, const Options& opt, const std::vector<CorpusEntry>& corpus,
                  std::vector<CorpusEntry>* out_corpus) {
    GenConfig cfg;
    cfg.subnormals = opt.full_domain;
    cfg.near_overflow = opt.full_domain;
    cfg.specials = opt.full_domain;
    const int type_idx = sizeof(T) == 8 ? 0 : 1;
    Counterexample<T, N> worst;
    RunStats s = run_conformance<T, N>(op, derive_seed(opt.seed, op, type_idx, N),
                                       opt.iters, cfg, &worst);
    const std::uint64_t replayed = replay_corpus<T, N>(corpus, op, &s, &worst);
    if (replayed != 0) {
        std::printf("  [%s %s N=%d] corpus: replayed %" PRIu64 " entries\n", op_name(op),
                    s.type.c_str(), N, replayed);
    }
    if (s.violations != 0 && worst.valid) {
        print_counterexample("worst violation", op, worst.x, worst.y);
        const int bound = s.bound;
        const auto still_fails = [&](const MultiFloat<T, N>& x, const MultiFloat<T, N>& y) {
            if (!bound_domain(op, x, y)) return false;
            const MultiFloat<T, N> z = apply_op(op, x, y);
            const big::BigFloat want = oracle(op, x, y);
            if (want.is_zero()) return !exact(z).is_zero();
            return rel_err_log2(z, want) > -static_cast<double>(bound);
        };
        if (still_fails(worst.x, worst.y)) {
            auto [sx, sy] = shrink(worst.x, worst.y, still_fails);
            print_counterexample("shrunk to", op, sx, sy);
            if (out_corpus) out_corpus->push_back(make_entry(op, sx, sy));
        } else if (out_corpus) {
            out_corpus->push_back(make_entry(op, worst.x, worst.y));
        }
    } else if (out_corpus && worst.valid) {
        // No failure: seed the corpus with the worst-slack sample anyway, so
        // the hardest input this run found stays replayed forever.
        out_corpus->push_back(make_entry(op, worst.x, worst.y));
    }
    return s;
}

/// Fault-injection self-test: hand the runner a kernel that drops the last
/// limb of every result and verify (a) the violation is caught, and (b) the
/// shrinker reduces the counterexample to a minimal witness of <= N nonzero
/// limbs. Returns true on success.
template <FloatingPoint T, int N>
bool self_test_one() {
    using MFt = MultiFloat<T, N>;
    const auto broken = [](Op o, const MFt& x, const MFt& y) {
        MFt z = apply_op(o, x, y);
        z.limb[N - 1] = T(0);  // injected fault: ~2^-((N-1)p) relative error
        return z;
    };
    Counterexample<T, N> worst;
    RunStats s = run_conformance_with<T, N>(broken, Op::add, /*seed=*/42,
                                            /*iters=*/20000, GenConfig{}, &worst);
    const char* type = sizeof(T) == 8 ? "double" : "float";
    if (s.violations == 0 || !worst.valid) {
        std::fprintf(stderr, "self-test %s N=%d: injected fault NOT detected\n", type, N);
        return false;
    }
    const int bound = s.bound;
    const auto still_fails = [&](const MFt& x, const MFt& y) {
        if (!bound_domain(Op::add, x, y)) return false;
        const MFt z = broken(Op::add, x, y);
        const big::BigFloat want = oracle(Op::add, x, y);
        if (want.is_zero()) return !exact(z).is_zero();
        return rel_err_log2(z, want) > -static_cast<double>(bound);
    };
    if (!still_fails(worst.x, worst.y)) {
        std::fprintf(stderr, "self-test %s N=%d: worst counterexample does not replay\n",
                     type, N);
        return false;
    }
    auto [sx, sy] = shrink(worst.x, worst.y, still_fails);
    const int size = shrink_size(sx, sy);
    if (!still_fails(sx, sy) || !shrink_is_minimal(sx, sy, still_fails) || size > N) {
        std::fprintf(stderr, "self-test %s N=%d: shrink failed (size %d, minimal %d)\n",
                     type, N, size, int(shrink_is_minimal(sx, sy, still_fails)));
        return false;
    }
    std::printf("self-test %s N=%d: fault caught after %" PRIu64
                " violations, shrunk to %d-limb minimal witness\n",
                type, N, s.violations, size);
    print_counterexample("witness", Op::add, sx, sy);
    return true;
}

bool run_self_test() {
    bool ok = true;
    ok = self_test_one<double, 2>() && ok;
    ok = self_test_one<double, 3>() && ok;
    ok = self_test_one<double, 4>() && ok;
    ok = self_test_one<float, 2>() && ok;
    return ok;
}

/// Parse the --inject class list ("env,alloc,thread"). Returns false on an
/// unknown class name.
bool parse_inject(const char* v, Options* opt) {
    std::string s = v;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string cls =
            s.substr(pos, (comma == std::string::npos ? s.size() : comma) - pos);
        if (cls == "env") {
            opt->inject_env = true;
        } else if (cls == "alloc") {
            opt->inject_alloc = true;
        } else if (cls == "thread") {
            opt->inject_thread = true;
        } else {
            return false;
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    opt->inject_any = opt->inject_env || opt->inject_alloc || opt->inject_thread;
    return opt->inject_any;
}

/// Fault-injection matrix (--inject ... --self-test): every armed fault must
/// be detected or absorbed per the DESIGN.md §12 contract.
bool run_inject_matrix(const Options& opt) {
    RobustnessOptions ro;
    ro.env = opt.inject_env;
    ro.alloc = opt.inject_alloc;
    ro.thread = opt.inject_thread;
    ro.seed = opt.seed;
    std::printf("mf_fuzz: fault-injection matrix (env=%d alloc=%d thread=%d)\n",
                int(ro.env), int(ro.alloc), int(ro.thread));
    const std::vector<FaultCase> cases = run_fault_matrix(ro);
    print_fault_matrix(cases);
    const bool ok = fault_matrix_clean(cases);
    std::printf("mf_fuzz: fault matrix %s (%zu cases)\n",
                ok ? "clean" : "FAIL", cases.size());
    return ok;
}

bool want(const std::string& sel, const char* name) { return sel == "all" || sel == name; }

}  // namespace

int main(int argc, char** argv) {
    // A hostile FP environment would make every oracle comparison below
    // meaningless; the sentinel detects it up front (and under
    // MF_GUARD_POLICY=enforce pins the whole run to the nominal one).
    MF_GUARD_SENTINEL("tool.mf_fuzz");
    Options opt;
    if (const char* env = std::getenv("MF_FUZZ_ITERS")) {
        if (!parse_u64(env, &opt.iters)) {
            std::fprintf(stderr, "mf_fuzz: bad MF_FUZZ_ITERS '%s'\n", env);
            return 2;
        }
    }
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (a == "--op") {
            const char* v = next();
            Op dummy;
            if (!v || (std::strcmp(v, "all") != 0 && !parse_op(v, &dummy)))
                return usage(argv[0]);
            opt.op = v;
        } else if (a == "--type") {
            const char* v = next();
            if (!v || (std::strcmp(v, "all") != 0 && std::strcmp(v, "double") != 0 &&
                       std::strcmp(v, "float") != 0))
                return usage(argv[0]);
            opt.type = v;
        } else if (a == "--limbs") {
            const char* v = next();
            if (!v || (std::strcmp(v, "all") != 0 && std::strcmp(v, "2") != 0 &&
                       std::strcmp(v, "3") != 0 && std::strcmp(v, "4") != 0))
                return usage(argv[0]);
            opt.limbs = v;
        } else if (a == "--iters") {
            const char* v = next();
            if (!v || !parse_u64(v, &opt.iters)) return usage(argv[0]);
        } else if (a == "--seed") {
            const char* v = next();
            if (!v || !parse_u64(v, &opt.seed)) return usage(argv[0]);
        } else if (a == "--backend") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            opt.backend = v;
        } else if (a == "--json") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            opt.json_path = v;
        } else if (a == "--corpus") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            opt.corpus_path = v;
        } else if (a == "--write-corpus") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            opt.write_corpus = v;
        } else if (a == "--metrics") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            opt.metrics_path = v;
        } else if (a == "--bound-domain-only") {
            opt.full_domain = false;
        } else if (a == "--no-diff") {
            opt.diff = false;
        } else if (a == "--self-test") {
            opt.self_test = true;
        } else if (a == "--inject") {
            const char* v = next();
            if (!v || !parse_inject(v, &opt)) return usage(argv[0]);
        } else {
            return usage(argv[0]);
        }
    }
    if (opt.inject_any && !opt.self_test) {
        std::fprintf(stderr, "mf_fuzz: --inject requires --self-test\n");
        return usage(argv[0]);
    }

    // Dump the process telemetry (conformance samples, violations and slack
    // histogram, plus the guard and SIMD events the fuzz run triggered) on
    // every non-usage-error exit path; the exit code never depends on the
    // dump.
    const auto dump_metrics = [&opt] {
        if (!opt.metrics_path.empty()) telemetry::write_exposition(opt.metrics_path);
    };

    if (opt.self_test) {
        const bool ok = opt.inject_any ? run_inject_matrix(opt) : run_self_test();
        dump_metrics();
        return ok ? 0 : 1;
    }

    std::vector<CorpusEntry> corpus;
    if (!opt.corpus_path.empty() && !load_corpus(opt.corpus_path, &corpus)) {
        std::fprintf(stderr, "mf_fuzz: cannot read corpus %s\n", opt.corpus_path.c_str());
        return 2;
    }

    ConformanceReport report;
    report.seed = opt.seed;
    report.iters_per_run = opt.iters;
    report.backend = simd::backend_name(simd::active_backend());
    std::vector<CorpusEntry> found;
    std::vector<CorpusEntry>* out = opt.write_corpus.empty() ? nullptr : &found;

    std::printf("mf_fuzz: seed=%" PRIu64 " iters=%" PRIu64 " backend=%s domain=%s\n",
                opt.seed, opt.iters, report.backend.c_str(),
                opt.full_domain ? "full" : "bound-only");
    for (Op op : {Op::add, Op::sub, Op::mul, Op::div, Op::sqrt}) {
        if (!want(opt.op, op_name(op))) continue;
        if (want(opt.type, "double")) {
            if (want(opt.limbs, "2")) report.runs.push_back(fuzz_one<double, 2>(op, opt, corpus, out));
            if (want(opt.limbs, "3")) report.runs.push_back(fuzz_one<double, 3>(op, opt, corpus, out));
            if (want(opt.limbs, "4")) report.runs.push_back(fuzz_one<double, 4>(op, opt, corpus, out));
        }
        if (want(opt.type, "float")) {
            if (want(opt.limbs, "2")) report.runs.push_back(fuzz_one<float, 2>(op, opt, corpus, out));
            if (want(opt.limbs, "3")) report.runs.push_back(fuzz_one<float, 3>(op, opt, corpus, out));
            if (want(opt.limbs, "4")) report.runs.push_back(fuzz_one<float, 4>(op, opt, corpus, out));
        }
    }

    if (opt.diff) {
        GenConfig cfg;  // differ corpus stays bound-domain + specials: the
        cfg.specials = true;  // backends must agree bit-for-bit even on NaN/Inf
        const int rounds = static_cast<int>(std::min<std::uint64_t>(8, 2 + opt.iters / 8192));
        const std::vector<int> threads{1, 2, 7, 16};
        if (want(opt.type, "double")) {
            if (want(opt.limbs, "2")) {
                auto d = diff_backends<double, 2>(opt.seed, 192, rounds, cfg, opt.backend);
                report.diffs.insert(report.diffs.end(), d.begin(), d.end());
                // Packed engine vs check::reference_gemm: prime shapes + tiny
                // blocks force edge micro-tiles in every dimension; the
                // "nested" record checks the nesting guard.
                auto p = diff_gemm_packed<double, 2>(opt.seed, 17, 9, 13, threads,
                                                     cfg, mf::blas::BlockShape{8, 8, 16});
                report.diffs.insert(report.diffs.end(), p.begin(), p.end());
            }
            if (want(opt.limbs, "3")) {
                auto d = diff_backends<double, 3>(opt.seed, 192, rounds, cfg, opt.backend);
                report.diffs.insert(report.diffs.end(), d.begin(), d.end());
            }
            if (want(opt.limbs, "4")) {
                auto d = diff_backends<double, 4>(opt.seed, 192, rounds, cfg, opt.backend);
                report.diffs.insert(report.diffs.end(), d.begin(), d.end());
                auto p = diff_gemm_packed<double, 4>(opt.seed, 11, 7, 9, threads,
                                                     cfg, mf::blas::BlockShape{8, 8, 16});
                report.diffs.insert(report.diffs.end(), p.begin(), p.end());
            }
        }
        if (want(opt.type, "float")) {
            if (want(opt.limbs, "2")) {
                auto d = diff_backends<float, 2>(opt.seed, 192, rounds, cfg, opt.backend);
                report.diffs.insert(report.diffs.end(), d.begin(), d.end());
            }
            if (want(opt.limbs, "4")) {
                auto d = diff_backends<float, 4>(opt.seed, 192, rounds, cfg, opt.backend);
                report.diffs.insert(report.diffs.end(), d.begin(), d.end());
            }
        }
    }

    report.print();
    if (!opt.json_path.empty() && !report.write(opt.json_path)) return 2;
    if (out && !found.empty()) {
        if (!save_corpus(opt.write_corpus, found,
                         "worst-slack / shrunk-counterexample seeds from mf_fuzz")) {
            return 2;
        }
        std::printf("mf_fuzz: wrote %zu corpus entries to %s\n", found.size(),
                    opt.write_corpus.c_str());
    }
    dump_metrics();
    if (!report.clean()) {
        std::printf("mf_fuzz: FAIL\n");
        return 1;
    }
    std::printf("mf_fuzz: clean\n");
    return 0;
}
