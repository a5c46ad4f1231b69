// fpan_inspect: command-line companion to the paper's Figures 2-7.
//
//   fpan_inspect                 print all six networks (diagram, size/depth,
//                                paper comparison) and run the verification
//                                campaigns on each
//   fpan_inspect --trim          additionally run greedy gate minimization
//   fpan_inspect --search [it]   run the simulated-annealing search for the
//                                2-term addition network (paper §4.1)
//   fpan_inspect --exhaustive    also run three 200k audit seeds per network
//                                and every exhaustive small-p window (add3
//                                has five, mul3 three; a few minutes)
//
// Exits 1 if a shipped network fails a campaign, or if the naive Eq. 9
// network passes one (the checker would then be blind).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fpan/checker.hpp"
#include "fpan/gates.hpp"
#include "fpan/library.hpp"
#include "fpan/search.hpp"

using namespace mf::fpan;

namespace {

struct PaperRef {
    const char* figure;
    int size;
    int depth;
};

PaperRef paper_ref(const std::string& name) {
    if (name == "add2") return {"Fig. 2", 6, 4};
    if (name == "add3") return {"Fig. 3", 14, 8};
    if (name == "add4") return {"Fig. 4", 26, 11};
    if (name == "mul2") return {"Fig. 5", 3, 3};
    if (name == "mul3") return {"Fig. 6", 12, 7};
    if (name == "mul4") return {"Fig. 7", 27, 10};
    return {"-", 0, 0};
}

/// One exhaustive small-p window: y's leading exponent within +-y_range of
/// x's, tails tail_depth slots deep.
struct Window {
    int p;
    int y_range;
    int tail_depth;
};

/// The exhaustive windows each network must pass: for add3 and mul3 every
/// window their trimmed tables were checked on (DESIGN.md §2).
std::vector<Window> exhaustive_windows(int n, bool is_mul) {
    if (n == 2) return {{3, 3, 5}};
    if (n == 3 && is_mul) return {{3, 0, 1}, {3, 0, 2}, {4, 0, 1}};
    if (n == 3) return {{3, 1, 1}, {3, 2, 2}, {3, 3, 2}, {3, 2, 3}, {4, 1, 1}};
    return {};
}

/// Print `net` and run its campaigns; returns whether every campaign passed.
bool report(const Network& net, bool exhaustive) {
    const bool is_mul = net.name.rfind("mul", 0) == 0;
    const int n = net.name.back() - '0';
    const PaperRef ref = paper_ref(net.name);
    std::printf("%s\n", net.diagram().c_str());
    std::printf("  ours: size %d, depth %d | paper %s: size %d, depth %d\n",
                net.size(), net.depth(), ref.figure, ref.size, ref.depth);
    const int bound = is_mul ? paper_mul_bound_bits(n, 53) : paper_add_bound_bits(n, 53);
    const CheckResult r = is_mul ? check_mul_random(net, n, 100000, 2024, bound)
                                 : check_add_random(net, n, 100000, 2024, bound);
    std::printf("  randomized (p=53, %lld cases): %s, worst err 2^%.2f (bound 2^-%d)\n",
                r.cases, r.pass ? "PASS" : "FAIL", r.worst_err_log2, bound);
    bool ok = r.pass;
    if (exhaustive) {
        // The independent seeds of the --trim audit.
        for (std::uint64_t seed : {999ull, 777ull, 123456ull}) {
            const CheckResult a = is_mul ? check_mul_random(net, n, 200000, seed, bound)
                                         : check_add_random(net, n, 200000, seed, bound);
            std::printf("  randomized (p=53, seed %llu, %lld cases): %s, worst err 2^%.2f\n",
                        static_cast<unsigned long long>(seed), a.cases,
                        a.pass ? "PASS" : "FAIL", a.worst_err_log2);
            ok = ok && a.pass;
        }
        const std::vector<Window> windows = exhaustive_windows(n, is_mul);
        if (windows.empty()) {
            std::printf("  exhaustive: skipped (state space too large for n=%d %s)\n", n,
                        is_mul ? "mul" : "add");
        }
        for (const Window& w : windows) {
            const auto check = is_mul ? check_mul_exhaustive : check_add_exhaustive;
            const CheckResult e = check(net, n, w.p, w.y_range, w.tail_depth);
            std::printf("  exhaustive (p=%d, window (%d,%d), %lld cases): %s, worst err 2^%.0f "
                        "(bound 2^-%d), worst overlap %d bits%s%s\n",
                        w.p, w.y_range, w.tail_depth, e.cases, e.pass ? "PASS" : "FAIL",
                        e.worst_err_log2,
                        is_mul ? paper_mul_bound_bits(n, w.p) : paper_add_bound_bits(n, w.p),
                        e.worst_overlap_bits, e.note.empty() ? "" : "; ", e.note.c_str());
            ok = ok && e.pass;
        }
    }
    std::printf("\n");
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    bool trim = false;
    bool exhaustive = false;
    long long search_iters = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trim")) trim = true;
        if (!std::strcmp(argv[i], "--exhaustive")) exhaustive = true;
        if (!std::strcmp(argv[i], "--search")) {
            search_iters = 30000;
            if (i + 1 < argc && argv[i + 1][0] != '-') search_iters = std::atoll(argv[++i]);
        }
    }

    std::printf("=== FPAN library (reproductions of paper Figures 2-7) ===\n\n");
    bool ok = true;
    for (const Network& net : paper_networks()) ok = report(net, exhaustive) && ok;

    std::printf("=== Naive term-by-term sum (Eq. 9 strawman) ===\n");
    const Network naive = make_naive_add_network(2);
    const CheckResult bad = check_add_random(naive, 2, 2000, 5, paper_add_bound_bits(2, 53));
    std::printf("%s  -> %s after %lld cases (expected: FAIL; this is why FPANs exist)\n\n",
                naive.serialize().c_str(), bad.pass ? "PASS" : "FAIL", bad.cases);
    ok = ok && !bad.pass;

    if (trim) {
        std::printf("=== Greedy gate minimization (paper search, deterministic half) ===\n");
        std::printf("Every removal must survive the verifier; the verifier's strength\n"
                    "decides how small you can (safely) go -- the paper's SMT lesson.\n\n");
        for (int n : {3, 4}) {
            TrimOptions o;
            o.n = n;
            o.exhaustive = n <= 3;
            // Trim the sweep: add4 ships it, add3 ships a trim of it.
            const Network sweep = n == 3 ? to_network("add3", sweep_add_table<3>())
                                         : to_network("add4", sweep_add_table<4>());
            const Network t = greedy_trim(sweep, o);
            std::printf("add%d sweep: %d gates -> %d gates (shipped: %d, paper: %d)\n  %s\n", n,
                        sweep.size(), t.size(), make_add_network(n).size(),
                        paper_ref("add" + std::to_string(n)).size, t.serialize().c_str());
            // Adversarial audit with independent seeds: randomized-only
            // trimming (n = 4) overfits below the provable minimum, and an
            // independent campaign catches it.
            bool survived = true;
            for (std::uint64_t seed : {999ull, 777ull, 123456ull}) {
                const CheckResult audit =
                    check_add_random(t, n, 200000, seed, paper_add_bound_bits(n, 53));
                if (!audit.pass) {
                    std::printf("  !! independent seed %llu REFUTES the trimmed network "
                                "(overlap %d bits) -- overfit to the trim campaign\n",
                                static_cast<unsigned long long>(seed),
                                audit.worst_overlap_bits);
                    survived = false;
                    break;
                }
            }
            if (survived) {
                std::printf("  audit: survives 3x200k independent adversarial campaigns\n");
            }
            TrimOptions om;
            om.n = n;
            om.is_mul = true;
            om.exhaustive = false;
            const Network tm = greedy_trim(make_mul_network(n), om);
            std::printf("mul%d: %d gates -> %d gates (paper: %d)\n  %s\n", n,
                        make_mul_network(n).size(), tm.size(), paper_ref("mul" + std::to_string(n)).size,
                        tm.serialize().c_str());
        }
        std::printf("\nWider exhaustive windows certify larger minima: with the p=3 (2,2)\n"
                    "window in the loop, the add3 sweep trims 18 -> 16 gates, the shipped\n"
                    "table (37.7M cases; every --exhaustive window passes it). The 14-gate\n"
                    "candidate above has the paper's size and depth and passes every\n"
                    "randomized campaign, but fails the (2,2) window -- only the paper's\n"
                    "SMT proof can settle what lies between.\n\n");
    }

    if (search_iters > 0) {
        std::printf("=== Simulated-annealing search for add2 (paper §4.1) ===\n");
        SearchOptions opts;
        opts.n = 2;
        opts.iterations = search_iters;
        opts.seed = 2025;
        opts.progress = [](long long it, double cost, int size) {
            std::printf("  iter %lld: best cost %.1f (size %d)\n", it, cost, size);
        };
        const SearchOutcome out = anneal_add_network(opts);
        if (out.best) {
            std::printf("FOUND after %lld candidates: %s (size %d, depth %d; paper optimum: 6)\n",
                        out.candidates_checked, out.best->serialize().c_str(),
                        out.best->size(), out.best->depth());
        } else {
            std::printf("no passing network found in %lld iterations (try more)\n",
                        out.iterations);
        }
    }
    if (!ok) std::printf("FAILED: a shipped network failed, or the naive one passed\n");
    return ok ? 0 : 1;
}
