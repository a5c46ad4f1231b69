// The paper's evaluation (§5, Figures 8-11) and design ablations (§4.1-4.3),
// one subcommand each:
//
//   paper_bench <name> [--quick] [-v]
//
// --quick shortens the suite's timings and -v prints each suite measurement
// as it lands (both act on the fig* subcommands). A missing or unknown name,
// or an unknown flag, lists the names and exits 2. fig10_portability,
// ablation_layout and ablation_divsqrt exit 1 when their check fails.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <string_view>
#include <vector>

#include "blas/engine/threading.hpp"
#include "blas/planar.hpp"
#include "check/oracle.hpp"
#include "harness.hpp"
#include "mf/multifloats.hpp"
#include "mf/random.hpp"
#include "paper_reference.hpp"
#include "simd/simd.hpp"
#include "suite.hpp"

namespace mf::bench {
namespace {

constexpr Kernel kKernels[4] = {Kernel::Axpy, Kernel::Dot, Kernel::Gemv, Kernel::Gemm};

// ---------------------------------------------------------------------------
// Figure 8: the ratio of MultiFloats' peak performance over the next-best
// multiprecision library, per kernel and precision level -- plus the
// abstract's headline per-library peak speedups ("up to 11.7x over QD,
// 34.4x over CAMPARY, 35.6x over MPFR, 41.4x over FLINT").
// ---------------------------------------------------------------------------

int fig8_peak_ratio(const SuiteOptions& opts) {
    std::printf("Regenerating Figure 8 (speedup over next-best library).\n");
    std::printf("Compare against the paper's ratios, not GOp/s.\n\n");

    std::vector<Table> tables;
    for (const Kernel k : kKernels) tables.push_back(run_kernel_table(k, opts));

    std::printf("\nFigure 8: MultiFloats peak / next-best library (ratio > 1 means we win)\n");
    std::printf("%-8s%-10s%12s%14s%12s\n", "kernel", "precision", "measured",
                "paper(Zen5)", "paper(M3)");
    for (int k = 0; k < 4; ++k) {
        const auto& zen5 = paper::reference(kKernels[k], paper::Machine::Zen5);
        const auto& m3 = paper::reference(kKernels[k], paper::Machine::M3);
        for (std::size_t c = 0; c < tables[k].columns.size(); ++c) {
            const double best = tables[k].best_excluding(0, c);
            const double ours = tables[k].cells[0][c].gops;
            std::printf("%-8s%-10s%11.2fx%13.2fx%11.2fx\n", kernel_name(kKernels[k]),
                        tables[k].columns[c].c_str(), best > 0 ? ours / best : 0.0,
                        paper::ref_ratio(zen5, static_cast<int>(c)),
                        paper::ref_ratio(m3, static_cast<int>(c)));
        }
    }

    // Headline per-library peaks (abstract): max over kernels x precisions of
    // ours / library.
    std::printf("\nHeadline peak speedups (abstract: 11.7x QD, 34.4x CAMPARY, 35.6x MPFR)\n");
    const char* vs[3] = {"QD", "CAMPARY", "BigFloat (MPFR-like)"};
    const std::size_t row_of[3] = {3, 4, 2};
    for (int i = 0; i < 3; ++i) {
        double peak = 0.0;
        for (const auto& t : tables) {
            for (std::size_t c = 0; c < t.columns.size(); ++c) {
                const auto& them = t.cells[row_of[i]][c];
                const auto& us = t.cells[0][c];
                if (them.available && us.available && them.gops > 0) {
                    peak = std::max(peak, us.gops / them.gops);
                }
            }
        }
        std::printf("  vs %-22s: %.1fx\n", vs[i], peak);
    }
    return 0;
}

// ---------------------------------------------------------------------------
// Figure 9: one kernel's table on this machine's architecture (run on an
// Apple M3, the same subcommand regenerates the Figure 10 row), the paper's
// Zen 5 and M3 tables, and a shape comparison: our speedup over the
// next-best library vs. the paper's.
// ---------------------------------------------------------------------------

int fig9(Kernel k, const SuiteOptions& opts) {
    std::printf("Regenerating the paper's %s tables (Figures 9 and 10).\n", kernel_name(k));
    std::printf(
        "NOTE: the paper used a 16-core Zen 5 and a 12-core M3 Pro. Compare SHAPE\n"
        "(who wins, by what factor), not absolute GOp/s. See EXPERIMENTS.md for\n"
        "the full methodology.\n");
    const Table t = run_kernel_table(k, opts);
    t.print();

    const auto& zen5 = paper::reference(k, paper::Machine::Zen5);
    const auto& m3 = paper::reference(k, paper::Machine::M3);
    paper::print_ref(zen5);
    paper::print_ref(m3);

    std::printf("\nShape check: MultiFloats speedup over next-best library\n");
    std::printf("%-10s%16s%16s%16s\n", "precision", "measured", "paper(Zen5)",
                "paper(M3)");
    for (std::size_t c = 0; c < t.columns.size(); ++c) {
        const double best = t.best_excluding(0, c);
        const double measured = best > 0 && t.cells[0][c].available
                                    ? t.cells[0][c].gops / best
                                    : 0.0;
        std::printf("%-10s%15.2fx%15.2fx%15.2fx\n", t.columns[c].c_str(), measured,
                    paper::ref_ratio(zen5, static_cast<int>(c)),
                    paper::ref_ratio(m3, static_cast<int>(c)));
    }
    return 0;
}

// ---------------------------------------------------------------------------
// Figure 10 concerns architecture portability: the paper reruns the Figure 9
// suite on an Apple M3 Pro (128-bit NEON instead of 512-bit AVX) and shows
// the same ordering with smaller margins. One x86-64 host cannot measure it
// literally (documented substitution, DESIGN.md §2): the fig9_* subcommands
// regenerate it when run on an ARM machine. This subcommand reruns the same
// double-base Figure 9 suite on this host, prints each table beside the M3
// reference, and checks the qualitative Figure 10 claim that MultiFloats is
// fastest at every kernel and precision; exits 1 where it is not.
// ---------------------------------------------------------------------------

int fig10_portability(const SuiteOptions& opts) {
    std::printf("Figure 10 (Apple M3) substitution run -- see header comment.\n");
    bool ordering_holds = true;
    for (const Kernel k : kKernels) {
        const Table t = run_kernel_table(k, opts);
        t.print();
        paper::print_ref(paper::reference(k, paper::Machine::M3));
        for (std::size_t c = 0; c < t.columns.size(); ++c) {
            const double best = t.best_excluding(0, c);
            if (t.cells[0][c].available && t.cells[0][c].gops < best) {
                ordering_holds = false;
                std::printf("  !! ordering violated at %s %s\n", kernel_name(k),
                            t.columns[c].c_str());
            }
        }
    }
    std::printf("\nQualitative Figure 10 claim (MultiFloats fastest at every kernel and\n"
                "precision) on this machine: %s\n",
                ordering_holds ? "HOLDS" : "VIOLATED (see above)");
    return ordering_holds ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Figure 11 runs the kernels on an AMD RDNA3 GPU with T = float base type
// (that architecture has no double units). Without a GPU (documented
// substitution, DESIGN.md §2) the closest executable experiment is the
// identical MultiFloat<float, N> code path -- the same networks at p = 24 --
// through the data-parallel CPU kernels. The figure's message that survives
// the substitution: the branch-free algorithms run unmodified on a
// float-only substrate, and throughput decays gracefully with N rather than
// falling off a cliff.
// ---------------------------------------------------------------------------

int fig11_gpu_proxy(const SuiteOptions& opts) {
    std::printf("Figure 11 (RDNA3 GPU) substitution: MultiFloat<float, N> on CPU.\n");
    const Table t = run_float_proxy_table(opts);
    t.print();

    std::printf("\nPaper reference: AMD RDNA3 (RX 7900 XTX), Fig. 11 [GOp/s]\n");
    std::printf("%-8s%10s%10s%10s%10s\n", "Kernel", "1-term", "2-term", "3-term", "4-term");
    for (std::size_t r = 0; r < 4; ++r) {
        std::printf("%-8s", kernel_name(kKernels[r]));
        for (std::size_t c = 0; c < 4; ++c) std::printf("%10.2f", paper::kRdna3[r][c]);
        std::printf("\n");
    }

    std::printf("\nShape check: throughput decay from 1-term to 4-term\n");
    std::printf("%-8s%12s%14s\n", "kernel", "measured", "paper(RDNA3)");
    for (std::size_t r = 0; r < 4; ++r) {
        const double ours = t.cells[r][0].gops > 0 && t.cells[r][3].available
                                ? t.cells[r][0].gops / t.cells[r][3].gops
                                : 0.0;
        const double ref = paper::kRdna3[r][0] / paper::kRdna3[r][3];
        std::printf("%-8s%11.1fx%13.1fx\n", kernel_name(kKernels[r]), ours, ref);
    }
    return 0;
}

// ---------------------------------------------------------------------------
// Shared by the add and mul ablations: 1024 N-limb operands near [1, 2), and
// a timed pass of kReps sweeps of a binary op over them.
// ---------------------------------------------------------------------------

constexpr std::size_t kOperands = 1024;
constexpr int kReps = 8;

template <int N>
std::vector<MultiFloat<double, N>> operands(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<MultiFloat<double, N>> v;
    for (std::size_t i = 0; i < kOperands; ++i) {
        MultiFloat<double, N> x(fill_value(rng));
        for (int k = 1; k < N; ++k) x = x + std::ldexp(fill_value(rng), -55 * k);
        v.push_back(x);
    }
    return v;
}

/// A pass of kReps sweeps of z[i] = op(x[i], y[i]), for bench::interleaved.
template <typename V, typename Op>
auto sweeps(const std::vector<V>& xs, const std::vector<V>& ys, std::vector<V>& zs, Op op) {
    return [&xs, &ys, &zs, op] {
        for (int r = 0; r < kReps; ++r) {
            for (std::size_t i = 0; i < kOperands; ++i) zs[i] = op(xs[i], ys[i]);
        }
    };
}

constexpr double ns_per_op(double secs) { return secs / (kOperands * kReps) * 1e9; }

// ---------------------------------------------------------------------------
// Ablation for §4.1: how many FastTwoSum renormalization passes does the
// addition sweep need? renorms=0 matches the paper's gate counts exactly (26
// gates for 4-term) but the exhaustive small-p checker proves it INCORRECT
// for n=3 (rare 1-bit nonoverlap violations); renorms=1 is the verified
// sweep, shipped for n=4. n=3 ships a 16-gate table trimmed from the
// renorms=1 sweep (fpan/gates.hpp), timed here as "shipped". This quantifies
// what correctness costs within the sweep family, and what the shipped
// table costs against the unsound sweep.
// ---------------------------------------------------------------------------

/// The pairing layer + sweep (fpan::sweep_add_table) with RENORMS
/// renormalization passes; RENORMS = 1 is mf::add for N = 4.
template <int N, int RENORMS>
MultiFloat<double, N> add_variant(const MultiFloat<double, N>& x,
                                  const MultiFloat<double, N>& y) noexcept {
    double w[2 * N];
    for (int i = 0; i < N; ++i) {
        w[2 * i] = x.limb[i];
        w[2 * i + 1] = y.limb[i];
    }
    return detail::run_fpan<fpan::sweep_add_table<N, RENORMS>()>(w);
}

template <int N>
void ablation_add_run() {
    const auto xs = operands<N>(1);
    const auto ys = operands<N>(2);
    std::vector<MultiFloat<double, N>> zs(kOperands);
    const auto pass = [&](auto op) { return sweeps(xs, ys, zs, op); };
    const auto [secs, rel] = interleaved(
        1.0, pass([](const auto& x, const auto& y) { return add_variant<N, 0>(x, y); }),
        pass([](const auto& x, const auto& y) { return add_variant<N, 1>(x, y); }),
        pass([](const auto& x, const auto& y) { return add_variant<N, 2>(x, y); }),
        pass([](const auto& x, const auto& y) { return x + y; }));
    std::printf("add N=%d [ns/op]: renorms=0 %6.2f (UNSOUND)  renorms=1 %6.2f  "
                "renorms=2 %6.2f  shipped %6.2f (%d gates)\n",
                N, ns_per_op(secs[0]), ns_per_op(secs[1]), ns_per_op(secs[2]),
                ns_per_op(secs[3]), fpan::add_table<N>.size());
    std::printf("  correctness cost over renorms=0: renorms=1 %.1f%%, shipped %.1f%%\n",
                (rel[1] - 1.0) * 100.0, (rel[3] - 1.0) * 100.0);
}

int ablation_add(const SuiteOptions&) {
    std::printf("Ablation: renormalization passes in the addition sweep\n"
                "(renorms=0 reproduces the paper's exact gate counts but fails\n"
                " exhaustive verification; see tests/fpan_verify_test.cpp)\n\n");
    ablation_add_run<3>();
    ablation_add_run<4>();
    return 0;
}

// ---------------------------------------------------------------------------
// Ablations for §4.2:
//
//  (1) Commutativity layer: the commutative 2-term multiplier (Figure 5) vs.
//      the FMA-chained non-commutative variant. The paper argues the layer
//      is nearly free; this measures the actual cost and demonstrates the
//      complex-conjugate artifact the non-commutative version produces.
//
//  (2) Discard optimization: the n^2-input accumulation (TwoProds only where
//      i+j <= n-2) vs. a full 2n^2-term accumulation that keeps every
//      TwoProd error and feeds them all through a distillation sweep.
// ---------------------------------------------------------------------------

/// Full-expansion 2-term multiply WITHOUT the discard optimization: all four
/// TwoProds, all eight terms accumulated (2n^2 FPAN inputs). Force-inlined
/// like mf::mul, so both time loops get the same chance to vectorize.
MF_ALWAYS_INLINE Float64x2 mul2_full(const Float64x2& x, const Float64x2& y) noexcept {
    const auto [p00, e00] = two_prod(x.limb[0], y.limb[0]);
    const auto [p01, e01] = two_prod(x.limb[0], y.limb[1]);
    const auto [p10, e10] = two_prod(x.limb[1], y.limb[0]);
    const auto [p11, e11] = two_prod(x.limb[1], y.limb[1]);
    double w[8] = {p00, p01, e00, p10, e01, p11, e10, e11};
    return detail::run_fpan<fpan::sweep_table<8, 2>()>(w);
}

int ablation_mul(const SuiteOptions&) {
    std::printf("Ablations (paper §4.2): multiplication design choices\n\n");
    const auto xs = operands<2>(1);
    const auto ys = operands<2>(2);
    std::vector<Float64x2> zs(kOperands);
    const auto pass = [&](auto op) { return sweeps(xs, ys, zs, op); };
    const auto [secs, rel] = interleaved(
        1.0, pass([](const auto& x, const auto& y) { return mul(x, y); }),
        pass([](const auto& x, const auto& y) { return detail::mul2_noncommutative(x, y); }),
        pass([](const auto& x, const auto& y) { return mul2_full(x, y); }));

    std::printf("2-term multiply variants [median ns/op]:\n");
    std::printf("  commutative, discard-optimized (Fig 5, ours): %7.2f\n", ns_per_op(secs[0]));
    std::printf("  non-commutative FMA chain:                    %7.2f  (%.2fx)\n",
                ns_per_op(secs[1]), rel[1]);
    std::printf("  full 2n^2-input accumulation (no discards):   %7.2f  (%.2fx slower)\n",
                ns_per_op(secs[2]), rel[2]);

    // Complex conjugate artifact (§4.2): (a+bi)(a-bi) imaginary part.
    std::printf("\nComplex conjugate product (a+bi)(a-bi), imaginary residue:\n");
    int nonzero_comm = 0;
    int nonzero_fma = 0;
    for (std::size_t i = 0; i < kOperands; ++i) {
        const auto& a = xs[i];
        const auto& b = ys[i];
        const auto im_comm = sub(mul(a, b), mul(b, a));
        const auto im_fma = sub(detail::mul2_noncommutative(a, b),
                                detail::mul2_noncommutative(b, a));
        nonzero_comm += !im_comm.is_zero();
        nonzero_fma += !im_fma.is_zero();
    }
    std::printf("  commutative multiplier: %4d / 1024 nonzero (paper: always exactly 0)\n",
                nonzero_comm);
    std::printf("  FMA-chained multiplier: %4d / 1024 nonzero (the eigensolver artifact)\n",
                nonzero_fma);
    return 0;
}

// ---------------------------------------------------------------------------
// Ablation: memory layout. The same branch-free networks run over
// array-of-structs (AoS) vectors -- pack-vectorized through the in-register
// record transposes of Pack::load_interleaved / store_interleaved
// (simd::axpy / dot on simd::Aos rows, the kernels under mf::blas) -- and
// over planar structure-of-arrays (SoA) vectors, where packs load limb planes
// directly (src/blas/planar.hpp -> mf::simd). Both sides run on the calling
// thread and the active backend, so the SoA uplift isolates the layout cost:
// it is pure marshalling, since both sides execute the identical pack
// networks. Branchy baselines (QD, CAMPARY) cannot be laid out either way,
// because their control flow diverges per element.
//
// Gate: exits 1 when, at N = 2, AoS axpy or dot takes more than
// kMaxAosRatio times the SoA time per element.
// ---------------------------------------------------------------------------

/// The largest AoS/SoA time ratio the N = 2 kernels may show. Before the
/// in-register transposes the ratio was about 8 on AVX-512; with them it is
/// about 1.1-1.2 (EXPERIMENTS.md, "AoS kernels at planar speed").
constexpr double kMaxAosRatio = 2.0;

/// Prints the N-limb comparison; returns false when the N = 2 gate fails.
template <int N>
bool ablation_layout_run() {
    const std::size_t n = 1 << 15;
    std::mt19937_64 rng(1);
    std::uniform_real_distribution<double> u(1.0, 2.0);
    planar::Vector<double, N> x(n);
    planar::Vector<double, N> y(n);
    std::vector<MultiFloat<double, N>> xa(n);
    std::vector<MultiFloat<double, N>> ya(n);
    for (std::size_t i = 0; i < n; ++i) {
        const MultiFloat<double, N> v(u(rng));
        const MultiFloat<double, N> w(u(rng));
        x.set(i, v);
        y.set(i, w);
        xa[i] = v;
        ya[i] = w;
    }
    const MultiFloat<double, N> alpha(1.5);

    const double t_axpy_aos = best_time(
        [&] { simd::axpy(alpha, simd::aos(xa.data()), simd::aos(ya.data()), n); });
    const double t_axpy_soa = best_time([&] { planar::axpy(alpha, x, y); });
    volatile double sink = 0.0;
    const double t_dot_aos = best_time([&] {
        sink = sink + static_cast<double>(
                          simd::dot(simd::aos(xa.data()), simd::aos(ya.data()), n).to_float());
    });
    const double t_dot_soa =
        best_time([&] { sink = sink + static_cast<double>(planar::dot(x, y).to_float()); });

    const double scale = static_cast<double>(n) / 1e6;
    std::printf("N=%d  AXPY: AoS %8.2f Mop/s | SoA %8.2f Mop/s | uplift %.2fx\n", N,
                scale / t_axpy_aos, scale / t_axpy_soa, t_axpy_aos / t_axpy_soa);
    std::printf("N=%d  DOT : AoS %8.2f Mop/s | SoA %8.2f Mop/s | uplift %.2fx\n", N,
                scale / t_dot_aos, scale / t_dot_soa, t_dot_aos / t_dot_soa);
    if (N != 2) return true;
    const bool ok = t_axpy_aos <= kMaxAosRatio * t_axpy_soa &&
                    t_dot_aos <= kMaxAosRatio * t_dot_soa;
    if (!ok) {
        std::printf("FAIL: at N=2 AoS runs more than %.1fx slower than SoA\n",
                    kMaxAosRatio);
    }
    return ok;
}

int ablation_layout(const SuiteOptions&) {
    std::printf("Ablation: AoS (pack via in-register record transposes) vs SoA (direct\n"
                "pack loads) layouts for the branch-free kernels, one thread, backend\n"
                "%s. The uplift is the marshalling cost the planar layout removes.\n\n",
                simd::backend_name(simd::active_backend()));
    const bool ok = ablation_layout_run<2>();
    ablation_layout_run<3>();
    ablation_layout_run<4>();
    return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Ablation for §4.3: progressive-width Newton iteration (the shipped
// mf::recip / mf::rsqrt) vs. a naive full-width loop, for the reciprocal and
// the inverse square root. The paper's optimization runs early iterations at
// half the expansion width (they only carry ~2^k * p correct bits); this
// quantifies the saving and audits both variants against the exact oracle.
//
// Gate: exits 1 when the shipped path's worst relative error over the sample
// misses the N*p - N - 4 bit bound that tests/divsqrt_test.cpp enforces.
// ---------------------------------------------------------------------------

constexpr std::size_t kDivSqrtSample = 512;

/// Full-width Newton steps from the one-limb seed: every iterate runs at N
/// terms, ceil(log2(N)) + 1 of them.
template <int N>
constexpr int kFullWidthSteps = (N <= 2) ? 2 : 3;

// The baseline loops are force-inlined like the shipped path, so both time
// loops get the same chance to vectorize.

template <int N>
MF_ALWAYS_INLINE MultiFloat<double, N> recip_full_width(const MultiFloat<double, N>& a) {
    const MultiFloat<double, N> one(1.0);
    MultiFloat<double, N> r(1.0 / a.limb[0]);
    for (int k = 0; k < kFullWidthSteps<N>; ++k) r = add(r, mul(r, sub(one, mul(a, r))));
    return r;
}

template <int N>
MF_ALWAYS_INLINE MultiFloat<double, N> rsqrt_full_width(const MultiFloat<double, N>& a) {
    const MultiFloat<double, N> one(1.0);
    MultiFloat<double, N> r(1.0 / std::sqrt(a.limb[0]));
    for (int k = 0; k < kFullWidthSteps<N>; ++k) {
        const MultiFloat<double, N> d = sub(one, mul(a, mul(r, r)));
        r = add(r, detail::halve(mul(r, d)));
    }
    return r;
}

/// Worst log2 relative error of f over xs against the oracle want(x).
template <int N, typename F, typename Want>
double worst_error(const std::vector<MultiFloat<double, N>>& xs, F f, Want want) {
    double worst = -std::numeric_limits<double>::infinity();
    for (const auto& x : xs) worst = std::max(worst, check::rel_err_log2(f(x), want(x)));
    return worst;
}

/// Times and audits one operation; returns false when the shipped path
/// misses the bound.
template <int N, typename Full, typename Shipped, typename Want>
bool compare_newton(const char* name, const std::vector<MultiFloat<double, N>>& xs,
                    Full full, Shipped shipped, Want want) {
    std::vector<MultiFloat<double, N>> out(xs.size());
    const double t_full = best_time([&] {
        for (std::size_t i = 0; i < xs.size(); ++i) out[i] = full(xs[i]);
    });
    const double t_ship = best_time([&] {
        for (std::size_t i = 0; i < xs.size(); ++i) out[i] = shipped(xs[i]);
    });
    const int bound = check::bound_bits(check::Op::div, 53, N);
    const double worst_full = worst_error(xs, full, want);
    const double worst_ship = worst_error(xs, shipped, want);
    const bool ok = worst_ship <= -bound;
    const double n = static_cast<double>(xs.size());
    std::printf("%-5s N=%d: full-width %7.1f ns/op | progressive %7.1f ns/op | speedup %.2fx\n",
                name, N, t_full / n * 1e9, t_ship / n * 1e9, t_full / t_ship);
    std::printf("             worst error: full-width 2^%.1f, progressive 2^%.1f "
                "(bound 2^-%d)%s\n",
                worst_full, worst_ship, bound, ok ? "" : "  FAIL");
    return ok;
}

template <int N>
bool ablation_divsqrt_run() {
    using big::BigFloat;
    std::mt19937_64 rng(42);
    std::vector<MultiFloat<double, N>> xs;
    for (std::size_t i = 0; i < kDivSqrtSample; ++i) {
        xs.push_back(abs(random_signed<double, N>(rng)));
    }
    constexpr std::int64_t prec = check::oracle_prec(53, N);
    const auto one = BigFloat::from_int(1);

    const bool recip_ok = compare_newton<N>(
        "recip", xs, [](const auto& a) { return recip_full_width<N>(a); },
        [](const auto& a) { return recip(a); },
        [&](const auto& a) { return BigFloat::div(one, check::exact(a), prec); });
    const bool rsqrt_ok = compare_newton<N>(
        "rsqrt", xs, [](const auto& a) { return rsqrt_full_width<N>(a); },
        [](const auto& a) { return rsqrt(a); },
        [&](const auto& a) {
            return BigFloat::div(one, BigFloat::sqrt(check::exact(a), prec + 20), prec);
        });
    return recip_ok && rsqrt_ok;
}

int ablation_divsqrt(const SuiteOptions&) {
    std::printf("Ablation (paper §4.3): progressive-width Newton recip/rsqrt\n\n");
    bool ok = ablation_divsqrt_run<2>();
    ok = ablation_divsqrt_run<3>() && ok;
    ok = ablation_divsqrt_run<4>() && ok;
    if (!ok) {
        std::printf("\nFAIL: the shipped Newton path misses the N*p - N - 4 bit bound\n");
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------------------
// The subcommands.
// ---------------------------------------------------------------------------

struct Command {
    std::string_view name;
    int (*run)(const SuiteOptions&);
};

constexpr Command kCommands[] = {
    {"fig8_peak_ratio", fig8_peak_ratio},
    {"fig9_axpy", [](const SuiteOptions& o) { return fig9(Kernel::Axpy, o); }},
    {"fig9_dot", [](const SuiteOptions& o) { return fig9(Kernel::Dot, o); }},
    {"fig9_gemv", [](const SuiteOptions& o) { return fig9(Kernel::Gemv, o); }},
    {"fig9_gemm", [](const SuiteOptions& o) { return fig9(Kernel::Gemm, o); }},
    {"fig10_portability", fig10_portability},
    {"fig11_gpu_proxy", fig11_gpu_proxy},
    {"ablation_add", ablation_add},
    {"ablation_mul", ablation_mul},
    {"ablation_layout", ablation_layout},
    {"ablation_divsqrt", ablation_divsqrt},
};

int usage() {
    std::fprintf(stderr, "usage: paper_bench <name> [--quick] [-v]\nnames:\n");
    for (const Command& c : kCommands) {
        std::fprintf(stderr, "  %.*s\n", static_cast<int>(c.name.size()), c.name.data());
    }
    return 2;
}

}  // namespace
}  // namespace mf::bench

int main(int argc, char** argv) {
    using namespace mf::bench;
    if (argc < 2) return usage();
    const auto cmd = std::ranges::find(kCommands, std::string_view(argv[1]), &Command::name);
    if (cmd == std::ranges::end(kCommands)) return usage();
    SuiteOptions opts;
    for (int i = 2; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (a == "-v" || a == "--verbose") {
            opts.verbose = true;
        } else if (a == "--quick") {
            opts.min_time = 0.04;
            opts.ops_budget = 1e6;
        } else {
            return usage();
        }
    }
    // The fig* subcommands run the suite, whose blas calls fork onto the
    // engine's workers; the ablations time one thread.
    if (cmd->name.starts_with("fig")) {
        std::printf("blas workers: %u (engine::default_threads(); large suite calls split "
                    "across them)\n",
                    mf::blas::engine::default_threads());
    }
    return cmd->run(opts);
}
