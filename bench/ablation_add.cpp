// Ablation for §4.1 / DESIGN.md: how many FastTwoSum renormalization passes
// does the addition sweep need? renorms=0 matches the paper's gate counts
// exactly (26 gates for 4-term) but the exhaustive small-p checker proves it
// INCORRECT for n=3 (rare 1-bit nonoverlap violations); renorms=1 is the
// verified sweep, shipped for n=4. n=3 ships a 16-gate table trimmed from
// the renorms=1 sweep (fpan/gates.hpp), timed here as "shipped". This bench
// quantifies what correctness costs within the sweep family, and what the
// shipped table costs against the unsound sweep.

#include <cstdio>
#include <random>
#include <vector>

#include "harness.hpp"
#include "mf/multifloats.hpp"

using namespace mf;

namespace {

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
std::vector<MultiFloat<double, N>> operands(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<MultiFloat<double, N>> v;
    for (int i = 0; i < 1024; ++i) {
        MultiFloat<double, N> x(1.0 + static_cast<double>(rng() >> 12) * 0x1p-52);
        for (int k = 1; k < N; ++k) {
            x = x + std::ldexp(1.0 + static_cast<double>(rng() >> 12) * 0x1p-52,
                               -55 * k);
        }
        v.push_back(x);
    }
    return v;
}

template <int N>
void run() {
    const auto xs = operands<N>(1);
    const auto ys = operands<N>(2);
    std::vector<MultiFloat<double, N>> zs(1024);
    const double t0 = bench::best_time([&] {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = add_variant<N, 0>(xs[i], ys[i]);
    });
    const double t1 = bench::best_time([&] {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = add_variant<N, 1>(xs[i], ys[i]);
    });
    const double t2 = bench::best_time([&] {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = add_variant<N, 2>(xs[i], ys[i]);
    });
    const double ts = bench::best_time([&] {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = xs[i] + ys[i];
    });
    std::printf("add N=%d [ns/op]: renorms=0 %6.2f (UNSOUND)  renorms=1 %6.2f  "
                "renorms=2 %6.2f  shipped %6.2f (%d gates)\n",
                N, t0 / 1024 * 1e9, t1 / 1024 * 1e9, t2 / 1024 * 1e9, ts / 1024 * 1e9,
                fpan::add_table<N>.size());
    std::printf("  correctness cost over renorms=0: renorms=1 %.1f%%, shipped %.1f%%\n",
                (t1 / t0 - 1.0) * 100.0, (ts / t0 - 1.0) * 100.0);
}

}  // namespace

int main() {
    std::printf("Ablation: renormalization passes in the addition sweep\n"
                "(renorms=0 reproduces the paper's exact gate counts but fails\n"
                " exhaustive verification; see tests/fpan_verify_test.cpp)\n\n");
    run<3>();
    run<4>();
    return 0;
}
