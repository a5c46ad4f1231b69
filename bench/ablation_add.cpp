// Ablation for §4.1 / DESIGN.md: how many FastTwoSum renormalization passes
// does the addition sweep need? renorms=0 matches the paper's gate counts
// exactly (26 gates for 4-term) but the exhaustive small-p checker proves it
// INCORRECT for n=3 (rare 1-bit nonoverlap violations); renorms=1 is the
// verified sweep, shipped for n=4. n=3 ships a 16-gate table trimmed from
// the renorms=1 sweep (fpan/gates.hpp), timed here as "shipped". This bench
// quantifies what correctness costs within the sweep family, and what the
// shipped table costs against the unsound sweep.

#include <algorithm>
#include <array>
#include <cstdio>
#include <random>
#include <utility>
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

/// Seconds per pass of each of `f...`: rounds of one timed pass of each in
/// turn until `budget` seconds, and per function the median over rounds.
/// Interleaving puts the host's drift on every variant alike, and the median
/// ignores the rounds an interrupt lands in. Also returns, for each function,
/// the median over rounds of its time over the first function's.
template <typename... F>
std::pair<std::array<double, sizeof...(F)>, std::array<double, sizeof...(F)>> interleaved(
    double budget, F&&... f) {
    constexpr std::size_t K = sizeof...(F);
    std::array<std::vector<double>, K> t, ratio;
    double total = 0.0;
    while (total < budget || t[0].size() < 11) {
        std::array<double, K> round{};
        std::size_t i = 0;
        ((round[i++] = bench::time_once(f)), ...);
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

template <int N>
void run() {
    constexpr int kReps = 8;  // passes over the 1024 operands per timing
    const auto xs = operands<N>(1);
    const auto ys = operands<N>(2);
    std::vector<MultiFloat<double, N>> zs(1024);
    const auto pass = [&](auto&& add) {
        return [&, add] {
            for (int r = 0; r < kReps; ++r) {
                for (std::size_t i = 0; i < 1024; ++i) zs[i] = add(xs[i], ys[i]);
            }
        };
    };
    const auto [secs, rel] = interleaved(
        1.0, pass([](const auto& x, const auto& y) { return add_variant<N, 0>(x, y); }),
        pass([](const auto& x, const auto& y) { return add_variant<N, 1>(x, y); }),
        pass([](const auto& x, const auto& y) { return add_variant<N, 2>(x, y); }),
        pass([](const auto& x, const auto& y) { return x + y; }));
    const auto ns = [&](std::size_t k) { return secs[k] / (1024 * kReps) * 1e9; };
    std::printf("add N=%d [ns/op]: renorms=0 %6.2f (UNSOUND)  renorms=1 %6.2f  "
                "renorms=2 %6.2f  shipped %6.2f (%d gates)\n",
                N, ns(0), ns(1), ns(2), ns(3), fpan::add_table<N>.size());
    std::printf("  correctness cost over renorms=0: renorms=1 %.1f%%, shipped %.1f%%\n",
                (rel[1] - 1.0) * 100.0, (rel[3] - 1.0) * 100.0);
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
