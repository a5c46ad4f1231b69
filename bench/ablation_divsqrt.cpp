// Ablation for §4.3: progressive-width Newton iteration (the shipped
// mf::recip / mf::rsqrt) vs. a naive full-width loop, for the reciprocal and
// the inverse square root. The paper's optimization runs early iterations at
// half the expansion width (they only carry ~2^k * p correct bits); this
// bench quantifies the saving and audits both variants against the exact
// oracle.
//
// Gate: exits 1 when the shipped path's worst relative error over the sample
// misses the N*p - N - 4 bit bound that tests/divsqrt_test.cpp enforces.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <vector>

#include "check/oracle.hpp"
#include "harness.hpp"
#include "mf/multifloats.hpp"
#include "mf/random.hpp"

using namespace mf;
using mf::big::BigFloat;

namespace {

constexpr std::size_t kSample = 512;

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
bool compare(const char* name, const std::vector<MultiFloat<double, N>>& xs, Full full,
             Shipped shipped, Want want) {
    std::vector<MultiFloat<double, N>> out(xs.size());
    const double t_full = bench::best_time([&] {
        for (std::size_t i = 0; i < xs.size(); ++i) out[i] = full(xs[i]);
    });
    const double t_ship = bench::best_time([&] {
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
bool run_ablation() {
    std::mt19937_64 rng(42);
    std::vector<MultiFloat<double, N>> xs;
    for (std::size_t i = 0; i < kSample; ++i) xs.push_back(abs(random_signed<double, N>(rng)));
    constexpr std::int64_t prec = check::oracle_prec(53, N);
    const auto one = BigFloat::from_int(1);

    const bool recip_ok = compare<N>(
        "recip", xs, [](const auto& a) { return recip_full_width<N>(a); },
        [](const auto& a) { return recip(a); },
        [&](const auto& a) { return BigFloat::div(one, check::exact(a), prec); });
    const bool rsqrt_ok = compare<N>(
        "rsqrt", xs, [](const auto& a) { return rsqrt_full_width<N>(a); },
        [](const auto& a) { return rsqrt(a); },
        [&](const auto& a) {
            return BigFloat::div(one, BigFloat::sqrt(check::exact(a), prec + 20), prec);
        });
    return recip_ok && rsqrt_ok;
}

}  // namespace

int main() {
    std::printf("Ablation (paper §4.3): progressive-width Newton recip/rsqrt\n\n");
    bool ok = run_ablation<2>();
    ok = run_ablation<3>() && ok;
    ok = run_ablation<4>() && ok;
    if (!ok) {
        std::printf("\nFAIL: the shipped Newton path misses the N*p - N - 4 bit bound\n");
        return 1;
    }
    return 0;
}
