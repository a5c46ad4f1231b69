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

#include <cstdio>
#include <random>
#include <vector>

#include "harness.hpp"
#include "mf/multifloats.hpp"

using namespace mf;

namespace {

std::vector<Float64x2> operands2(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<Float64x2> v;
    for (int i = 0; i < 1024; ++i) {
        Float64x2 x(1.0 + static_cast<double>(rng() >> 12) * 0x1p-52);
        x = x + std::ldexp(1.0 + static_cast<double>(rng() >> 12) * 0x1p-52, -55);
        v.push_back(x);
    }
    return v;
}

/// Full-expansion 2-term multiply WITHOUT the discard optimization: all four
/// TwoProds, all eight terms accumulated (2n^2 FPAN inputs).
Float64x2 mul2_full(const Float64x2& x, const Float64x2& y) noexcept {
    const auto [p00, e00] = two_prod(x.limb[0], y.limb[0]);
    const auto [p01, e01] = two_prod(x.limb[0], y.limb[1]);
    const auto [p10, e10] = two_prod(x.limb[1], y.limb[0]);
    const auto [p11, e11] = two_prod(x.limb[1], y.limb[1]);
    double w[8] = {p00, p01, e00, p10, e01, p11, e10, e11};
    return detail::run_fpan<fpan::sweep_table<8, 2>()>(w);
}

}  // namespace

int main() {
    std::printf("Ablations (paper §4.2): multiplication design choices\n\n");
    const auto xs = operands2(1);
    const auto ys = operands2(2);
    std::vector<Float64x2> zs(1024);

    const double t_comm = bench::best_time([&] {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = mul(xs[i], ys[i]);
    });
    const double t_fma = bench::best_time([&] {
        for (std::size_t i = 0; i < 1024; ++i)
            zs[i] = detail::mul2_noncommutative(xs[i], ys[i]);
    });
    const double t_full = bench::best_time([&] {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = mul2_full(xs[i], ys[i]);
    });

    std::printf("2-term multiply variants [ns/op]:\n");
    std::printf("  commutative, discard-optimized (Fig 5, ours): %7.2f\n",
                t_comm / 1024 * 1e9);
    std::printf("  non-commutative FMA chain:                    %7.2f\n",
                t_fma / 1024 * 1e9);
    std::printf("  full 2n^2-input accumulation (no discards):   %7.2f  (%.2fx slower)\n",
                t_full / 1024 * 1e9, t_full / t_comm);

    // Complex conjugate artifact (§4.2): (a+bi)(a-bi) imaginary part.
    std::printf("\nComplex conjugate product (a+bi)(a-bi), imaginary residue:\n");
    int nonzero_comm = 0;
    int nonzero_fma = 0;
    for (std::size_t i = 0; i < 1024; ++i) {
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
