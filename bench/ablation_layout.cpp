// Ablation: memory layout. The same branch-free networks run over
// array-of-structs (AoS) vectors -- pack-vectorized through the in-register
// record transposes of Pack::load_interleaved / store_interleaved
// (simd::axpy / dot on simd::Aos rows, the kernels under mf::blas) -- and over planar
// structure-of-arrays (SoA) vectors, where packs load limb planes directly
// (src/blas/planar.hpp -> mf::simd). Both sides run on the calling thread
// and the active backend, so the SoA uplift isolates the layout cost: it is
// pure marshalling, since both sides execute the identical pack networks.
// Branchy baselines (QD, CAMPARY) cannot be laid out either way, because
// their control flow diverges per element.
//
// Gate: exits 1 when, at N = 2, AoS axpy or dot takes more than
// kMaxAosRatio times the SoA time per element.

#include <cstdio>
#include <random>
#include <vector>

#include "blas/planar.hpp"
#include "harness.hpp"
#include "simd/simd.hpp"

using namespace mf;

namespace {

/// The largest AoS/SoA time ratio the N = 2 kernels may show. Before the
/// in-register transposes the ratio was about 8 on AVX-512; with them it is
/// about 1.1-1.2 (EXPERIMENTS.md, "AoS kernels at planar speed").
constexpr double kMaxAosRatio = 2.0;

/// Prints the N-limb comparison; returns false when the N = 2 gate fails.
template <int N>
bool run() {
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

    const double t_axpy_aos = bench::best_time(
        [&] { simd::axpy(alpha, simd::aos(xa.data()), simd::aos(ya.data()), n); });
    const double t_axpy_soa = bench::best_time([&] { planar::axpy(alpha, x, y); });
    volatile double sink = 0.0;
    const double t_dot_aos = bench::best_time([&] {
        sink = sink + static_cast<double>(
                          simd::dot(simd::aos(xa.data()), simd::aos(ya.data()), n).to_float());
    });
    const double t_dot_soa = bench::best_time(
        [&] { sink = sink + static_cast<double>(planar::dot(x, y).to_float()); });

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

}  // namespace

int main() {
    std::printf("Ablation: AoS (pack via in-register record transposes) vs SoA (direct\n"
                "pack loads) layouts for the branch-free kernels, one thread, backend\n"
                "%s. The uplift is the marshalling cost the planar layout removes.\n\n",
                simd::backend_name(simd::active_backend()));
    const bool ok = run<2>();
    run<3>();
    run<4>();
    return ok ? 0 : 1;
}
