// Explicit-SIMD planar path vs the pre-SIMD auto-vectorized path, per
// backend, with machine-readable output (BENCH_simd.json).
//
// The "autovec" rows re-create the seed's planar loops verbatim (plain
// per-element loop + `#pragma GCC ivdep`, compiler auto-vectorization only);
// the backend rows run the same workloads through mf::simd packs at each
// backend available on this machine (GEMM through the packed engine,
// blas::gemm_packed, on one worker). The rows are a per-backend trajectory:
// a change to a pack kernel is judged against the same backend's row in the
// committed record, within its run-to-run spread. The autovec rows are a
// reference point, not a bound: at N = 3 and 4 GCC now vectorizes the seed
// loops about as well as the explicit kernels (EXPERIMENTS.md). The
// axpy_aos / dot_aos rows run the same axpy and dot on interleaved
// MultiFloat arrays (the mf::blas layout) at the same n, each timed next to
// its planar row.
//
// Timings use median-of-K (bench::median_time) rather than best-of: these
// records feed the BENCH_*.json trajectories, where run-to-run robustness
// beats peak flattery. The JSON is stamped with git SHA / compiler / thread
// count / active backend (harness.cpp, via mf::telemetry::build_info()).
//
//   usage: bench_simd [output.json]        (default BENCH_simd.json)

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "blas/engine/gemm_packed.hpp"
#include "fpan/gates.hpp"
#include "blas/planar.hpp"
#include "harness.hpp"
#include "simd/simd.hpp"

namespace {

using namespace mf;

// --- seed (pre-SIMD) planar loops, kept verbatim as the autovec baseline ---

template <FloatingPoint T, int N>
void autovec_axpy(const MultiFloat<T, N>& alpha, const T* const* xp,
                  T* const* yp, std::size_t i0, std::size_t i1) {
#pragma GCC ivdep
    for (std::size_t i = i0; i < i1; ++i) {
        MultiFloat<T, N> x;
        MultiFloat<T, N> y;
        for (int k = 0; k < N; ++k) {
            x.limb[k] = xp[k][i];
            y.limb[k] = yp[k][i];
        }
        const MultiFloat<T, N> z = add(mul(alpha, x), y);
        for (int k = 0; k < N; ++k) yp[k][i] = z.limb[k];
    }
}

template <FloatingPoint T, int N>
MultiFloat<T, N> autovec_dot(const planar::Vector<T, N>& x,
                             const planar::Vector<T, N>& y) {
    constexpr std::size_t K = 8;
    const std::size_t n = x.size();
    T part[N][K] = {};
    const T* xp[N];
    const T* yp[N];
    for (int k = 0; k < N; ++k) {
        xp[k] = x.plane(k);
        yp[k] = y.plane(k);
    }
    for (std::size_t blk = 0; blk + K <= n; blk += K) {
#pragma GCC ivdep
        for (std::size_t j = 0; j < K; ++j) {
            MultiFloat<T, N> xe;
            MultiFloat<T, N> ye;
            MultiFloat<T, N> acc;
            for (int k = 0; k < N; ++k) {
                xe.limb[k] = xp[k][blk + j];
                ye.limb[k] = yp[k][blk + j];
                acc.limb[k] = part[k][j];
            }
            const MultiFloat<T, N> z = add(acc, mul(xe, ye));
            for (int k = 0; k < N; ++k) part[k][j] = z.limb[k];
        }
    }
    MultiFloat<T, N> acc{};
    for (std::size_t j = 0; j < K; ++j) {
        MultiFloat<T, N> p;
        for (int k = 0; k < N; ++k) p.limb[k] = part[k][j];
        acc = add(acc, p);
    }
    for (std::size_t i = n - n % K; i < n; ++i) {
        acc = add(acc, mul(x.get(i), y.get(i)));
    }
    return acc;
}

template <FloatingPoint T, int N>
void autovec_gemm(const planar::Vector<T, N>& a, const planar::Vector<T, N>& b,
                  planar::Vector<T, N>& c, std::size_t n, std::size_t k,
                  std::size_t m) {
    const T* bp[N];
    T* cp[N];
    for (int p = 0; p < N; ++p) {
        bp[p] = b.plane(p);
        cp[p] = c.plane(p);
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            MultiFloat<T, N> aik;
            for (int p = 0; p < N; ++p) aik.limb[p] = a.plane(p)[i * k + kk];
            const T* brow[N];
            T* crow[N];
            for (int p = 0; p < N; ++p) {
                brow[p] = bp[p] + kk * m;
                crow[p] = cp[p] + i * m;
            }
            autovec_axpy<T, N>(aik, brow, crow, 0, m);
        }
    }
}

// ---------------------------------------------------------------------------

/// Launder a size through a volatile so it is a runtime value for BOTH
/// measured paths. With literal sizes the compiler constant-propagates the
/// trip count into whichever path it happens to inline deeper and fully
/// unrolls it -- a specialization real (runtime-sized) workloads never get.
std::size_t runtime_size(std::size_t v) {
    volatile std::size_t s = v;
    return s;
}

template <FloatingPoint T, int N>
planar::Vector<T, N> random_planar(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    planar::Vector<T, N> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        MultiFloat<T, N> e(static_cast<T>(bench::fill_value(rng)));
        v.set(i, e);
    }
    return v;
}

void report(bench::JsonReport& out, const char* kernel, const char* type,
            int limbs, const std::string& backend, int width, double secs,
            double ops) {
    const double ns = secs / ops * 1e9;
    const double gflops = ops * fpan::madd_flops(limbs) / secs / 1e9;
    std::printf("  %-8s %-7s N=%d  %-8s w=%-2d  %10.2f ns/op  %8.3f GFLOP-equiv/s\n",
                kernel, type, limbs, backend.c_str(), width, ns, gflops);
    out.add({kernel, type, limbs, backend, width, ns, gflops});
}

/// Every backend available on this machine, widest last.
std::vector<simd::Backend> available_backends() {
    std::vector<simd::Backend> v;
    for (simd::Backend b : {simd::Backend::scalar, simd::Backend::sse2,
                            simd::Backend::neon, simd::Backend::avx2,
                            simd::Backend::avx512}) {
        if (simd::backend_available(b)) v.push_back(b);
    }
    return v;
}

template <FloatingPoint T, int N>
void run_type(bench::JsonReport& out, const char* type_name) {
    const std::size_t n = runtime_size(1 << 14);
    const auto x = random_planar<T, N>(n, 1);
    auto y = random_planar<T, N>(n, 2);
    const MultiFloat<T, N> alpha(static_cast<T>(1.0 + 0x1p-30));
    const T* xp[N];
    T* yp[N];
    for (int k = 0; k < N; ++k) {
        xp[k] = x.plane(k);
        yp[k] = y.plane(k);
    }

    // Warm-up: sustain the widest-vector workload before the first
    // measurement so autovec (measured first in each block) is not flattered
    // by turbo clocks the later AVX-heavy measurements no longer get.
    simd::set_backend(available_backends().back());
    bench::best_time([&] { planar::axpy(alpha, x, y); }, 0.5);

    // The same data in the mf::blas layout (interleaved MultiFloat). Each
    // backend's axpy_aos / dot_aos row is timed right after its planar row,
    // so the pair sees the same host state and their ratio is the cost of
    // the AoS <-> pack transposes.
    std::vector<MultiFloat<T, N>> xa(n);
    std::vector<MultiFloat<T, N>> ya(n);
    for (std::size_t i = 0; i < n; ++i) {
        xa[i] = x.get(i);
        ya[i] = y.get(i);
    }

    // AXPY
    {
        const double t = bench::median_time(
            [&] { autovec_axpy<T, N>(alpha, xp, yp, 0, n); });
        report(out, "axpy", type_name, N, "autovec", 0, t, double(n));
        for (simd::Backend b : available_backends()) {
            simd::set_backend(b);
            const double tb =
                bench::median_time([&] { planar::axpy(alpha, x, y); });
            report(out, "axpy", type_name, N, simd::backend_name(b),
                   simd::active_width<T>(), tb, double(n));
            const double ta = bench::median_time(
                [&] { simd::axpy(alpha, simd::aos(xa.data()), simd::aos(ya.data()), n); });
            report(out, "axpy_aos", type_name, N, simd::backend_name(b),
                   simd::active_width<T>(), ta, double(n));
        }
    }
    // DOT
    {
        MultiFloat<T, N> sink{};
        const double t = bench::median_time([&] {
            const auto d = autovec_dot(x, y);
            sink = add(sink, d);
        });
        report(out, "dot", type_name, N, "autovec", 0, t, double(n));
        for (simd::Backend b : available_backends()) {
            simd::set_backend(b);
            const double tb = bench::median_time([&] {
                const auto d = planar::dot(x, y);
                sink = add(sink, d);
            });
            report(out, "dot", type_name, N, simd::backend_name(b),
                   simd::active_width<T>(), tb, double(n));
            const double ta = bench::median_time([&] {
                sink = add(sink, simd::dot(simd::aos(xa.data()), simd::aos(ya.data()), n));
            });
            report(out, "dot_aos", type_name, N, simd::backend_name(b),
                   simd::active_width<T>(), ta, double(n));
        }
        if (sink.limb[0] == T(-1)) std::printf("impossible\n");  // keep sink live
    }
    // GEMM: the packed engine on one worker, per backend
    {
        const std::size_t gn = runtime_size(48);
        const std::size_t gk = runtime_size(48);
        const std::size_t gm = runtime_size(48);
        const double ops = double(gn) * double(gk) * double(gm);
        const auto a = random_planar<T, N>(gn * gk, 3);
        const auto bm = random_planar<T, N>(gk * gm, 4);
        planar::Vector<T, N> c(gn * gm);
        const double t = bench::median_time(
            [&] { autovec_gemm<T, N>(a, bm, c, gn, gk, gm); });
        report(out, "gemm", type_name, N, "autovec", 0, t, ops);
        blas::GemmConfig one_worker;
        one_worker.max_threads = 1;
        for (simd::Backend b : available_backends()) {
            simd::set_backend(b);
            const double tb = bench::median_time([&] {
                blas::gemm_packed(planar::matrix_view(a, gn, gk),
                                  planar::matrix_view(bm, gk, gm),
                                  planar::matrix_view(c, gn, gm), one_worker);
            });
            report(out, "gemm", type_name, N, simd::backend_name(b),
                   simd::active_width<T>(), tb, ops);
        }
    }
    // Leave the widest backend active for whoever runs next.
    const auto avail = available_backends();
    simd::set_backend(avail.back());
}

}  // namespace

int main(int argc, char** argv) {
    const std::string path = argc > 1 ? argv[1] : "BENCH_simd.json";
    bench::JsonReport out;
    out.bench = "simd_planar";
    std::printf("Explicit SIMD vs auto-vectorized planar kernels on %s\n",
                bench::cpu_name().c_str());
    std::printf("startup backend: %s\n",
                simd::backend_name(simd::active_backend()));
    run_type<double, 2>(out, "double");
    run_type<double, 3>(out, "double");
    run_type<double, 4>(out, "double");
    run_type<float, 4>(out, "float");
    if (!out.write(path)) return 1;
    std::printf("wrote %s (%zu records)\n", path.c_str(), out.records.size());
    return 0;
}
