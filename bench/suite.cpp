#include "suite.hpp"

#include <cstdint>

#include "baselines/campary/campary.hpp"
#include "baselines/gmp_float.hpp"
#include "baselines/qd/dd_real.hpp"
#include "baselines/qd/qd_real.hpp"
#include "bigfloat/precfloat.hpp"
#include "blas/kernels.hpp"
#include "blas/planar.hpp"
#include "mf/multifloats.hpp"

namespace mf::bench {

const char* kernel_name(Kernel k) {
    switch (k) {
        case Kernel::Axpy: return "AXPY";
        case Kernel::Dot: return "DOT";
        case Kernel::Gemv: return "GEMV";
        default: return "GEMM";
    }
}

namespace {

/// Uniform "to double" across value types (some expose to_double(), some an
/// explicit conversion operator).
template <typename V>
double to_dbl(const V& v) {
    if constexpr (requires { v.to_double(); }) {
        return v.to_double();
    } else if constexpr (requires { v.to_float(); }) {
        return static_cast<double>(v.to_float());
    } else {
        return static_cast<double>(v);
    }
}

/// Deterministic operand vectors. Values in [1, 2): benign magnitudes, the
/// paper's dense-BLAS regime.
template <typename V>
std::vector<V> make_vec(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<V> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.emplace_back(fill_value(rng));
    return v;
}

/// Estimated bytes per element, to respect the paper's L3-resident sizing
/// for value types. Heap-backed types get a conservative figure.
template <typename V>
constexpr std::size_t elem_bytes() {
    if constexpr (sizeof(V) <= 64) {
        return sizeof(V);
    } else {
        return 128;
    }
}

/// Quick calibration: extended-precision ops per second at a small size.
template <typename V>
double calibrate_ops_per_sec() {
    const std::size_t n = 512;
    const auto x = make_vec<V>(n, 1);
    const auto y = make_vec<V>(n, 2);
    volatile double sink = 0.0;
    const double t = best_time(
        [&] {
            const V d = blas::dot<V>(blas::view(x), blas::view(y));
            sink = sink + to_dbl(d);
        },
        0.02, 2);
    return static_cast<double>(n) / t;
}

template <typename V>
double run_axpy(std::size_t n, double min_time) {
    const auto x = make_vec<V>(n, 3);
    auto y = make_vec<V>(n, 4);
    const double t = best_time(
        [&] { blas::axpy<V>(V(1.0009765625), blas::view(x), blas::view(y)); }, min_time);
    return static_cast<double>(n) / t / 1e9;
}

template <typename V>
double run_dot(std::size_t n, double min_time) {
    const auto x = make_vec<V>(n, 5);
    const auto y = make_vec<V>(n, 6);
    volatile double sink = 0.0;
    const double t = best_time(
        [&] {
            const V d = blas::dot<V>(blas::view(x), blas::view(y));
            sink = sink + to_dbl(d);
        },
        min_time);
    return static_cast<double>(n) / t / 1e9;
}

template <typename V>
double run_gemv(std::size_t n, double min_time) {
    const auto a = make_vec<V>(n * n, 7);
    const auto x = make_vec<V>(n, 8);
    std::vector<V> y(n, V(0.0));
    const double t = best_time(
        [&] { blas::gemv<V>(blas::view(a, n, n), blas::view(x), blas::view(y)); },
        min_time);
    return static_cast<double>(n) * static_cast<double>(n) / t / 1e9;
}

template <typename V>
double run_gemm(std::size_t n, double min_time) {
    const auto a = make_vec<V>(n * n, 9);
    const auto b = make_vec<V>(n * n, 10);
    std::vector<V> c(n * n, V(0.0));
    const double t = best_time(
        [&] {
            blas::gemm<V>(blas::view(a, n, n), blas::view(b, n, n), blas::view(c, n, n));
        },
        min_time);
    const double dn = static_cast<double>(n);
    return dn * dn * dn / t / 1e9;
}

/// One measurement: pick the problem size from the type's speed (so slow
/// software FPUs finish) capped at the L3-resident maximum (the paper's
/// sizing), then run the kernel.
template <typename V>
double measure(Kernel k, const SuiteOptions& opts) {
    const double ops_per_sec = calibrate_ops_per_sec<V>();
    const double budget = std::max(1024.0, std::min(opts.ops_budget, ops_per_sec * 0.25));
    const std::size_t l3 = l3_cache_bytes();
    switch (k) {
        case Kernel::Axpy:
        case Kernel::Dot: {
            const std::size_t cap = l3 / (3 * elem_bytes<V>());
            const auto n = static_cast<std::size_t>(
                std::clamp<double>(budget, 256, static_cast<double>(cap)));
            return k == Kernel::Axpy ? run_axpy<V>(n, opts.min_time)
                                     : run_dot<V>(n, opts.min_time);
        }
        case Kernel::Gemv: {
            const auto cap = static_cast<double>(l3) / (3.0 * elem_bytes<V>());
            const auto n = static_cast<std::size_t>(
                std::clamp(std::sqrt(budget), 16.0, std::sqrt(cap)));
            return run_gemv<V>(n, opts.min_time);
        }
        default: {
            const auto cap = static_cast<double>(l3) / (3.0 * elem_bytes<V>());
            const auto n = static_cast<std::size_t>(
                std::clamp(std::cbrt(budget * 4.0), 12.0, std::sqrt(cap)));
            return run_gemm<V>(n, opts.min_time);
        }
    }
}

template <typename V>
void fill_cell(Table& t, std::size_t row, std::size_t col, Kernel k,
               const SuiteOptions& opts) {
    const double gops = measure<V>(k, opts);
    t.set(row, col, gops);
    if (opts.verbose) {
        std::fprintf(stderr, "  %s %s[%zu]: %.3f GOp/s\n", t.title.c_str(),
                     t.rows[row].c_str(), col, gops);
    }
}

// ---------------------------------------------------------------------------
// Planar (SoA) measurements for the MultiFloats rows: the paper reports the
// maximum throughput over all configurations, and the planar layout is where
// the branch-free networks vectorize (src/blas/planar.hpp).
// ---------------------------------------------------------------------------

template <typename T, int N>
planar::Vector<T, N> make_planar(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    planar::Vector<T, N> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v.set(i, MultiFloat<T, N>(static_cast<T>(fill_value(rng))));
    }
    return v;
}

template <typename T, int N>
double measure_planar(Kernel k, const SuiteOptions& opts) {
    using V = MultiFloat<T, N>;
    const double ops_per_sec = calibrate_ops_per_sec<V>() * 4.0;  // SoA headroom
    const double budget = std::max(1024.0, std::min(opts.ops_budget, ops_per_sec * 0.25));
    const std::size_t l3 = l3_cache_bytes();
    const auto cap = static_cast<double>(l3) / (3.0 * sizeof(V));
    const V alpha(T(1.0009765625));
    switch (k) {
        case Kernel::Axpy: {
            const auto n = static_cast<std::size_t>(std::clamp(budget, 256.0, cap));
            const auto x = make_planar<T, N>(n, 3);
            auto y = make_planar<T, N>(n, 4);
            const double t = best_time([&] { planar::axpy(alpha, x, y); }, opts.min_time);
            return static_cast<double>(n) / t / 1e9;
        }
        case Kernel::Dot: {
            const auto n = static_cast<std::size_t>(std::clamp(budget, 256.0, cap));
            const auto x = make_planar<T, N>(n, 5);
            const auto y = make_planar<T, N>(n, 6);
            volatile double sink = 0.0;
            const double t = best_time(
                [&] { sink = sink + static_cast<double>(planar::dot(x, y).to_float()); },
                opts.min_time);
            return static_cast<double>(n) / t / 1e9;
        }
        case Kernel::Gemv: {
            const auto n = static_cast<std::size_t>(
                std::clamp(std::sqrt(budget), 16.0, std::sqrt(cap)));
            const auto a = make_planar<T, N>(n * n, 7);
            const auto x = make_planar<T, N>(n, 8);
            planar::Vector<T, N> y(n);
            const double t =
                best_time([&] { planar::gemv(a, n, n, x, y); }, opts.min_time);
            return static_cast<double>(n) * static_cast<double>(n) / t / 1e9;
        }
        default: {
            const auto n = static_cast<std::size_t>(
                std::clamp(std::cbrt(budget * 4.0), 12.0, std::sqrt(cap)));
            const auto a = make_planar<T, N>(n * n, 9);
            const auto b = make_planar<T, N>(n * n, 10);
            planar::Vector<T, N> c(n * n);
            const double t = best_time(
                [&] {
                    blas::gemm_packed(planar::matrix_view(a, n, n),
                                      planar::matrix_view(b, n, n),
                                      planar::matrix_view(c, n, n));
                },
                opts.min_time);
            const double dn = static_cast<double>(n);
            return dn * dn * dn / t / 1e9;
        }
    }
}

/// MultiFloats cells: best of the scalar (AoS) and planar (SoA) kernels.
template <typename T, int N>
void fill_cell_mf(Table& t, std::size_t row, std::size_t col, Kernel k,
                  const SuiteOptions& opts) {
    const double aos = measure<MultiFloat<T, N>>(k, opts);
    const double soa = measure_planar<T, N>(k, opts);
    t.set(row, col, std::max(aos, soa));
    if (opts.verbose) {
        std::fprintf(stderr, "  %s %s[%zu]: AoS %.3f / SoA %.3f GOp/s\n",
                     t.title.c_str(), t.rows[row].c_str(), col, aos, soa);
    }
}

}  // namespace

Table run_kernel_table(Kernel k, const SuiteOptions& opts) {
    std::vector<std::string> rows = {"MultiFloats (ours)", "GMP",     "BigFloat (MPFR-like)",
                                     "QD",                 "CAMPARY", "libquadmath"};
    Table t = make_table(std::string(kernel_name(k)) + " performance [GOp/s] on " + cpu_name(),
                         rows, {"53-bit", "103-bit", "156-bit", "208-bit"});

    // MultiFloats (ours): expansion lengths 1-4 on double, best of the
    // scalar and planar-vectorized kernels (paper methodology: max over
    // configurations).
    fill_cell<double>(t, 0, 0, k, opts);
    fill_cell_mf<double, 2>(t, 0, 1, k, opts);
    fill_cell_mf<double, 3>(t, 0, 2, k, opts);
    fill_cell_mf<double, 4>(t, 0, 3, k, opts);

#if defined(MF_HAVE_GMP)
    fill_cell<mf::gmp::GmpFixed<53>>(t, 1, 0, k, opts);
    fill_cell<mf::gmp::GmpFixed<103>>(t, 1, 1, k, opts);
    fill_cell<mf::gmp::GmpFixed<156>>(t, 1, 2, k, opts);
    fill_cell<mf::gmp::GmpFixed<208>>(t, 1, 3, k, opts);
#endif

    // BigFloat: our MPFR-class software FPU (stands in for MPFR/FLINT/Boost;
    // see DESIGN.md §2).
    fill_cell<mf::big::PrecFloat<53>>(t, 2, 0, k, opts);
    fill_cell<mf::big::PrecFloat<103>>(t, 2, 1, k, opts);
    fill_cell<mf::big::PrecFloat<156>>(t, 2, 2, k, opts);
    fill_cell<mf::big::PrecFloat<208>>(t, 2, 3, k, opts);

    // QD supports only double-double and quad-double.
    fill_cell<mf::qd::dd_real>(t, 3, 1, k, opts);
    fill_cell<mf::qd::qd_real>(t, 3, 3, k, opts);

    // CAMPARY-style certified expansions.
    fill_cell<mf::campary::Expansion<1>>(t, 4, 0, k, opts);
    fill_cell<mf::campary::Expansion<2>>(t, 4, 1, k, opts);
    fill_cell<mf::campary::Expansion<3>>(t, 4, 2, k, opts);
    fill_cell<mf::campary::Expansion<4>>(t, 4, 3, k, opts);

    // libquadmath: IEEE binary128 only (103-bit column).
    fill_cell<__float128>(t, 5, 1, k, opts);

    return t;
}

Table run_float_proxy_table(const SuiteOptions& opts) {
    Table t = make_table(
        "MultiFloat<float, N> data-parallel proxy [GOp/s] on " + cpu_name(),
        {"AXPY", "DOT", "GEMV", "GEMM"}, {"1-term", "2-term", "3-term", "4-term"});
    const Kernel ks[4] = {Kernel::Axpy, Kernel::Dot, Kernel::Gemv, Kernel::Gemm};
    for (std::size_t r = 0; r < 4; ++r) {
        fill_cell<float>(t, r, 0, ks[r], opts);
        fill_cell_mf<float, 2>(t, r, 1, ks[r], opts);
        fill_cell_mf<float, 3>(t, r, 2, ks[r], opts);
        fill_cell_mf<float, 4>(t, r, 3, ks[r], opts);
    }
    return t;
}

}  // namespace mf::bench
