// Per-operation microbenchmarks (google-benchmark): latency of the dependent
// chain and throughput of independent streams for every arithmetic kernel
// and number type. Supports the §5 discussion ("each extended-precision
// operation consists of several dozen to several hundred native FLOPs").

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "baselines/campary/campary.hpp"
#include "baselines/qd/dd_real.hpp"
#include "baselines/qd/qd_real.hpp"
#include "bigfloat/precfloat.hpp"
#include "mf/multifloats.hpp"

using mf::exp;
using mf::sin;

namespace {

template <typename V>
std::vector<V> operands(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<V> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        v.emplace_back(1.0 + static_cast<double>(rng() >> 12) * 0x1p-52);
    }
    return v;
}

// --- dependent-chain latency -------------------------------------------------

template <typename V>
void BM_add_latency(benchmark::State& state) {
    const auto xs = operands<V>(256, 1);
    V acc(1.0);
    std::size_t i = 0;
    for (auto _ : state) {
        acc = acc + xs[i++ & 255];
        benchmark::DoNotOptimize(acc);
    }
}

template <typename V>
void BM_mul_latency(benchmark::State& state) {
    const auto xs = operands<V>(256, 2);
    V acc(1.0);
    std::size_t i = 0;
    for (auto _ : state) {
        acc = acc * xs[i++ & 255];
        benchmark::DoNotOptimize(acc);
        // Keep the chain in [1, 2) so no overflow over long runs.
        if ((i & 63) == 0) acc = V(1.5);
    }
}

// --- independent-stream throughput -------------------------------------------

template <typename V>
void BM_add_throughput(benchmark::State& state) {
    const auto xs = operands<V>(1024, 3);
    const auto ys = operands<V>(1024, 4);
    std::vector<V> zs(1024, V(0.0));
    for (auto _ : state) {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = xs[i] + ys[i];
        benchmark::DoNotOptimize(zs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}

template <typename V>
void BM_mul_throughput(benchmark::State& state) {
    const auto xs = operands<V>(1024, 5);
    const auto ys = operands<V>(1024, 6);
    std::vector<V> zs(1024, V(0.0));
    for (auto _ : state) {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = xs[i] * ys[i];
        benchmark::DoNotOptimize(zs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}

template <typename V>
void BM_div_throughput(benchmark::State& state) {
    const auto xs = operands<V>(256, 7);
    const auto ys = operands<V>(256, 8);
    std::vector<V> zs(256, V(0.0));
    for (auto _ : state) {
        for (std::size_t i = 0; i < 256; ++i) zs[i] = xs[i] / ys[i];
        benchmark::DoNotOptimize(zs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}

template <typename V>
void BM_sqrt_throughput(benchmark::State& state) {
    using std::sqrt;  // ADL picks the type's own sqrt for class types
    const auto xs = operands<V>(256, 9);
    std::vector<V> zs(256, V(0.0));
    for (auto _ : state) {
        for (std::size_t i = 0; i < 256; ++i) zs[i] = sqrt(xs[i]);
        benchmark::DoNotOptimize(zs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}

#define MF_BENCH_TYPE(V, tag)                                       \
    BENCHMARK(BM_add_latency<V>)->Name("add_latency/" tag);         \
    BENCHMARK(BM_mul_latency<V>)->Name("mul_latency/" tag);         \
    BENCHMARK(BM_add_throughput<V>)->Name("add_throughput/" tag);   \
    BENCHMARK(BM_mul_throughput<V>)->Name("mul_throughput/" tag);   \
    BENCHMARK(BM_div_throughput<V>)->Name("div_throughput/" tag);   \
    BENCHMARK(BM_sqrt_throughput<V>)->Name("sqrt_throughput/" tag)

// --- transcendental throughput (library extensions) --------------------------

template <typename V>
void BM_exp_throughput(benchmark::State& state) {
    const auto xs = operands<V>(64, 10);
    std::vector<V> zs(64, V(0.0));
    for (auto _ : state) {
        for (std::size_t i = 0; i < 64; ++i) zs[i] = exp(xs[i]);
        benchmark::DoNotOptimize(zs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}

template <typename V>
void BM_sin_throughput(benchmark::State& state) {
    const auto xs = operands<V>(64, 11);
    std::vector<V> zs(64, V(0.0));
    for (auto _ : state) {
        for (std::size_t i = 0; i < 64; ++i) zs[i] = sin(xs[i]);
        benchmark::DoNotOptimize(zs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}

#define MF_BENCH_ELEM(V, tag)                                      \
    BENCHMARK(BM_exp_throughput<V>)->Name("exp_throughput/" tag);  \
    BENCHMARK(BM_sin_throughput<V>)->Name("sin_throughput/" tag)

// --- complex latency and throughput (the layer under perfbench's
// fft_roundtrip, whose butterflies are a dependent mul -> add chain) ---------
// operands<Complex>() leaves the imaginary parts zero; the networks are
// branch-free, so the time does not depend on the values.

#define MF_BENCH_COMPLEX(C, tag)                                          \
    BENCHMARK(BM_add_latency<C>)->Name("complex_add_latency/" tag);       \
    BENCHMARK(BM_mul_latency<C>)->Name("complex_mul_latency/" tag);       \
    BENCHMARK(BM_mul_throughput<C>)->Name("complex_mul_throughput/" tag); \
    BENCHMARK(BM_add_throughput<C>)->Name("complex_add_throughput/" tag)

MF_BENCH_COMPLEX(mf::Complex64x2, "Complex<double,2>");
MF_BENCH_COMPLEX(mf::Complex64x3, "Complex<double,3>");

MF_BENCH_ELEM(mf::Float64x2, "MultiFloat<double,2>");
MF_BENCH_ELEM(mf::Float64x3, "MultiFloat<double,3>");
MF_BENCH_ELEM(mf::Float64x4, "MultiFloat<double,4>");

MF_BENCH_TYPE(double, "double");
MF_BENCH_TYPE(mf::Float64x2, "MultiFloat<double,2>");
MF_BENCH_TYPE(mf::Float64x3, "MultiFloat<double,3>");
MF_BENCH_TYPE(mf::Float64x4, "MultiFloat<double,4>");
MF_BENCH_TYPE(mf::Float32x4, "MultiFloat<float,4>");
MF_BENCH_TYPE(mf::qd::dd_real, "qd::dd_real");
MF_BENCH_TYPE(mf::qd::qd_real, "qd::qd_real");
MF_BENCH_TYPE(mf::campary::Expansion<2>, "campary::Expansion<2>");
MF_BENCH_TYPE(mf::campary::Expansion<4>, "campary::Expansion<4>");
MF_BENCH_TYPE(mf::big::PrecFloat<103>, "BigFloat<103>");
MF_BENCH_TYPE(mf::big::PrecFloat<208>, "BigFloat<208>");

}  // namespace

BENCHMARK_MAIN();
