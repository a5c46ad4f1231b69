// The engine's nesting guard seen from code built with OpenMP: inside the
// caller's own `#pragma omp parallel` region engine::in_parallel() takes its
// _OPENMP branch (omp_in_parallel), every plan is serial, and a GEMM issued
// by each OpenMP thread runs serially on it with the same bits. Built only
// where OpenMP is found, and not under ThreadSanitizer, which would report
// false races in the uninstrumented libgomp.

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "blas/blas.hpp"

namespace {

using namespace mf;

TEST(OmpNesting, CallsFromAnOpenMpRegionRunSerially) {
    using V = MultiFloat<double, 2>;
    constexpr std::size_t n = 64;
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<V> a(n * n), b(n * n), want(n * n);
    for (V& x : a) x = V(u(rng));
    for (V& x : b) x = V(u(rng));
    const auto product = [&](std::vector<V>& c) {
        blas::gemm(blas::view(std::as_const(a), n, n), blas::view(std::as_const(b), n, n),
                   blas::view(c, n, n));
    };
    product(want);
    EXPECT_FALSE(blas::engine::in_parallel());

    std::vector<std::vector<V>> got(2, std::vector<V>(n * n));
    std::atomic<int> threads{0}, nested{0}, serial_plans{0};
#pragma omp parallel num_threads(2)
    {
        const auto id = static_cast<std::size_t>(omp_get_thread_num());
        ++threads;
        if (blas::engine::in_parallel()) ++nested;
        if (blas::engine::planned_workers(8, 4) == 1) ++serial_plans;
        if (id < got.size()) product(got[id]);
    }
    EXPECT_EQ(nested.load(), threads.load());
    EXPECT_EQ(serial_plans.load(), threads.load());
    for (int id = 0; id < threads.load() && id < 2; ++id) {
        EXPECT_EQ(std::memcmp(got[id].data(), want.data(), n * n * sizeof(V)), 0)
            << "OpenMP thread " << id;
    }
}

}  // namespace
