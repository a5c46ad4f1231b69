// The engine's worker team across fork(): a child made after its parent ran
// multi-worker calls has none of the parent's workers, and its first region
// must start a team of its own instead of waiting on theirs. The child runs
// a 4-worker blas::gemm and exits 0 when the product matches the parent's
// and its region ran on threads of its own. A child that hangs is killed
// after a deadline and fails the test; ctest's TIMEOUT is the backstop.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "blas/blas.hpp"

namespace {

using namespace mf;

TEST(TeamFork, ChildRunsAFourWorkerGemmOnATeamOfItsOwn) {
    using V = MultiFloat<double, 2>;
    constexpr std::size_t n = 96;  // 4 workers' worth of micro-tiles
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<V> a(n * n), b(n * n), want(n * n), got(n * n);
    for (V& x : a) x = V(u(rng));
    for (V& x : b) x = V(u(rng));
    const auto product = [&](std::vector<V>& c) {
        blas::gemm(blas::view(std::as_const(a), n, n), blas::view(std::as_const(b), n, n),
                   blas::view(c, n, n));
    };
    const unsigned saved = blas::engine::set_default_threads(4);
    product(want);  // starts the parent's team

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        product(got);
        const bool same = std::memcmp(got.data(), want.data(), n * n * sizeof(V)) == 0;
        const std::thread::id self = std::this_thread::get_id();
        std::atomic<int> others{0};
        blas::engine::parallel_blocks_slots(
            4,
            [&](std::size_t, unsigned slot) {
                if (slot != 0 && std::this_thread::get_id() != self) ++others;
            },
            4);
        _exit(same && others.load() == 3 ? 0 : 1);
    }
    int status = 0;
    pid_t done = 0;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    blas::engine::set_default_threads(saved);
    if (done == 0) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        FAIL() << "the child hung: it waited on its parent's workers";
    }
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "wrong product or no workers of its own";
}

}  // namespace
