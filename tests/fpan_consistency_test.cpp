// mf::add / mf::mul and the checked Networks come from the same gate tables
// (fpan/gates.hpp). These cases guard what is still written twice: the wire
// layout (the kernels' operand loading and TwoProd expansion step vs the
// checker's interleaving and mul_network_labels), and the agreement of the
// kernels' fpan::run with the checker's runtime fpan::execute.

#include <gtest/gtest.h>

#include <random>
#include <span>

#include "fpan/executor.hpp"
#include "fpan/library.hpp"
#include "support.hpp"

namespace {

using namespace mf;
using namespace mf::fpan;
using mf::test::adversarial;

template <int N>
void check_add_consistency(std::uint64_t seed, int iters) {
    const Network net = make_add_network(N);
    std::mt19937_64 rng(seed);
    for (int t = 0; t < iters; ++t) {
        const auto x = adversarial<double, N>(rng);
        const auto y = (t % 4 == 1) ? mf::test::cancellation_partner(x, rng)
                                    : adversarial<double, N>(rng);
        double w[2 * N];
        for (int i = 0; i < N; ++i) {
            w[2 * i] = x.limb[i];
            w[2 * i + 1] = y.limb[i];
        }
        execute(net, std::span<double>(w, 2 * N));
        const auto z = add(x, y);
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(w[net.outputs[static_cast<std::size_t>(k)]], z.limb[k])
                << "N=" << N << " case " << t << " limb " << k;
        }
    }
}

template <int N>
void check_mul_consistency(std::uint64_t seed, int iters) {
    const Network net = make_mul_network(N);
    const auto labels = mul_network_labels(N);
    std::mt19937_64 rng(seed);
    for (int t = 0; t < iters; ++t) {
        const auto x = adversarial<double, N>(rng, -12, 12);
        const auto y = adversarial<double, N>(rng, -12, 12);
        std::vector<double> w(labels.size());
        expand_mul_wires(labels, x.limb, y.limb, w);
        execute(net, std::span<double>(w));
        const auto z = mul(x, y);
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(w[static_cast<std::size_t>(net.outputs[static_cast<std::size_t>(k)])],
                      z.limb[k])
                << "N=" << N << " case " << t << " limb " << k;
        }
    }
}

TEST(FpanConsistency, Add2) { check_add_consistency<2>(11, 20000); }
TEST(FpanConsistency, Add3) { check_add_consistency<3>(22, 20000); }
TEST(FpanConsistency, Add4) { check_add_consistency<4>(33, 20000); }
TEST(FpanConsistency, Mul2) { check_mul_consistency<2>(44, 20000); }
TEST(FpanConsistency, Mul3) { check_mul_consistency<3>(55, 20000); }
TEST(FpanConsistency, Mul4) { check_mul_consistency<4>(66, 20000); }

TEST(FpanExecutor, RunsOverFloat) {
    // The executor is value-type generic: float wires behave like the
    // float-based kernels.
    const Network net = make_add_network(2);
    std::mt19937_64 rng(77);
    for (int t = 0; t < 5000; ++t) {
        const auto x = adversarial<float, 2>(rng);
        const auto y = adversarial<float, 2>(rng);
        float w[4] = {x.limb[0], y.limb[0], x.limb[1], y.limb[1]};
        execute(net, std::span<float>(w, 4));
        const auto z = add(x, y);
        EXPECT_EQ(w[net.outputs[0]], z.limb[0]);
        EXPECT_EQ(w[net.outputs[1]], z.limb[1]);
    }
}

TEST(FpanExecutor, AddGateDiscardsAndKillsWire) {
    Network n;
    n.num_wires = 2;
    n.gates = {{GateKind::Add, 0, 1}};
    n.outputs = {0};
    double w[2] = {1.0, 0x1p-80};
    execute(n, std::span<double>(w, 2));
    EXPECT_EQ(w[0], 1.0);  // rounding discarded the tiny addend
    EXPECT_EQ(w[1], 0.0);  // dead wire zeroed
}

}  // namespace
