// The empirical verification campaigns for all six paper networks -- the
// reproduction of the paper's §3 correctness story -- plus regression cases
// for defects the exhaustive checker has actually caught.

#include <gtest/gtest.h>

#include "fpan/checker.hpp"
#include "fpan/library.hpp"

namespace {

using namespace mf::fpan;

class NetworkCampaign : public ::testing::TestWithParam<int> {};

TEST_P(NetworkCampaign, AddRandomizedPasses) {
    const int n = GetParam();
    const CheckResult r =
        check_add_random(make_add_network(n), n, 30000, 101, paper_add_bound_bits(n, 53));
    EXPECT_TRUE(r.pass) << r.note << " worst=2^" << r.worst_err_log2
                        << " ovl=" << r.worst_overlap_bits;
    EXPECT_EQ(r.cases, 30000);
    EXPECT_EQ(r.worst_overlap_bits, 0);
}

TEST_P(NetworkCampaign, MulRandomizedPasses) {
    const int n = GetParam();
    const CheckResult r =
        check_mul_random(make_mul_network(n), n, 30000, 202, paper_mul_bound_bits(n, 53));
    EXPECT_TRUE(r.pass) << r.note << " worst=2^" << r.worst_err_log2;
    EXPECT_EQ(r.worst_overlap_bits, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSizes, NetworkCampaign, ::testing::Values(2, 3, 4));

TEST(NetworkExhaustive, Add2AtP3) {
    // Every pair of nonoverlapping 2-term p=3 expansions in the window:
    // the full combinatorial space of rounding patterns at this precision.
    const CheckResult r = check_add_exhaustive(make_add_network(2), 2, 3, 3, 5);
    EXPECT_TRUE(r.pass) << r.note;
    EXPECT_GT(r.cases, 500000);
    EXPECT_EQ(r.worst_overlap_bits, 0);
}

TEST(NetworkExhaustive, Add2AtP4) {
    const CheckResult r = check_add_exhaustive(make_add_network(2), 2, 4, 2, 4);
    EXPECT_TRUE(r.pass) << r.note;
    EXPECT_GT(r.cases, 100000);
}

TEST(NetworkExhaustive, Mul2AtP3) {
    const CheckResult r = check_mul_exhaustive(make_mul_network(2), 2, 3, 3, 5);
    EXPECT_TRUE(r.pass) << r.note;
    EXPECT_GT(r.cases, 100000);
}

TEST(NetworkExhaustive, Add3ReducedWindow) {
    const CheckResult r = check_add_exhaustive(make_add_network(3), 3, 3, 1, 1);
    EXPECT_TRUE(r.pass) << r.note;
    EXPECT_GT(r.cases, 1000000);
}

TEST(NetworkExhaustive, Add3WideWindow) {
    // The window the shipped 16-gate add3 was trimmed against; the 14-gate
    // trim of the reduced window fails it (PaperSizeAdd3FailsWideWindow).
    const CheckResult r = check_add_exhaustive(make_add_network(3), 3, 3, 2, 2);
    EXPECT_TRUE(r.pass) << r.note;
    EXPECT_EQ(r.cases, 37664145);
    EXPECT_EQ(r.worst_overlap_bits, 0);
}

TEST(NetworkExhaustive, Mul3AtP3) {
    const CheckResult r = check_mul_exhaustive(make_mul_network(3), 3, 3, 0, 2);
    EXPECT_TRUE(r.pass) << r.note;
    EXPECT_GT(r.cases, 7000000);
    EXPECT_EQ(r.worst_overlap_bits, 0);
}

TEST(NetworkRegression, SweepWithoutRenormOverlapsAtSmallP) {
    // Found by the exhaustive checker during development: dropping the final
    // FastTwoSum renormalization pass leaves a 1-bit nonoverlap violation for
    // n = 3 that 400k randomized double-precision trials did NOT catch. This
    // is the paper's core argument for exhaustive/formal verification.
    const Network net = to_network("add3_no_renorm", sweep_add_table<3, 0>());
    ASSERT_TRUE(net.well_formed());
    const CheckResult r = check_add_exhaustive(net, 3, 3, 2, 2);
    EXPECT_FALSE(r.pass);
    EXPECT_GE(r.worst_overlap_bits, 1);
}

TEST(NetworkRegression, PaperSizeAdd3FailsWideWindow) {
    // greedy_trim of sweep_add_table<3>() with only the reduced (1,1) window
    // in the loop: Figure 3's size 14 and depth 8. It passes that window and
    // the randomized campaigns, and the (2,2) window refutes it, so the
    // window the shipped add3 passes tells the two tables apart.
    const Network net = Network::parse(
        "add3_paper_size wires=6 out=0,2,1 : T(0,1) T(2,3) T(4,5) T(4,3) F(1,4) T(2,1) "
        "F(0,2) A(3,5) A(4,3) F(1,4) F(2,1) A(1,4) F(0,2) F(2,1)");
    ASSERT_TRUE(net.well_formed());
    EXPECT_EQ(net.size(), 14);
    EXPECT_EQ(net.depth(), 8);
    EXPECT_TRUE(check_add_exhaustive(net, 3, 3, 1, 1).pass);
    EXPECT_TRUE(check_add_random(net, 3, 30000, 101, paper_add_bound_bits(3, 53)).pass);
    const CheckResult r = check_add_exhaustive(net, 3, 3, 2, 2);
    EXPECT_FALSE(r.pass);
    // The lowest failing case, whatever the number of checker threads.
    EXPECT_EQ(r.note, "first failure: x/y expansion case #3613831");
}

TEST(NetworkRegression, NaiveTermwiseSumFails) {
    // Eq. 9's strawman degrades to machine precision; the checker must
    // reject it quickly.
    for (int n : {2, 3, 4}) {
        const CheckResult r = check_add_random(make_naive_add_network(n), n, 5000, 7,
                                               paper_add_bound_bits(n, 53));
        EXPECT_FALSE(r.pass) << "n=" << n;
    }
}

TEST(NetworkRegression, TruncatedGoodNetworkFails) {
    // Removing a gate from the verified 2-term adder must break it --
    // consistent with the paper's claim that size 6 is optimal. Dropping the
    // gate that folds v1 into the low output loses ~half an ulp of the
    // leading limb.
    Network net = make_add_network(2);
    net.gates.erase(net.gates.begin() + 4);  // A(3,2): w = e1 + v1
    const CheckResult r = check_add_random(net, 2, 20000, 9, paper_add_bound_bits(2, 53));
    EXPECT_FALSE(r.pass);
}

TEST(CheckerApi, BoundHelpers) {
    EXPECT_EQ(paper_add_bound_bits(2, 53), 105);
    EXPECT_EQ(paper_add_bound_bits(3, 53), 156);
    EXPECT_EQ(paper_add_bound_bits(4, 53), 208);
    EXPECT_EQ(paper_mul_bound_bits(2, 53), 103);
    EXPECT_EQ(paper_mul_bound_bits(3, 53), 156);
    EXPECT_EQ(paper_mul_bound_bits(4, 53), 208);
}

}  // namespace
