// FPAN data structures: structural metrics, serialization, diagrams,
// well-formedness, and the paper-network inventory.

#include <gtest/gtest.h>

#include <stdexcept>

#include "fpan/gates.hpp"
#include "fpan/library.hpp"
#include "fpan/network.hpp"

namespace {

using namespace mf::fpan;

// Shipped sizes and depths; add2 is the depth-5 AccurateDWPlusDW realization.
static_assert(add_table<2>.size() == 6 && add_table<2>.depth() == 5);
static_assert(mul_table<2>.size() == 3 && mul_table<2>.depth() == 3);
static_assert(add_table<3>.size() == 16 && add_table<3>.depth() == 8);
static_assert(add_table<4>.size() == 30);
static_assert(mul_table<3>.size() == 10 && mul_table<3>.depth() == 6);
static_assert(mul_table<4>.size() == 29);

TEST(Network, SizeDepthOfFigure2) {
    const Network n = make_add_network(2);
    EXPECT_EQ(n.size(), 6);       // paper Figure 2: size 6
    EXPECT_EQ(n.num_discards(), 2);
    EXPECT_TRUE(n.well_formed());
    EXPECT_EQ(n.outputs.size(), 2u);
}

TEST(Network, SizeDepthOfFigure5) {
    const Network n = make_mul_network(2);
    EXPECT_EQ(n.size(), 3);   // paper Figure 5: size 3
    EXPECT_EQ(n.depth(), 3);  // depth 3: provably optimal
    EXPECT_TRUE(n.well_formed());
}

TEST(Network, SweepNetworksMatchPaperScale) {
    // Within a handful of gates of the paper's SMT-minimized networks (see
    // DESIGN.md §2).
    EXPECT_EQ(make_add_network(3).size(), 16);  // paper: 14
    EXPECT_EQ(make_add_network(4).size(), 30);  // paper: 26
    for (const Network& n : paper_networks()) {
        EXPECT_TRUE(n.well_formed()) << n.name;
    }
}

TEST(Network, MakeRejectsUnsupportedSizes) {
    for (int n : {0, 1, 5}) {
        EXPECT_THROW((void)make_add_network(n), std::invalid_argument) << n;
        EXPECT_THROW((void)make_mul_network(n), std::invalid_argument) << n;
    }
}

TEST(Network, DepthIsLongestChain) {
    Network n;
    n.num_wires = 3;
    n.gates = {{GateKind::TwoSum, 0, 1}, {GateKind::TwoSum, 1, 2}, {GateKind::TwoSum, 0, 1}};
    n.outputs = {0};
    EXPECT_EQ(n.depth(), 3);
    Network par;
    par.num_wires = 4;
    par.gates = {{GateKind::TwoSum, 0, 1}, {GateKind::TwoSum, 2, 3}};
    par.outputs = {0};
    EXPECT_EQ(par.depth(), 1);  // independent gates run in parallel
}

TEST(Network, SerializeParseRoundTrip) {
    for (const Network& n : paper_networks()) {
        const Network back = Network::parse(n.serialize());
        EXPECT_EQ(back, n) << n.serialize();
    }
}

TEST(Network, SerializeFormat) {
    const Network n = make_mul_network(2);
    EXPECT_EQ(n.serialize(), "mul2 wires=4 out=0,2 : A(2,3) A(2,1) F(0,2)");
}

TEST(Network, WellFormedRejects) {
    Network n;
    n.num_wires = 2;
    n.outputs = {0};
    n.gates = {{GateKind::TwoSum, 0, 0}};  // self-loop
    EXPECT_FALSE(n.well_formed());
    n.gates = {{GateKind::TwoSum, 0, 5}};  // out of range
    EXPECT_FALSE(n.well_formed());
    n.gates = {{GateKind::Add, 0, 1}, {GateKind::TwoSum, 0, 1}};  // dead wire use
    EXPECT_FALSE(n.well_formed());
    n.gates = {{GateKind::Add, 0, 1}};
    n.outputs = {1};  // output on dead wire
    EXPECT_FALSE(n.well_formed());
    n.outputs = {0, 0};  // duplicate outputs
    EXPECT_FALSE(n.well_formed());
    n.outputs = {};  // no outputs
    EXPECT_FALSE(n.well_formed());
    n.outputs = {0};
    EXPECT_TRUE(n.well_formed());
}

TEST(Network, DiagramMentionsEveryGateAndLegend) {
    const Network n = make_add_network(2);
    const std::string d = n.diagram();
    EXPECT_NE(d.find("add2"), std::string::npos);
    EXPECT_NE(d.find("size 6"), std::string::npos);
    EXPECT_NE(d.find("legend"), std::string::npos);
    EXPECT_NE(d.find("> out"), std::string::npos);
}

TEST(Network, NaiveNetworkShape) {
    const Network n = make_naive_add_network(3);
    EXPECT_EQ(n.size(), 3);
    EXPECT_EQ(n.num_discards(), 3);
    EXPECT_TRUE(n.well_formed());
}

TEST(Network, MulLabelsMatchWireCounts) {
    for (int n = 2; n <= 4; ++n) {
        const auto labels = mul_network_labels(n);
        EXPECT_EQ(static_cast<int>(labels.size()), n * n);
        EXPECT_EQ(make_mul_network(n).num_wires, n * n);
    }
    EXPECT_THROW(mul_network_labels(5), std::invalid_argument);
}

}  // namespace
