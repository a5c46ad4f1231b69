#pragma once
// The paper's six FPANs (Figures 2-7) as checkable Network data. Each is a
// conversion of the constexpr gate table (gates.hpp) that mf::add / mf::mul
// run, so what the checker verifies is what ships.

#include "network.hpp"

namespace mf::fpan {

/// The runtime Network of a gate table (gates.hpp), gate for gate.
template <std::size_t W, std::size_t G, std::size_t O>
[[nodiscard]] Network to_network(std::string name, const Table<W, G, O>& t) {
    return {std::move(name), static_cast<int>(W), {t.gates.begin(), t.gates.end()},
            {t.outputs.begin(), t.outputs.end()}};
}

/// Addition network for n-term expansions (n = 2, 3, 4; otherwise throws
/// std::invalid_argument). Wires 0..2n-1 carry the interleaved inputs
/// [x0, y0, x1, y1, ...]. n = 2 is the 6-gate Figure-2 network.
[[nodiscard]] Network make_add_network(int n);

/// Accumulation network for commutative n-term multiplication (n = 2, 3, 4;
/// otherwise throws std::invalid_argument). The caller performs the TwoProd
/// expansion step; wires carry the product terms in the layout named by
/// mul_network_labels(n).
[[nodiscard]] Network make_mul_network(int n);

/// Input wire labels matching make_mul_network(n)'s layout, for diagrams and
/// for building the wire vector from the TwoProd expansion step.
[[nodiscard]] std::vector<std::string> mul_network_labels(int n);

/// The expansion step feeding make_mul_network: each wire gets the product
/// or the TwoProd error its label names (mf::two_prod, or for SoftFloat
/// soft::two_prod), from the limbs x[i], y[j].
template <typename Limbs, typename Wires>
void expand_mul_wires(const std::vector<std::string>& labels, const Limbs& x, const Limbs& y,
                      Wires& wires) {
    for (std::size_t w = 0; w < labels.size(); ++w) {
        const auto i = static_cast<std::size_t>(labels[w][1] - '0');
        const auto j = static_cast<std::size_t>(labels[w][2] - '0');
        const auto pe = two_prod(x[i], y[j]);
        wires[w] = labels[w][0] == 'p' ? pe.prod : pe.err;
    }
}

/// The naive term-by-term sum of Eq. 9 -- intentionally WRONG (degrades to
/// machine precision); used to demonstrate that the checker rejects it.
[[nodiscard]] Network make_naive_add_network(int n);

/// All six paper networks, for tools and tests.
[[nodiscard]] std::vector<Network> paper_networks();

}  // namespace mf::fpan
