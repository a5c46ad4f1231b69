#pragma once
// Floating-point accumulation networks (FPANs) as first-class data.
//
// An FPAN (paper §3) is a branch-free algorithm given by a fixed sequence of
// gates (GateKind, gates.hpp) applied to a fixed set of wires.
//
// Keeping networks as data lets us (1) verify them with the empirical
// checker over SoftFloat/BigFloat, (2) search for new ones by simulated
// annealing, (3) print the paper's Figure 2-7 style diagrams, and (4) verify
// exactly what ships: the paper networks are conversions of the constexpr
// gate tables (gates.hpp) that mf::add / mf::mul run.

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "gates.hpp"

namespace mf::fpan {

struct Network {
    std::string name;
    int num_wires = 0;
    std::vector<Gate> gates;
    std::vector<int> outputs;  ///< wire indices, most significant first

    /// Total number of gates (the paper's "size").
    [[nodiscard]] int size() const noexcept { return static_cast<int>(gates.size()); }

    /// Longest gate chain from any input to any output (the paper's "depth").
    [[nodiscard]] int depth() const noexcept;

    /// Count of error-discarding Add gates.
    [[nodiscard]] int num_discards() const noexcept;

    /// Structural sanity: wire indices in range, outputs distinct and live.
    [[nodiscard]] bool well_formed() const noexcept;

    /// Compact single-line text form:
    ///   "name wires=W out=o1,o2 : T(a,b) F(a,b) A(a,b) ..."
    [[nodiscard]] std::string serialize() const;
    static Network parse(const std::string& text);

    /// Multi-line ASCII art in the style of the paper's figures.
    [[nodiscard]] std::string diagram(std::span<const std::string> wire_labels = {}) const;

    friend bool operator==(const Network&, const Network&) = default;
};

std::ostream& operator<<(std::ostream& os, const Network& n);

}  // namespace mf::fpan
