#pragma once
// Generic FPAN interpreter: runs a runtime Network over any FPAN value type
// (double, float, soft::SoftFloat, ...). Each gate goes through the same
// fpan::apply -- hence the same mf::two_sum / mf::fast_two_sum bodies -- that
// the compile-time executor inlines into the shipped kernels, so the
// exhaustive checker runs the very gate code the kernels do.

#include <cassert>
#include <span>

#include "network.hpp"

namespace mf::fpan {

/// Execute `net` in place over `wires` (size must equal net.num_wires).
/// After the call, the wires listed in net.outputs hold the result.
template <FloatingPoint V>
void execute(const Network& net, std::span<V> wires) {
    assert(static_cast<int>(wires.size()) == net.num_wires);
    for (const Gate& g : net.gates) {
        V& x = wires[static_cast<std::size_t>(g.a)];
        V& y = wires[static_cast<std::size_t>(g.b)];
        if (g.kind == GateKind::TwoSum) {
            apply<GateKind::TwoSum>(x, y);
        } else if (g.kind == GateKind::FastTwoSum) {
            apply<GateKind::FastTwoSum>(x, y);
        } else {
            apply<GateKind::Add>(x, y);
            y = y - y;  // dead wire; value-typed zero
        }
    }
}

}  // namespace mf::fpan
