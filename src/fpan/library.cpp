#include "library.hpp"

#include <stdexcept>

namespace mf::fpan {

namespace {

void require_paper_size(const char* fn, int n) {
    if (n < 2 || n > 4) throw std::invalid_argument(std::string(fn) + ": n must be 2..4");
}

}  // namespace

Network make_add_network(int n) {
    require_paper_size("make_add_network", n);
    const std::string name = "add" + std::to_string(n);
    return n == 2   ? to_network(name, add_table<2>)
           : n == 3 ? to_network(name, add_table<3>)
                    : to_network(name, add_table<4>);
}

std::vector<std::string> mul_network_labels(int n) {
    require_paper_size("mul_network_labels", n);
    switch (n) {
        case 2:
            return {"p00", "e00", "p01", "p10"};
        case 3:
            return {"p00", "e00", "p01", "p10", "e01", "e10", "p02", "p20", "p11"};
        default:
            return {"p00", "e00", "p01", "p10", "e01", "e10", "p02", "p20",
                    "e02", "e20", "p11", "e11", "p03", "p30", "p12", "p21"};
    }
}

Network make_mul_network(int n) {
    require_paper_size("make_mul_network", n);
    const std::string name = "mul" + std::to_string(n);
    return n == 2   ? to_network(name, mul_table<2>)
           : n == 3 ? to_network(name, mul_table<3>)
                    : to_network(name, mul_table<4>);
}

Network make_naive_add_network(int n) {
    Network net;
    net.name = "naive_add" + std::to_string(n) + "_Eq9";
    net.num_wires = 2 * n;
    for (int i = 0; i < n; ++i) {
        net.gates.push_back({GateKind::Add, 2 * i, 2 * i + 1});
        net.outputs.push_back(2 * i);
    }
    return net;
}

std::vector<Network> paper_networks() {
    return {make_add_network(2), make_add_network(3), make_add_network(4),
            make_mul_network(2), make_mul_network(3), make_mul_network(4)};
}

}  // namespace mf::fpan
