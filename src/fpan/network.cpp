#include "network.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace mf::fpan {

int Network::depth() const noexcept {
    std::vector<int> d(static_cast<std::size_t>(num_wires), 0);
    return chain_depth(gates, d);
}

int Network::num_discards() const noexcept {
    int n = 0;
    for (const Gate& g : gates) n += g.kind == GateKind::Add ? 1 : 0;
    return n;
}

bool Network::well_formed() const noexcept {
    if (num_wires <= 0) return false;
    std::vector<bool> dead(static_cast<std::size_t>(num_wires), false);
    for (const Gate& g : gates) {
        if (g.a < 0 || g.a >= num_wires || g.b < 0 || g.b >= num_wires) return false;
        if (g.a == g.b) return false;
        if (dead[g.a] || dead[g.b]) return false;
        if (g.kind == GateKind::Add) dead[g.b] = true;
    }
    if (outputs.empty()) return false;
    std::vector<int> sorted = outputs;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) return false;
    for (int o : outputs) {
        if (o < 0 || o >= num_wires || dead[o]) return false;
    }
    return true;
}

std::string Network::serialize() const {
    std::ostringstream os;
    os << name << " wires=" << num_wires << " out=";
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        os << (i ? "," : "") << outputs[i];
    }
    os << " :";
    for (const Gate& g : gates) {
        const char c = g.kind == GateKind::Add      ? 'A'
                       : g.kind == GateKind::TwoSum ? 'T'
                                                    : 'F';
        os << ' ' << c << '(' << g.a << ',' << g.b << ')';
    }
    return os.str();
}

Network Network::parse(const std::string& text) {
    Network n;
    std::istringstream is(text);
    std::string tok;
    if (!(is >> n.name)) return {};
    while (is >> tok) {
        if (tok.rfind("wires=", 0) == 0) {
            n.num_wires = std::stoi(tok.substr(6));
        } else if (tok.rfind("out=", 0) == 0) {
            std::istringstream os(tok.substr(4));
            std::string part;
            while (std::getline(os, part, ',')) n.outputs.push_back(std::stoi(part));
        } else if (tok == ":") {
            // gate list follows
        } else if (tok.size() >= 6 && (tok[0] == 'A' || tok[0] == 'T' || tok[0] == 'F')) {
            const GateKind k = tok[0] == 'A'   ? GateKind::Add
                               : tok[0] == 'T' ? GateKind::TwoSum
                                               : GateKind::FastTwoSum;
            const auto comma = tok.find(',');
            const int a = std::stoi(tok.substr(2, comma - 2));
            const int b = std::stoi(tok.substr(comma + 1));
            n.gates.push_back({k, a, b});
        }
    }
    return n;
}

std::string Network::diagram(std::span<const std::string> wire_labels) const {
    // One text column block per gate, one row per wire, in the style of the
    // paper's figures: o--o for TwoSum, o--v for FastTwoSum, o--x for Add
    // (x marks the discarded error).
    const auto w = static_cast<std::size_t>(num_wires);
    std::vector<std::string> rows(w);
    std::size_t label_width = 0;
    for (std::size_t i = 0; i < w; ++i) {
        std::string lbl = i < wire_labels.size() ? wire_labels[i] : 'w' + std::to_string(i);
        label_width = std::max(label_width, lbl.size());
        rows[i] = std::move(lbl);
    }
    for (auto& r : rows) {
        r.resize(label_width, ' ');
        r += " -";
    }
    for (const Gate& g : gates) {
        const std::size_t lo = static_cast<std::size_t>(std::min(g.a, g.b));
        const std::size_t hi = static_cast<std::size_t>(std::max(g.a, g.b));
        const char a_char = 'o';
        const char b_char = g.kind == GateKind::Add          ? 'x'
                            : g.kind == GateKind::FastTwoSum ? 'v'
                                                             : 'o';
        const char top = g.a < g.b ? a_char : b_char;
        const char bot = g.a < g.b ? b_char : a_char;
        for (std::size_t i = 0; i < w; ++i) {
            if (i == lo) {
                rows[i] += top;
            } else if (i == hi) {
                rows[i] += bot;
            } else if (i > lo && i < hi) {
                rows[i] += '|';
            } else {
                rows[i] += '-';
            }
            rows[i] += "--";
        }
    }
    std::ostringstream os;
    os << name << "  (size " << size() << ", depth " << depth() << ")\n";
    for (std::size_t i = 0; i < w; ++i) {
        os << rows[i];
        const bool is_out = std::find(outputs.begin(), outputs.end(),
                                      static_cast<int>(i)) != outputs.end();
        os << (is_out ? "> out" : "");
        os << '\n';
    }
    os << "legend: o-o TwoSum, o-v FastTwoSum (v = error side), o-x Add (x = discarded)\n";
    return os.str();
}

std::ostream& operator<<(std::ostream& os, const Network& n) {
    return os << n.serialize();
}

}  // namespace mf::fpan
