#include "paper_reference.hpp"

#include <algorithm>
#include <cstdio>

namespace mf::bench::paper {

const RefTable& reference(Kernel k, Machine m) {
    static constexpr const RefTable* kTables[2][4] = {
        {&kZen5Axpy, &kZen5Dot, &kZen5Gemv, &kZen5Gemm},
        {&kM3Axpy, &kM3Dot, &kM3Gemv, &kM3Gemm}};
    return *kTables[static_cast<int>(m)][static_cast<int>(k)];
}

void print_ref(const RefTable& t) {
    std::printf("\nPaper reference: %.*s %.*s (Fig. %s)\n",
                static_cast<int>(t.machine.size()), t.machine.data(),
                static_cast<int>(t.kernel.size()), t.kernel.data(),
                t.machine == "AMD Zen 5" ? "9" : "10");
    std::printf("%-24s%10s%10s%10s%10s\n", "Library", "53-bit", "103-bit", "156-bit",
                "208-bit");
    for (std::size_t r = 0; r < kRefRows.size(); ++r) {
        std::printf("%-24.*s", static_cast<int>(kRefRows[r].size()), kRefRows[r].data());
        for (int c = 0; c < 4; ++c) {
            if (t.gops[r][static_cast<std::size_t>(c)] < 0) {
                std::printf("%10s", "N/A");
            } else {
                std::printf("%10.2f", t.gops[r][static_cast<std::size_t>(c)]);
            }
        }
        std::printf("\n");
    }
}

double ref_ratio(const RefTable& t, int col) {
    const double ours = t.gops[0][static_cast<std::size_t>(col)];
    double best = 0.0;
    for (std::size_t r = 1; r < kRefRows.size(); ++r) {
        best = std::max(best, t.gops[r][static_cast<std::size_t>(col)]);
    }
    return best > 0 ? ours / best : 0.0;
}

}  // namespace mf::bench::paper
