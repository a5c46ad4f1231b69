#pragma once
// The paper's §5 evaluation suite: AXPY / DOT / GEMV / GEMM across every
// library and precision level (Figures 8-11). Every fig* subcommand of
// paper_bench calls into this translation unit, so all figures share one
// measurement methodology.

#include <string>

#include "harness.hpp"

namespace mf::bench {

enum class Kernel { Axpy, Dot, Gemv, Gemm };

[[nodiscard]] const char* kernel_name(Kernel k);

struct SuiteOptions {
    double min_time = 0.15;    ///< seconds of repetitions per measurement
    double ops_budget = 4e6;   ///< target extended-precision ops per repetition
    bool verbose = false;      ///< print per-measurement progress
};

/// Run one kernel across all libraries x {53, 103, 156, 208}-bit precisions
/// and return the paper-style table (Fig 9/10 layout).
[[nodiscard]] Table run_kernel_table(Kernel k, const SuiteOptions& opts);

/// Fig 11 layout: MultiFloat<float, N> for N = 1..4 across all kernels.
[[nodiscard]] Table run_float_proxy_table(const SuiteOptions& opts);

}  // namespace mf::bench
