#pragma once
// Umbrella header for mf::check, the oracle-driven differential-fuzzing and
// conformance subsystem:
//
//   #include <check/check.hpp>
//
//   auto stats = mf::check::run_conformance<double, 4>(
//       mf::check::Op::mul, /*seed=*/1, /*iters=*/100000);
//   assert(stats.clean());
//
// Layers (each usable on its own):
//   generators.hpp   structure-aware adversarial input generation
//   oracle.hpp       BigFloat oracle glue + the enforced error-bound table
//   conformance.hpp  per-op bound checking, slack histograms, counterexamples
//   differ.hpp       scalar-vs-SIMD and reference-vs-packed-GEMM bit differs
//   reference.hpp    the scalar GEMM reference every GEMM check compares to
//   shrink.hpp       counterexample minimization
//   corpus.hpp       replayable seed-corpus IO (tests/corpus/)
//   report.hpp       CHECK_*.json error-bound telemetry
//   robustness.hpp   mf::guard fault-injection matrix (env/alloc/thread)
//
// Driven by tools/mf_fuzz (CLI) and tests/conformance_test.cpp (ctest smoke
// tier, label `fuzz-smoke`; scale it up with MF_FUZZ_ITERS).

#include "conformance.hpp"
#include "corpus.hpp"
#include "differ.hpp"
#include "generators.hpp"
#include "oracle.hpp"
#include "reference.hpp"
#include "report.hpp"
#include "robustness.hpp"
#include "shrink.hpp"
