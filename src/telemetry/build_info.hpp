#pragma once
// Build/run provenance for stamping exported artifacts: every BENCH_*.json,
// CHECK_*.json and metrics exposition carries enough context to reproduce
// the measurement -- which commit, which compiler, how many threads, and
// which SIMD backend dispatch actually selected at runtime.

#include <string>

#include "../blas/engine/threading.hpp"
#include "../guard/fp_env.hpp"
#include "../simd/backend.hpp"

// Stamped by CMake (git rev-parse --short HEAD at configure time); builds
// from a tarball or an uncommitted tree fall back to "unknown".
#ifndef MF_GIT_SHA
#define MF_GIT_SHA "unknown"
#endif

namespace mf::telemetry {

struct BuildInfo {
    std::string git_sha;
    std::string compiler;
    int threads = 1;      ///< workers a parallel region uses (engine::default_threads)
    std::string backend;  ///< SIMD backend active at query time
    std::string fp_env;   ///< probed FP environment, e.g. "rn" or "rz+ftz"
                          ///< (guard::fp_env_string -- nominal is "rn")
};

[[nodiscard]] inline BuildInfo build_info() {
    BuildInfo b;
    b.git_sha = MF_GIT_SHA;
#if defined(__clang__)
    b.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    b.compiler = "gcc " __VERSION__;
#else
    b.compiler = "unknown";
#endif
    b.threads = static_cast<int>(blas::engine::default_threads());
    b.backend = simd::backend_name(simd::active_backend());
    b.fp_env = guard::fp_env_string();
    return b;
}

}  // namespace mf::telemetry
