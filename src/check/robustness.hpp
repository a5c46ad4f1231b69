#pragma once
// Robustness fault matrix: drives mf::guard's fault injection against the
// packed GEMM engine and verifies the DESIGN.md §12 contract case by case --
// every injected fault is either DETECTED (a sentinel violation counter
// fires) or ABSORBED (a degradation counter fires and the result stays
// bit-identical to the clean run). Zero crashes either way.
//
// Cases (all over one shared corpus and one clean-environment
// check::reference_gemm product):
//
//   env-entry-{rz,ftz,daz}  hostile environment installed before the call;
//                           policy=enforce must detect it (violation counter,
//                           when="entry") AND neutralize it (bit-identical)
//   env-mid-rz              environment flipped at a mid-GEMM checkpoint;
//                           the sentinel's exit probe must detect it
//                           (when="exit") -- detection-only: work done after
//                           the flip legitimately rounds differently
//   alloc[0]                the pack-scratch reservation throws bad_alloc;
//                           must degrade to the sequential unpacked path
//                           (mf_guard_degraded_total{path="alloc"}),
//                           bit-identical
//   thread[k]               the k-th worker spawn throws system_error; the
//                           live workers must absorb the missing worker's
//                           items (mf_guard_degraded_total{path="thread"}),
//                           bit-identical
//
// Used by tests/guard_degrade_test.cpp and `mf_fuzz --inject ...`.

#include <cstdio>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "../blas/engine/gemm_packed.hpp"
#include "../guard/guard.hpp"
#include "../telemetry/registry.hpp"
#include "differ.hpp"
#include "reference.hpp"

namespace mf::check {

/// Outcome of one injected-fault case.
struct FaultCase {
    std::string name;
    bool expectation_met = false;  ///< detected/absorbed as the contract demands
    bool bit_identical = false;    ///< result bits match the clean-env run
    std::string detail;            ///< counter delta + mismatch count
};

/// Which fault classes to exercise (mf_fuzz --inject selects a subset).
struct RobustnessOptions {
    bool env = true;
    bool alloc = true;
    bool thread = true;
    std::uint64_t seed = 20250807;
};

namespace detail {

/// Sum of every telemetry counter whose name contains `needle`. With
/// telemetry compiled out the registry is empty and this returns 0 -- the
/// caller gates counter expectations on MF_TELEMETRY_ENABLED.
[[nodiscard]] inline std::uint64_t counters_containing(std::string_view needle) {
    std::uint64_t total = 0;
    for (const auto& c : telemetry::Registry::instance().snapshot().counters) {
        if (c.name.find(needle) != std::string::npos) total += c.value;
    }
    return total;
}

}  // namespace detail

/// Run the fault matrix. Restores policy, injection state, and the FP
/// environment on return; never throws, never crashes -- that IS the claim
/// under test.
[[nodiscard]] inline std::vector<FaultCase> run_fault_matrix(
    const RobustnessOptions& opt = {}) {
    using T = double;
    constexpr int N = 2;
    constexpr std::size_t n = 40, k = 9, m = 13;
    // Tiny pinned blocks: 5 macro-panels (many pack edges); the 4-worker
    // config plans 4 workers, so a restarted team spawns 3.
    const blas::BlockShape tiny{8, 8, 16};

    const guard::Policy saved_policy = guard::policy();
    guard::inject::reset();

    GenConfig cfg;
    std::mt19937_64 rng(opt.seed);
    planar::Vector<T, N> a, b;
    detail::fill_vectors(rng, n * k, cfg, a);
    detail::fill_vectors(rng, k * m, cfg, b);
    planar::Vector<T, N> want;
    {
        guard::ScopedFpEnv clean;  // the reference is the nominal-env result
        want = reference_gemm_planar(a, b, n, k, m);
    }

    std::vector<FaultCase> out;
    const auto run_case = [&](std::string name, std::string_view counter_needle,
                              bool require_identical, const blas::GemmConfig& gcfg,
                              auto&& inject_fault) {
        FaultCase fc;
        fc.name = std::move(name);
        const std::uint64_t before = detail::counters_containing(counter_needle);
        planar::Vector<T, N> c(n * m);
        {
            guard::FpEnvSaver restore;  // undo whatever the fault leaves behind
            inject_fault();
            blas::gemm_packed(planar::matrix_view(a, n, k),
                              planar::matrix_view(b, k, m),
                              planar::matrix_view(c, n, m), gcfg);
        }
        guard::inject::reset();
        const std::uint64_t delta =
            detail::counters_containing(counter_needle) - before;
        const std::uint64_t bad = detail::count_mismatches(c, want, n * m);
        fc.bit_identical = bad == 0;
#if MF_TELEMETRY_ENABLED
        const bool counted = delta >= 1;
#else
        const bool counted = true;  // counters compiled out: only bits checkable
#endif
        fc.expectation_met = counted && (!require_identical || fc.bit_identical);
        fc.detail = "counter_delta=" + std::to_string(delta) +
                    " mismatches=" + std::to_string(bad);
        out.push_back(std::move(fc));
    };

    blas::GemmConfig serial;
    serial.blocks = tiny;
    serial.max_threads = 1;
    blas::GemmConfig team;
    team.blocks = tiny;
    team.max_threads = 4;  // 5 blocks -> 4 planned workers, 3 spawns

    if (opt.env) {
        // Detection + neutralization needs enforce; warn would (correctly)
        // leave the hostile environment in place.
        guard::set_policy(guard::Policy::enforce);
        const struct {
            const char* tag;
            guard::Perturb p;
        } kinds[] = {
            {"rz", guard::Perturb::round_toward_zero},
            {"ftz", guard::Perturb::ftz},
            {"daz", guard::Perturb::daz},
        };
        for (const auto& kind : kinds) {
            if (!guard::perturb_supported(kind.p)) continue;
            run_case(std::string("env-entry-") + kind.tag, "when=\"entry\"",
                     /*require_identical=*/true, serial,
                     [&] { guard::apply_perturb(kind.p); });
        }
        run_case("env-mid-rz", "when=\"exit\"", /*require_identical=*/false,
                 serial, [&] {
                     guard::inject::arm_env(0,
                                            guard::Perturb::round_toward_zero);
                 });
        guard::set_policy(saved_policy);
    }

    if (opt.alloc) {
        // The engine reserves all its pack scratch (the B panel and one A
        // block per planned worker slot) in one block, so alloc[0] is the
        // only reservation point, serial or on the team.
        run_case("alloc[0]-serial", "path=\"alloc\"", /*require_identical=*/true,
                 serial, [&] { guard::inject::arm_alloc(0); });
        run_case("alloc[0]-team", "path=\"alloc\"", /*require_identical=*/true, team,
                 [&] { guard::inject::arm_alloc(0); });
    }

    if (opt.thread) {
        for (long nth : {0L, 1L}) {
            run_case("thread[" + std::to_string(nth) + "]-team",
                     "path=\"thread\"", /*require_identical=*/true, team,
                     [&] { guard::inject::arm_spawn(nth); });
        }
    }

    guard::set_policy(saved_policy);
    guard::inject::reset();
    return out;
}

/// All cases met their expectation (empty matrix counts as failure: the
/// caller asked for classes this build cannot exercise).
[[nodiscard]] inline bool fault_matrix_clean(const std::vector<FaultCase>& cases) {
    if (cases.empty()) return false;
    for (const FaultCase& fc : cases) {
        if (!fc.expectation_met) return false;
    }
    return true;
}

inline void print_fault_matrix(const std::vector<FaultCase>& cases,
                               std::FILE* outf = stdout) {
    for (const FaultCase& fc : cases) {
        std::fprintf(outf, "  [%s] %-18s %s (%s)\n",
                     fc.expectation_met ? "ok" : "FAIL", fc.name.c_str(),
                     fc.bit_identical ? "bit-identical" : "divergent",
                     fc.detail.c_str());
    }
}

}  // namespace mf::check
