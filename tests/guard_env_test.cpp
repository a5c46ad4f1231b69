// mf::guard environment sentinels (DESIGN.md §12).
//
// Uses ScopedFpPerturb -- ScopedFpEnv's inverse -- to install each hostile
// environment the guard defends against, then asserts the behavioral probes
// detect every one, that ScopedFpEnv neutralizes them, and that the Sentinel
// wired into the blas:: entry points reports and (under enforce) corrects
// them with bit-identical results. Along the way it DOCUMENTS the actual
// numerical damage each environment does to the paper's add2/mul2 kernels:
// the divergence counts printed by EnvDamage are the empirical version of
// the robustness analysis in "On the robustness of double-word addition
// algorithms" (PAPERS.md).
//
// Every test restores the thread's FP environment on exit (RAII guards);
// the suite must leave the process exactly as it found it regardless of
// assertion outcomes.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cfenv>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "check/generators.hpp"
#include "check/robustness.hpp"
#include "guard/guard.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace mf;
using guard::Perturb;
using guard::Rounding;

using MF2 = MultiFloat<double, 2>;

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(const MF2& a, const MF2& b) {
    return same_bits(a.limb[0], b.limb[0]) && same_bits(a.limb[1], b.limb[1]);
}

std::uint64_t counters_containing(std::string_view needle) {
    std::uint64_t total = 0;
    for (const auto& c : telemetry::Registry::instance().snapshot().counters) {
        if (c.name.find(needle) != std::string::npos) total += c.value;
    }
    return total;
}

/// Workers (the calling thread included) of the regions below.
constexpr unsigned kTeam = 4;

/// Park the team's workers 1..kTeam-1 in rounding mode `mode` with a region
/// that sets it on every slot but the caller's; they keep it afterwards.
void park_workers(int mode) {
    blas::engine::parallel_blocks_slots(
        kTeam,
        [mode](std::size_t, unsigned slot) {
            if (slot != 0) std::fesetround(mode);
        },
        kTeam);
}

/// Workers of a kTeam-worker region that run in round-toward-zero.
int parked_workers() {
    std::atomic<int> parked{0};
    blas::engine::parallel_blocks_slots(
        kTeam,
        [&](std::size_t, unsigned slot) {
            if (slot != 0 && std::fegetround() == FE_TOWARDZERO) ++parked;
        },
        kTeam);
    return parked.load();
}

/// The perturbations this build can apply, with tags for messages.
std::vector<std::pair<const char*, Perturb>> supported_perturbs() {
    std::vector<std::pair<const char*, Perturb>> out;
    out.emplace_back("round_toward_zero", Perturb::round_toward_zero);
    out.emplace_back("round_upward", Perturb::round_upward);
    out.emplace_back("round_downward", Perturb::round_downward);
    if (guard::perturb_supported(Perturb::ftz)) out.emplace_back("ftz", Perturb::ftz);
    if (guard::perturb_supported(Perturb::daz)) out.emplace_back("daz", Perturb::daz);
    return out;
}

TEST(GuardProbe, NominalEnvironmentIsNominal) {
    guard::ScopedFpEnv clean;
    const guard::FpEnvSnapshot s = guard::fp_env_snapshot();
    EXPECT_EQ(s.rounding, Rounding::nearest);
    EXPECT_FALSE(s.ftz);
    EXPECT_FALSE(s.daz);
    EXPECT_TRUE(s.subnormals_ok);
    EXPECT_TRUE(guard::env_nominal(s));
    EXPECT_EQ(guard::fp_env_string(s), "rn");
    // This build pins -ffp-contract=off; the contraction probe must agree.
    EXPECT_FALSE(s.fma_contraction);
}

TEST(GuardProbe, DetectsEveryPerturbation) {
    guard::FpEnvSaver restore;
    for (const auto& [tag, p] : supported_perturbs()) {
        guard::ScopedFpPerturb hostile(p);
        const guard::FpEnvSnapshot s = guard::fp_env_snapshot();
        EXPECT_FALSE(guard::env_nominal(s)) << "undetected perturbation: " << tag;
        switch (p) {
            case Perturb::round_toward_zero:
                EXPECT_EQ(s.rounding, Rounding::toward_zero) << tag;
                break;
            case Perturb::round_upward:
                EXPECT_EQ(s.rounding, Rounding::upward) << tag;
                break;
            case Perturb::round_downward:
                EXPECT_EQ(s.rounding, Rounding::downward) << tag;
                break;
            case Perturb::ftz:
                EXPECT_TRUE(s.ftz) << tag;
                break;
            case Perturb::daz:
                EXPECT_TRUE(s.daz) << tag;
                break;
            default:
                break;
        }
    }
    // All RAII guards unwound: back to the ambient environment.
    SUCCEED();
}

TEST(GuardProbe, ScopedFpEnvNeutralizesEveryPerturbation) {
    guard::FpEnvSaver restore;
    for (const auto& [tag, p] : supported_perturbs()) {
        guard::ScopedFpPerturb hostile(p);
        {
            guard::ScopedFpEnv clean;
            EXPECT_TRUE(guard::env_nominal(guard::fp_env_snapshot()))
                << "ScopedFpEnv failed to neutralize " << tag;
        }
        // ...and its destructor must hand the hostile environment back.
        EXPECT_FALSE(guard::env_nominal(guard::fp_env_snapshot()))
            << "ScopedFpEnv restore lost the caller's environment (" << tag << ")";
    }
}

TEST(GuardProbe, PerturbRoundTripRestoresRegister) {
    const std::uint64_t before = guard::read_control_register();
    {
        guard::ScopedFpPerturb hostile(Perturb::round_toward_zero |
                                       Perturb::ftz);
        (void)guard::fp_env_snapshot();
    }
    EXPECT_EQ(guard::read_control_register(), before);
}

// Document the numerical damage: run the paper's add2/mul2 over a
// structure-aware corpus in each hostile environment and count results that
// differ from the round-to-nearest reference. No hard assertion on the
// counts (they are environment-dependent facts, not contracts) -- the
// contract under test is that the SENTINEL catches the environment, above.
TEST(GuardProbe, EnvDamageAdd2Mul2Documented) {
    constexpr int kSamples = 2000;
    check::GenConfig cfg;
    std::mt19937_64 rng(20260807);
    std::vector<MF2> xs(kSamples), ys(kSamples);
    std::vector<MF2> add_ref(kSamples), mul_ref(kSamples);
    {
        guard::ScopedFpEnv clean;
        for (int i = 0; i < kSamples; ++i) {
            xs[i] = check::gen<double, 2>(rng, check::Category::ladder, cfg);
            ys[i] = check::gen<double, 2>(rng, check::Category::straddle, cfg);
            add_ref[i] = xs[i] + ys[i];
            mul_ref[i] = xs[i] * ys[i];
        }
    }
    guard::FpEnvSaver restore;
    for (const auto& [tag, p] : supported_perturbs()) {
        guard::ScopedFpPerturb hostile(p);
        int add_div = 0, mul_div = 0;
        for (int i = 0; i < kSamples; ++i) {
            if (!same_bits(xs[i] + ys[i], add_ref[i])) ++add_div;
            if (!same_bits(xs[i] * ys[i], mul_ref[i])) ++mul_div;
        }
        std::printf("  [env-damage] %-18s add2 %5d/%d diverge, mul2 %5d/%d diverge\n",
                    tag, add_div, kSamples, mul_div, kSamples);
        // Under the SAME hostile environment, ScopedFpEnv (what
        // policy=enforce installs) must reproduce the reference exactly.
        guard::ScopedFpEnv clean;
        for (int i = 0; i < kSamples; ++i) {
            ASSERT_TRUE(same_bits(xs[i] + ys[i], add_ref[i]))
                << tag << ": enforced add2 diverged at sample " << i;
            ASSERT_TRUE(same_bits(xs[i] * ys[i], mul_ref[i]))
                << tag << ": enforced mul2 diverged at sample " << i;
        }
    }
}

class GuardSentinelTest : public ::testing::Test {
protected:
    void SetUp() override { saved_ = guard::policy(); }
    void TearDown() override {
        guard::set_policy(saved_);
        guard::inject::reset();
    }
    guard::Policy saved_{};
};

TEST_F(GuardSentinelTest, WarnDetectsAndCountsButDoesNotTouchEnv) {
    guard::set_policy(guard::Policy::warn);
    guard::FpEnvSaver restore;
    const std::uint64_t before = counters_containing("mf_guard_violation_total");
    {
        guard::ScopedFpPerturb hostile(Perturb::round_toward_zero);
        guard::Sentinel s("test.warn");
        EXPECT_FALSE(s.enforced());
        // warn must NOT change the running environment.
        EXPECT_EQ(guard::fp_env_snapshot().rounding, Rounding::toward_zero);
    }
    const std::uint64_t after = counters_containing("mf_guard_violation_total");
#if MF_TELEMETRY_ENABLED
    EXPECT_GE(after - before, 1u);
#else
    EXPECT_EQ(after, before);
#endif
}

TEST_F(GuardSentinelTest, EnforceInstallsNominalAndRestoresCaller) {
    guard::set_policy(guard::Policy::enforce);
    guard::FpEnvSaver restore;
    guard::ScopedFpPerturb hostile(Perturb::round_toward_zero);
    {
        guard::Sentinel s("test.enforce");
        EXPECT_TRUE(s.enforced());
        EXPECT_TRUE(guard::env_nominal(guard::fp_env_snapshot()));
    }
    // Sentinel destruction hands the (hostile) caller environment back.
    EXPECT_EQ(guard::fp_env_snapshot().rounding, Rounding::toward_zero);
}

TEST_F(GuardSentinelTest, IgnoreProbesNothing) {
    guard::set_policy(guard::Policy::ignore);
    guard::FpEnvSaver restore;
    const std::uint64_t before = counters_containing("mf_guard");
    {
        guard::ScopedFpPerturb hostile(Perturb::round_toward_zero);
        guard::Sentinel s("test.ignore");
        EXPECT_FALSE(s.enforced());
    }
    EXPECT_EQ(counters_containing("mf_guard"), before);
}

TEST_F(GuardSentinelTest, ExitProbeCatchesMidCallFlip) {
    guard::set_policy(guard::Policy::warn);
    guard::FpEnvSaver restore;
    const std::uint64_t before = counters_containing("when=\"exit\"");
    {
        guard::Sentinel s("test.midflip");
        guard::apply_perturb(Perturb::round_toward_zero);  // "callback" damage
    }
#if MF_TELEMETRY_ENABLED
    EXPECT_GE(counters_containing("when=\"exit\"") - before, 1u);
#endif
}

TEST_F(GuardSentinelTest, EnforcedBlasGemmIsBitIdenticalToCleanRun) {
    using V = MultiFloat<double, 2>;
    constexpr std::size_t n = 12, k = 7, m = 9;
    check::GenConfig cfg;
    std::mt19937_64 rng(7);
    std::vector<V> a(n * k), b(k * m), c_clean(n * m), c_hostile(n * m);
    for (auto& v : a) v = check::gen<double, 2>(rng, check::Category::ladder, cfg);
    for (auto& v : b) v = check::gen<double, 2>(rng, check::Category::ladder, cfg);
    {
        guard::ScopedFpEnv clean;
        blas::gemm(blas::view(std::as_const(a), n, k),
                   blas::view(std::as_const(b), k, m), blas::view(c_clean, n, m));
    }
    guard::set_policy(guard::Policy::enforce);
    guard::FpEnvSaver restore;
    {
        guard::ScopedFpPerturb hostile(Perturb::round_toward_zero);
        blas::gemm(blas::view(std::as_const(a), n, k),
                   blas::view(std::as_const(b), k, m),
                   blas::view(c_hostile, n, m));
    }
    for (std::size_t i = 0; i < n * m; ++i) {
        ASSERT_TRUE(same_bits(c_clean[i], c_hostile[i])) << "element " << i;
    }
}

// Under enforce the guarantee covers every engine worker, not just the
// calling thread: the team keeps its workers between regions, and a worker
// parked in round-toward-zero must not leak into an enforced blas::gemm
// whose work is split across the team.
TEST_F(GuardSentinelTest, EnforcedBlasGemmRepairsParkedWorkerEnv) {
    using V = MultiFloat<double, 2>;
    // Fewer row blocks than workers: the engine splits micro-panel columns
    // across the team.
    constexpr std::size_t n = 40, k = 32, m = 160;
    check::GenConfig cfg;
    std::mt19937_64 rng(13);
    std::vector<V> a(n * k), b(k * m), c_clean(n * m), c_parked(n * m);
    for (auto& v : a) v = check::gen<double, 2>(rng, check::Category::ladder, cfg);
    for (auto& v : b) v = check::gen<double, 2>(rng, check::Category::ladder, cfg);
    const auto run = [&](std::vector<V>& c) {
        blas::gemm(blas::view(std::as_const(a), n, k), blas::view(std::as_const(b), k, m),
                   blas::view(c, n, m));
    };
    const unsigned saved_threads = blas::engine::set_default_threads(kTeam);
    guard::FpEnvSaver restore;
    {
        guard::ScopedFpEnv clean;
        park_workers(FE_TONEAREST);
        run(c_clean);
    }
    park_workers(FE_TOWARDZERO);
    const int parked = parked_workers();
    guard::set_policy(guard::Policy::enforce);
    run(c_parked);
    park_workers(FE_TONEAREST);
    blas::engine::set_default_threads(saved_threads);
    ASSERT_GT(parked, 0) << "no worker kept the parked rounding mode";
    for (std::size_t i = 0; i < n * m; ++i) {
        ASSERT_TRUE(same_bits(c_clean[i], c_parked[i])) << "element " << i;
    }
}

// A region's workers honour the same request: workers parked in a hostile
// environment run their share in it unless the engine asks them to install
// the nominal one.
TEST_F(GuardSentinelTest, PoolWorkersInstallNominalEnvOnRequest) {
    guard::FpEnvSaver restore;
    guard::ScopedFpPerturb hostile(Perturb::round_toward_zero);
    park_workers(FE_TOWARDZERO);
    std::atomic<int> workers{0}, hostile_workers{0};
    blas::engine::parallel_blocks_slots(
        8,
        [&](std::size_t, unsigned slot) {
            if (slot == 0) return;
            ++workers;
            if (!guard::env_nominal(guard::fp_env_snapshot())) ++hostile_workers;
        },
        kTeam, /*nominal_env=*/true);
    const int parked = parked_workers();
    park_workers(FE_TONEAREST);
    EXPECT_GT(workers.load(), 0);
    EXPECT_EQ(hostile_workers.load(), 0);
    // ScopedFpEnv restores each worker's own environment afterwards.
    EXPECT_EQ(parked, static_cast<int>(kTeam) - 1);
    // The caller's own environment is the sentinel's business, not the team's.
    EXPECT_EQ(guard::fp_env_snapshot().rounding, Rounding::toward_zero);
}

// The same guarantee for the level-2 kernels: a ger large enough to fork
// hands the sentinel's enforcement to every worker of engine::parallel_for.
TEST_F(GuardSentinelTest, EnforcedBlasGerRepairsParkedWorkerEnv) {
    using V = MultiFloat<double, 2>;
    constexpr std::size_t n = 192, m = 48;
    static_assert(n * m >= blas::engine::kCallForkMadds, "the ger must fork");
    check::GenConfig cfg;
    std::mt19937_64 rng(17);
    std::vector<V> x(n), y(m), a0(n * m);
    for (auto& v : x) v = check::gen<double, 2>(rng, check::Category::ladder, cfg);
    for (auto& v : y) v = check::gen<double, 2>(rng, check::Category::ladder, cfg);
    for (auto& v : a0) v = check::gen<double, 2>(rng, check::Category::straddle, cfg);
    std::vector<V> a_clean = a0, a_parked = a0;
    const auto run = [&](std::vector<V>& a) {
        blas::ger(V(-1.0), blas::view(std::as_const(x)), blas::view(std::as_const(y)),
                  blas::view(a, n, m));
    };
    const unsigned saved_threads = blas::engine::set_default_threads(kTeam);
    guard::FpEnvSaver restore;
    {
        guard::ScopedFpEnv clean;
        park_workers(FE_TONEAREST);
        run(a_clean);
    }
    park_workers(FE_TOWARDZERO);
    const int parked = parked_workers();
    guard::set_policy(guard::Policy::enforce);
    run(a_parked);
    park_workers(FE_TONEAREST);
    blas::engine::set_default_threads(saved_threads);
    ASSERT_GT(parked, 0) << "no worker kept the parked rounding mode";
    for (std::size_t i = 0; i < n * m; ++i) {
        ASSERT_TRUE(same_bits(a_clean[i], a_parked[i])) << "element " << i;
    }
}

// ---------------------------------------------------------------------------
// The register-first check (policy.hpp): under warn, a thread the probes
// have vouched for is checked by one control-register read; the probes run
// again on any mismatch.

/// Run fn on a thread that has never run a sentinel.
template <typename F>
void on_fresh_thread(F&& fn) {
    std::thread t(std::forward<F>(fn));
    t.join();
}

TEST_F(GuardSentinelTest, FirstCheckOnAThreadRunsTheProbes) {
    guard::set_policy(guard::Policy::warn);
    std::uint64_t first = 0, later = 0, after_flags = 0;
    on_fresh_thread([&] {
        guard::ScopedFpEnv clean;
        EXPECT_EQ(guard::sentinel_probe_runs(), 0u);
        { guard::Sentinel s("test.first"); }
        first = guard::sentinel_probe_runs();
        { guard::Sentinel s("test.second"); }
        later = guard::sentinel_probe_runs();
        // Arithmetic raises the register's status flags (inexact here);
        // they are outside the compared bits.
        volatile double third = 1.0;
        third = third / 3.0;
        { guard::Sentinel s("test.third"); }
        after_flags = guard::sentinel_probe_runs();
    });
    EXPECT_GE(first, 1u) << "a thread's first check must run the probes";
    if constexpr (guard::have_control_register) {
        EXPECT_EQ(later, first) << "a vouched-for thread re-ran the probes";
        EXPECT_EQ(after_flags, first) << "status flags forced the probes";
    } else {
        EXPECT_GT(later, first) << "without a control register every check probes";
    }
}

TEST_F(GuardSentinelTest, RegisterMismatchFallsBackToTheProbes) {
    guard::set_policy(guard::Policy::warn);
    guard::FpEnvSaver restore;
    for (const auto& [tag, p] : supported_perturbs()) {
        { guard::ScopedFpEnv clean; guard::Sentinel warm("test.warm"); }
        const std::uint64_t probes = guard::sentinel_probe_runs();
        const std::uint64_t before = counters_containing("when=\"entry\"");
        guard::ScopedFpPerturb hostile(p);
        { guard::Sentinel s("test.mismatch"); }
        EXPECT_GT(guard::sentinel_probe_runs(), probes) << tag;
#if MF_TELEMETRY_ENABLED
        EXPECT_GE(counters_containing("when=\"entry\"") - before, 1u) << tag;
#else
        (void)before;
#endif
    }
}

// The documented DAZ subtlety (DESIGN.md §12) survives the register-first
// path: DAZ alone probes as rn+ftz+daz, and both kinds are reported.
TEST_F(GuardSentinelTest, DazOnlyEnvironmentStillReportsFtzAndDaz) {
    if (!guard::perturb_supported(Perturb::daz)) GTEST_SKIP() << "no DAZ bit";
    guard::set_policy(guard::Policy::warn);
    guard::FpEnvSaver restore;
    { guard::ScopedFpEnv clean; guard::Sentinel warm("test.warm"); }
    const std::uint64_t ftz_before = counters_containing("kind=\"ftz\",when=\"entry\"");
    const std::uint64_t daz_before = counters_containing("kind=\"daz\",when=\"entry\"");
    guard::ScopedFpPerturb hostile(Perturb::daz);
    const guard::FpEnvSnapshot snap = guard::fp_env_snapshot();
    EXPECT_TRUE(snap.ftz);
    EXPECT_TRUE(snap.daz);
    EXPECT_EQ(guard::fp_env_string(snap), "rn+ftz+daz");
    const std::uint64_t probes = guard::sentinel_probe_runs();
    { guard::Sentinel s("test.daz"); }
    EXPECT_GT(guard::sentinel_probe_runs(), probes);
#if MF_TELEMETRY_ENABLED
    EXPECT_EQ(counters_containing("kind=\"ftz\",when=\"entry\"") - ftz_before, 1u);
    EXPECT_EQ(counters_containing("kind=\"daz\",when=\"entry\"") - daz_before, 1u);
#else
    (void)ftz_before;
    (void)daz_before;
#endif
}

// A team worker in a hostile environment (here parked in it) is not vouched
// for by its register: its next sentinel must probe it and report the
// violation.
TEST_F(GuardSentinelTest, FreshPoolWorkerInHostileEnvIsDetected) {
    guard::set_policy(guard::Policy::warn);
    guard::FpEnvSaver restore;
    guard::ScopedFpPerturb hostile(Perturb::round_toward_zero);
    park_workers(FE_TOWARDZERO);
    const std::uint64_t before = counters_containing("kind=\"rounding\",when=\"entry\"");
    std::atomic<int> workers{0}, probed{0};
    blas::engine::parallel_blocks_slots(
        8,
        [&](std::size_t, unsigned slot) {
            if (slot == 0) return;
            ++workers;
            const std::uint64_t probes = guard::sentinel_probe_runs();
            { guard::Sentinel s("test.worker"); }
            if (guard::sentinel_probe_runs() > probes) ++probed;
        },
        kTeam);
    park_workers(FE_TONEAREST);
    EXPECT_GT(workers.load(), 0);
    EXPECT_EQ(probed.load(), workers.load());
#if MF_TELEMETRY_ENABLED
    EXPECT_EQ(counters_containing("kind=\"rounding\",when=\"entry\"") - before,
              static_cast<std::uint64_t>(workers.load()));
#else
    (void)before;
#endif
}

// The fault matrix keeps its cases and their outcomes: every case meets its
// expectation, and only the mid-call flip (detection-only) diverges.
TEST_F(GuardSentinelTest, FaultMatrixKeepsItsCasesAndOutcomes) {
    std::vector<std::string> want = {"env-entry-rz"};
    if (guard::perturb_supported(Perturb::ftz)) want.push_back("env-entry-ftz");
    if (guard::perturb_supported(Perturb::daz)) want.push_back("env-entry-daz");
    for (const char* name : {"env-mid-rz", "alloc[0]-serial", "alloc[0]-team",
                             "thread[0]-team", "thread[1]-team"}) {
        want.emplace_back(name);
    }
    const std::vector<check::FaultCase> cases = check::run_fault_matrix();
    ASSERT_EQ(cases.size(), want.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(cases[i].name, want[i]);
        EXPECT_TRUE(cases[i].expectation_met) << cases[i].name << ": " << cases[i].detail;
        EXPECT_EQ(cases[i].bit_identical, cases[i].name != "env-mid-rz")
            << cases[i].name << ": " << cases[i].detail;
    }
}

}  // namespace
