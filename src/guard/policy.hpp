#pragma once
// Guard policy: what to DO when a sentinel finds a hostile FP environment.
//
//   MF_GUARD_POLICY=ignore   no probing at all (one relaxed load per entry)
//   MF_GUARD_POLICY=warn     probe, count a telemetry violation, rate-limited
//                            stderr note; run in the caller's environment
//   MF_GUARD_POLICY=enforce  warn + install ScopedFpEnv for the call: the
//                            guarded region runs under nominal RN/no-FTZ and
//                            the caller's environment is restored on exit
//   MF_GUARD_POLICY=abort    warn + std::abort() -- for harnesses where a
//                            hostile environment means the run is garbage
//
// Default is `warn`: detection must never change numerics behind the
// caller's back unless they opted in.
//
// The sentinel checks on entry AND exit. The exit check is what catches an
// environment flipped mid-call (a callback, a signal handler, a buggy thread
// pool): it reports when the exit environment is hostile and either the
// entry was clean (so the flip happened inside) or enforcement was active
// (so anything non-nominal at exit is inside-the-call damage by definition).
//
// Under `warn` a check reads the control register first: once the
// behavioral probes have found this thread nominal with the register's
// rounding/FTZ/DAZ bits at their nominal word, a matching register is
// taken as proof and the probes are skipped. They still run on a thread's
// first check, on any register mismatch, under `enforce` and `abort`, and
// always in builds without a control register.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "fp_env.hpp"
#include "../telemetry/events.hpp"

#define MF_GUARD_CAT_IMPL(a, b) a##b
#define MF_GUARD_CAT(a, b) MF_GUARD_CAT_IMPL(a, b)

namespace mf::guard {

enum class Policy { ignore, warn, enforce, abort_on_violation };

namespace detail {

inline std::atomic<int>& policy_cell() noexcept {
    static std::atomic<int> cell{-1};  // -1 = environment not parsed yet
    return cell;
}

inline Policy parse_policy() noexcept {
    const char* v = std::getenv("MF_GUARD_POLICY");
    if (!v) return Policy::warn;
    const std::string_view s{v};
    if (s == "ignore") return Policy::ignore;
    if (s == "warn") return Policy::warn;
    if (s == "enforce") return Policy::enforce;
    if (s == "abort") return Policy::abort_on_violation;
    std::fprintf(stderr,
                 "mf::guard: unknown MF_GUARD_POLICY=%s (want "
                 "ignore|warn|enforce|abort); defaulting to warn\n",
                 v);
    return Policy::warn;
}

}  // namespace detail

[[nodiscard]] inline Policy policy() noexcept {
    int p = detail::policy_cell().load(std::memory_order_relaxed);
    if (p < 0) {
        p = static_cast<int>(detail::parse_policy());
        detail::policy_cell().store(p, std::memory_order_relaxed);
    }
    return static_cast<Policy>(p);
}

/// Test hook: override the environment-derived policy for this process.
inline void set_policy(Policy p) noexcept {
    detail::policy_cell().store(static_cast<int>(p), std::memory_order_relaxed);
}

[[nodiscard]] constexpr const char* policy_name(Policy p) noexcept {
    switch (p) {
        case Policy::ignore: return "ignore";
        case Policy::warn: return "warn";
        case Policy::enforce: return "enforce";
        default: return "abort";
    }
}

namespace detail {

/// Record one violation: telemetry counters per hazard kind, plus a
/// rate-limited stderr note (never more than ~8 lines per process -- a
/// hostile host environment fires on every guarded call).
inline void note_violation(const char* site, const char* when,
                           const FpEnvSnapshot& s) {
#if MF_TELEMETRY_ENABLED
    const auto count_kind = [when](const char* kind) {
        MF_TELEM_COUNT_DYN(std::string("mf_guard_violation_total{kind=\"") +
                               kind + "\",when=\"" + when + "\"}",
                           1);
    };
    if (s.rounding != Rounding::nearest) count_kind("rounding");
    if (s.ftz) count_kind("ftz");
    if (s.daz) count_kind("daz");
#endif
    static std::atomic<int> budget{8};
    if (budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
        std::fprintf(stderr,
                     "mf::guard: hostile FP environment at %s (%s): %s "
                     "[policy=%s]\n",
                     site, when, fp_env_string(s).c_str(),
                     policy_name(policy()));
    }
}

/// Per-thread state of the register-first check.
struct ThreadCheck {
    bool verified = false;       ///< probes found this thread nominal at the nominal word
    std::uint64_t probe_runs = 0;  ///< full snapshots the sentinels took on this thread
};

inline thread_local ThreadCheck tls_check;

/// Full behavioral snapshot; verifies the thread when it is nominal and its
/// register holds the nominal word.
inline FpEnvSnapshot probe_env() noexcept {
    ThreadCheck& tc = tls_check;
    ++tc.probe_runs;
    const FpEnvSnapshot s = fp_env_snapshot();
    if (env_nominal(s) && (s.raw_control & kEnvControlMask) == kNominalControlWord) {
        tc.verified = true;
    }
    return s;
}

/// May a register read stand in for the probes on this thread right now?
inline bool register_vouches() noexcept {
    return tls_check.verified && control_register_nominal();
}

}  // namespace detail

/// Full behavioral snapshots the sentinels have taken on the calling thread
/// (a register-first check that passes takes none).
[[nodiscard]] inline std::uint64_t sentinel_probe_runs() noexcept {
    return detail::tls_check.probe_runs;
}

/// RAII environment sentinel for a guarded entry point. Checks the calling
/// thread's FP environment on construction; under `enforce` it swaps in the
/// nominal environment for the lifetime of the scope; on destruction it
/// checks again to catch mid-call flips, then (enforce) restores the
/// caller's environment via the embedded ScopedFpEnv. Under `warn` each
/// check is a control-register read unless the register disagrees or the
/// thread has not been probed yet (header comment).
class Sentinel {
public:
    explicit Sentinel(const char* site) noexcept : site_(site) {
        const Policy p = policy();
        if (p == Policy::ignore) return;
        armed_ = true;
        MF_TELEM_COUNT("mf_guard_check_total");
        register_first_ = p == Policy::warn;
        if (register_first_ && detail::register_vouches()) return;
        const FpEnvSnapshot entry = detail::probe_env();
        entry_nominal_ = env_nominal(entry);
        if (!entry_nominal_) {
            detail::note_violation(site_, "entry", entry);
            if (p == Policy::abort_on_violation) {
                std::fprintf(stderr,
                             "mf::guard: aborting (MF_GUARD_POLICY=abort)\n");
                std::abort();
            }
        }
        if (p == Policy::enforce) {
            env_.emplace();
            enforced_ = true;
            if (!entry_nominal_) MF_TELEM_COUNT("mf_guard_enforced_total");
        }
    }

    ~Sentinel() {
        // Hostile at exit is a mid-call flip iff entry was clean, or iff we
        // enforced a clean environment ourselves (then ANY exit damage
        // happened inside the guarded region).
        if (!armed_ || !(entry_nominal_ || enforced_)) return;
        if (register_first_ && detail::register_vouches()) return;
        const FpEnvSnapshot exit = detail::probe_env();
        if (!env_nominal(exit)) {
            detail::note_violation(site_, "exit", exit);
            if (policy() == Policy::abort_on_violation) {
                std::fprintf(stderr,
                             "mf::guard: aborting (MF_GUARD_POLICY=abort)\n");
                std::abort();
            }
        }
        // env_ (if engaged) destructs after this body: caller env restored.
    }

    Sentinel(const Sentinel&) = delete;
    Sentinel& operator=(const Sentinel&) = delete;

    [[nodiscard]] bool enforced() const noexcept { return enforced_; }

private:
    const char* site_;
    bool armed_ = false;
    bool register_first_ = false;
    bool entry_nominal_ = true;
    bool enforced_ = false;
    std::optional<ScopedFpEnv> env_;
};

}  // namespace mf::guard

/// Drop an environment sentinel at a guarded entry point.
#define MF_GUARD_SENTINEL(site) \
    ::mf::guard::Sentinel MF_GUARD_CAT(mf_guard_sentinel_, __LINE__) { site }
