#pragma once
// Fault injection for the robustness test matrix (DESIGN.md §12).
//
// Three injectable fault classes, each a countdown armed by a test harness
// (or `mf_fuzz --inject ...`):
//
//   alloc  -- the Nth pack-scratch reservation throws std::bad_alloc, as a
//             real `operator new` would under memory pressure
//             (AlignedBuffer::ensure counts one per reservation);
//   spawn  -- the Nth std::thread construction of the engine's worker
//             team throws std::system_error(resource_unavailable_try_again),
//             as a real spawn does at the pthread limit (while armed, the
//             team restarts before each region, so the spawns happen);
//   env    -- at the Nth mid-GEMM checkpoint the calling thread's FP
//             environment is perturbed (and deliberately NOT restored):
//             detecting the leftover hostile state is what's under test.
//
// Disarmed state is a single relaxed atomic load on every hook -- negative
// countdown means "never fire", so production code pays one predictable
// branch. Countdowns disarm themselves after firing (fire-once semantics),
// so a degraded retry path does not re-trip the same fault.

#include <atomic>

#include "fp_env.hpp"

namespace mf::guard::inject {

namespace detail {

struct State {
    std::atomic<long> alloc_countdown{-1};
    std::atomic<long> spawn_countdown{-1};
    std::atomic<long> env_countdown{-1};
    std::atomic<unsigned> env_mask{0};
};

inline State& state() noexcept {
    static State s;
    return s;
}

/// Fire-once countdown: returns true exactly when the counter crosses zero,
/// then leaves it disarmed (-1). CAS loop only while armed.
inline bool countdown_hit(std::atomic<long>& c) noexcept {
    long v = c.load(std::memory_order_relaxed);
    while (v >= 0) {
        if (c.compare_exchange_weak(v, v - 1, std::memory_order_relaxed)) {
            return v == 0;
        }
    }
    return false;
}

}  // namespace detail

/// Arm: the Nth (0-based) pack-panel reservation after this call fails.
inline void arm_alloc(long nth) noexcept {
    detail::state().alloc_countdown.store(nth, std::memory_order_relaxed);
}

/// Arm: the Nth (0-based) std::thread spawn after this call fails.
inline void arm_spawn(long nth) noexcept {
    detail::state().spawn_countdown.store(nth, std::memory_order_relaxed);
}

/// Arm: the Nth (0-based) mid-call env checkpoint applies `p` to the
/// checkpoint's thread and leaves it applied.
inline void arm_env(long nth, Perturb p) noexcept {
    detail::state().env_mask.store(static_cast<unsigned>(p),
                                   std::memory_order_relaxed);
    detail::state().env_countdown.store(nth, std::memory_order_relaxed);
}

/// Disarm everything.
inline void reset() noexcept {
    detail::state().alloc_countdown.store(-1, std::memory_order_relaxed);
    detail::state().spawn_countdown.store(-1, std::memory_order_relaxed);
    detail::state().env_countdown.store(-1, std::memory_order_relaxed);
    detail::state().env_mask.store(0, std::memory_order_relaxed);
}

/// Hook: called by AlignedBuffer::ensure, once per reservation.
[[nodiscard]] inline bool should_fail_alloc() noexcept {
    return detail::countdown_hit(detail::state().alloc_countdown);
}

/// Hook: called by the engine's team before each std::thread construction.
[[nodiscard]] inline bool should_fail_spawn() noexcept {
    return detail::countdown_hit(detail::state().spawn_countdown);
}

/// Hook: true while a spawn fault is armed; the engine's team then restarts
/// before its next region, so the armed spawn is reached.
[[nodiscard]] inline bool spawn_armed() noexcept {
    return detail::state().spawn_countdown.load(std::memory_order_relaxed) >= 0;
}

/// Hook: mid-call environment checkpoint (e.g. before each kc block's
/// region in gemm_packed). Perturbs the calling thread's live FP environment when
/// armed; the enclosing Sentinel's exit probe is expected to notice.
inline void maybe_perturb_env() noexcept {
    if (detail::countdown_hit(detail::state().env_countdown)) {
        apply_perturb(static_cast<Perturb>(
            detail::state().env_mask.load(std::memory_order_relaxed)));
    }
}

}  // namespace mf::guard::inject
