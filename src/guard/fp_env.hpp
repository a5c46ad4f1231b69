#pragma once
// Floating-point environment sentinels (DESIGN.md §12).
//
// Every error bound the conformance layer enforces, and every bit-identity
// guarantee the differ proves, holds only in the NOMINAL environment:
// round-to-nearest-even with subnormals enabled. Nothing stops a host
// process from violating that contract behind the library's back -- game
// engines ship with FTZ/DAZ set, a single -ffast-math DSO linked anywhere in
// the process can flip MXCSR at load time, and GPU interop layers are known
// to leave directed rounding modes behind. "On the robustness of double-word
// addition algorithms" (PAPERS.md) works out exactly how TwoSum-based
// algorithms degrade outside the nominal environment; this header is the
// detection half of the defense (policy.hpp decides what to do about it).
//
// Two complementary mechanisms:
//   * behavioral probes -- a handful of volatile flops whose rounded results
//     differ by environment. Portable ground truth: they observe what the
//     hardware actually does, including environments no register read can
//     name (x87 precision control, emulated FPUs).
//   * register reads -- MXCSR on x86, FPCR on AArch64. Near-free, kept in
//     the snapshot as raw provenance, used to *set* bits the C standard
//     gives no portable access to (FTZ/DAZ), and -- once the probes have
//     vouched for a thread -- as the sentinel's per-call check
//     (control_register_nominal, policy.hpp).
//
// All probes go through volatile locals: the values must be computed by the
// machine at call time, in the caller's live environment, not constant-folded
// under the compiler's compile-time round-to-nearest.

#include <cfenv>
#include <cstdint>
#include <limits>
#include <string>

#if defined(__x86_64__) || (defined(__i386__) && defined(__SSE__))
#define MF_GUARD_HAVE_MXCSR 1
#include <immintrin.h>
#else
#define MF_GUARD_HAVE_MXCSR 0
#endif
#if defined(__aarch64__)
#define MF_GUARD_HAVE_FPCR 1
#else
#define MF_GUARD_HAVE_FPCR 0
#endif

namespace mf::guard {

/// Rounding direction as observed by the behavioral probe.
enum class Rounding { nearest, toward_zero, upward, downward, unknown };

[[nodiscard]] constexpr const char* rounding_name(Rounding r) noexcept {
    switch (r) {
        case Rounding::nearest: return "rn";
        case Rounding::toward_zero: return "rz";
        case Rounding::upward: return "ru";
        case Rounding::downward: return "rd";
        default: return "r?";
    }
}

/// Does this build have a control register it can read AND write (the
/// prerequisite for perturbing or clearing FTZ/DAZ)?
inline constexpr bool have_control_register =
    MF_GUARD_HAVE_MXCSR != 0 || MF_GUARD_HAVE_FPCR != 0;

/// Raw FP control register: MXCSR (x86), FPCR (AArch64), 0 elsewhere.
[[nodiscard]] inline std::uint64_t read_control_register() noexcept {
#if MF_GUARD_HAVE_MXCSR
    return _mm_getcsr();
#elif MF_GUARD_HAVE_FPCR
    std::uint64_t v;
    __asm__ volatile("mrs %0, fpcr" : "=r"(v));
    return v;
#else
    return 0;
#endif
}

inline void write_control_register(std::uint64_t v) noexcept {
#if MF_GUARD_HAVE_MXCSR
    _mm_setcsr(static_cast<unsigned>(v));
#elif MF_GUARD_HAVE_FPCR
    __asm__ volatile("msr fpcr, %0" : : "r"(v));
#else
    (void)v;
#endif
}

namespace detail {

// Control-register bit masks for the flush-to-zero family. MXCSR separates
// output flushing (FTZ, bit 15) from input flushing (DAZ, bit 6); AArch64's
// FPCR has a single FZ bit (24) doing both, plus FZ16 (19) for half floats.
// The rounding-control field is MXCSR bits 13-14 and FPCR.RMode, bits
// 22-23; both encode round-to-nearest as 00.
#if MF_GUARD_HAVE_MXCSR
inline constexpr std::uint64_t kFtzBits = 1u << 15;
inline constexpr std::uint64_t kDazBits = 1u << 6;
inline constexpr std::uint64_t kRoundingBits = 3u << 13;
#elif MF_GUARD_HAVE_FPCR
inline constexpr std::uint64_t kFtzBits = (1ull << 24) | (1ull << 19);
inline constexpr std::uint64_t kDazBits = (1ull << 24) | (1ull << 19);
inline constexpr std::uint64_t kRoundingBits = 3ull << 22;
#else
inline constexpr std::uint64_t kFtzBits = 0;
inline constexpr std::uint64_t kDazBits = 0;
inline constexpr std::uint64_t kRoundingBits = 0;
#endif

}  // namespace detail

/// The control-register bits that decide the environment the paper's
/// bounds assume -- rounding control, FTZ, DAZ -- and their value in that
/// (nominal) environment. The status flags and exception masks in the same
/// register are left out: arithmetic raises the flags on every call.
inline constexpr std::uint64_t kEnvControlMask =
    detail::kRoundingBits | detail::kFtzBits | detail::kDazBits;
inline constexpr std::uint64_t kNominalControlWord = 0;

/// Does the live control register hold the nominal rounding and flush bits?
/// Always false in builds without a control register.
[[nodiscard]] inline bool control_register_nominal() noexcept {
    return have_control_register &&
           (read_control_register() & kEnvControlMask) == kNominalControlWord;
}

/// Behavioral probe: does a subnormal RESULT survive? min_normal/2 is an
/// exact subnormal in every rounding mode; FTZ (or FPCR.FZ) flushes it to 0.
[[nodiscard]] inline bool probe_subnormal_outputs() noexcept {
    volatile double x = std::numeric_limits<double>::min();
    volatile double y = x * 0.5;
    return y != 0.0;
}

/// Behavioral probe: is a subnormal INPUT read as nonzero? denorm_min scaled
/// up to a normal magnitude isolates DAZ from FTZ: the product is normal, so
/// output flushing cannot mask the result -- only input flushing zeroes it.
[[nodiscard]] inline bool probe_subnormal_inputs() noexcept {
    volatile double d = std::numeric_limits<double>::denorm_min();
    volatile double y = d * 0x1p600;
    return y != 0.0;
}

/// Behavioral probe of the rounding direction, no <cfenv> involved: three
/// quarter-ulp additions whose rounded results differ per mode.
///   1 + 2^-54  rounds up only toward +inf;
///  -1 - 2^-54  rounds down only toward -inf;
///   1 - 2^-54  is a tie (half of the below-1 ulp 2^-53): to-even keeps 1.0,
///              truncation and toward -inf drop to 1 - 2^-53.
[[nodiscard]] inline Rounding probe_rounding() noexcept {
    volatile double one = 1.0;
    volatile double u = 0x1p-54;
    volatile double mone = -1.0;
    volatile double p1 = one + u;
    volatile double p2 = one - u;
    volatile double p3 = mone - u;
    if (p1 > 1.0) return Rounding::upward;
    if (p3 < -1.0) return Rounding::downward;
    if (p2 < 1.0) return Rounding::toward_zero;
    return Rounding::nearest;
}

/// Behavioral probe: did the compiler contract a*a - b into an FMA in THIS
/// translation unit? a = 1 + 2^-27 squares to 1 + 2^-26 + 2^-54; separately
/// rounded that is exactly b = 1 + 2^-26, so the difference is 0 -- an FMA
/// keeps the 2^-54 residual. Only meaningful under round-to-nearest (the
/// caller gates it): directed modes shift the product's rounding too.
[[nodiscard]] inline bool probe_fma_contraction() noexcept {
    volatile double va = 1.0 + 0x1p-27;
    volatile double vb = 1.0 + 0x1p-26;
    const double a = va;
    const double b = vb;
    volatile double r = a * a - b;
    return r != 0.0;
}

/// What the sentinels learned about the calling thread's FP environment.
/// `rounding`/`ftz`/`daz` are behavioral observations (ground truth);
/// `raw_control` is the register word for provenance dumps.
struct FpEnvSnapshot {
    Rounding rounding = Rounding::unknown;
    bool ftz = false;             ///< subnormal outputs flushed
    bool daz = false;             ///< subnormal inputs read as zero
    bool subnormals_ok = true;    ///< !ftz && !daz
    bool fma_contraction = false; ///< this TU contracts mul+add (probe, RN only)
    std::uint64_t raw_control = 0;
};

[[nodiscard]] inline FpEnvSnapshot fp_env_snapshot() noexcept {
    FpEnvSnapshot s;
    s.raw_control = read_control_register();
    s.rounding = probe_rounding();
    s.ftz = !probe_subnormal_outputs();
    s.daz = !probe_subnormal_inputs();
    s.subnormals_ok = !s.ftz && !s.daz;
    s.fma_contraction =
        s.rounding == Rounding::nearest && probe_fma_contraction();
    return s;
}

/// The environment every paper bound and bit-identity guarantee assumes:
/// round-to-nearest with subnormals fully enabled. FMA contraction is
/// excluded on purpose: it is a property of how the code was compiled, not
/// of the run-time environment, and the build pins -ffp-contract=off --
/// contraction would fuse mf::mul's plain a[i] * b[j] products into the
/// adds that consume them and change its bits. The probe reports it as a
/// provenance fact.
[[nodiscard]] inline bool env_nominal(const FpEnvSnapshot& s) noexcept {
    return s.rounding == Rounding::nearest && s.subnormals_ok;
}

/// Compact provenance string: "rn", "rz+ftz", "rn+daz+fmac", ...
[[nodiscard]] inline std::string fp_env_string(const FpEnvSnapshot& s) {
    std::string r = rounding_name(s.rounding);
    if (s.ftz) r += "+ftz";
    if (s.daz) r += "+daz";
    if (s.fma_contraction) r += "+fmac";
    return r;
}

[[nodiscard]] inline std::string fp_env_string() {
    return fp_env_string(fp_env_snapshot());
}

/// RAII: save the caller's FP environment verbatim, restore it on scope
/// exit. No enforcement -- the building block for the perturbing and
/// enforcing guards below, and for test harnesses that must leave the
/// process exactly as they found it.
class FpEnvSaver {
public:
    FpEnvSaver() noexcept : control_(read_control_register()) {
        std::fegetenv(&env_);
    }
    ~FpEnvSaver() {
        std::fesetenv(&env_);
        // fesetenv restores the control word on glibc targets already; the
        // explicit write keeps libcs honest that track less state in fenv_t.
        if constexpr (have_control_register) write_control_register(control_);
    }
    FpEnvSaver(const FpEnvSaver&) = delete;
    FpEnvSaver& operator=(const FpEnvSaver&) = delete;

private:
    std::fenv_t env_;
    std::uint64_t control_;
};

/// RAII: save the caller's FP environment, switch THIS THREAD to the nominal
/// one (round-to-nearest, FTZ/DAZ cleared), restore the caller's on exit.
/// This is what `MF_GUARD_POLICY=enforce` installs for the duration of a
/// guarded call. Per-thread by nature: the FP environment is thread state,
/// and worker threads spawned while enforcement is active inherit the
/// enforced (clean) environment.
class ScopedFpEnv {
public:
    ScopedFpEnv() noexcept {
        std::fesetround(FE_TONEAREST);
        if constexpr (have_control_register) {
            write_control_register(read_control_register() &
                                   ~(detail::kFtzBits | detail::kDazBits));
        }
    }

private:
    // Constructed (= saves) before the constructor body runs; destroyed (=
    // restores) after everything else in the enclosing scope.
    FpEnvSaver saved_;
};

/// Hostile-environment perturbations, for tests and fault injection -- the
/// inverse of ScopedFpEnv. Flags combine; at most one rounding direction.
enum class Perturb : unsigned {
    none = 0,
    round_toward_zero = 1u << 0,
    round_upward = 1u << 1,
    round_downward = 1u << 2,
    ftz = 1u << 3,
    daz = 1u << 4,
};

[[nodiscard]] constexpr Perturb operator|(Perturb a, Perturb b) noexcept {
    return static_cast<Perturb>(static_cast<unsigned>(a) | static_cast<unsigned>(b));
}
[[nodiscard]] constexpr bool has(Perturb mask, Perturb flag) noexcept {
    return (static_cast<unsigned>(mask) & static_cast<unsigned>(flag)) != 0;
}

/// Can this build actually apply the perturbation? Rounding is portable
/// (<cfenv>); the flush bits need a writable control register.
[[nodiscard]] inline bool perturb_supported(Perturb p) noexcept {
    if ((has(p, Perturb::ftz) || has(p, Perturb::daz)) && !have_control_register) {
        return false;
    }
    return true;
}

/// Apply a perturbation to the calling thread's live environment (no save).
/// Used by ScopedFpPerturb and by the mid-call fault injector, which
/// deliberately does NOT restore -- detection of the leftover state is the
/// point.
inline void apply_perturb(Perturb p) noexcept {
    if (has(p, Perturb::round_toward_zero)) std::fesetround(FE_TOWARDZERO);
    if (has(p, Perturb::round_upward)) std::fesetround(FE_UPWARD);
    if (has(p, Perturb::round_downward)) std::fesetround(FE_DOWNWARD);
    if constexpr (have_control_register) {
        std::uint64_t cr = read_control_register();
        if (has(p, Perturb::ftz)) cr |= detail::kFtzBits;
        if (has(p, Perturb::daz)) cr |= detail::kDazBits;
        write_control_register(cr);
    }
}

/// RAII: run a scope under a hostile environment, restore the caller's after.
class ScopedFpPerturb {
public:
    explicit ScopedFpPerturb(Perturb p) noexcept { apply_perturb(p); }

private:
    FpEnvSaver saved_;  // saves before the constructor body, restores last
};

}  // namespace mf::guard
