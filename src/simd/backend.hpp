#pragma once
// Runtime backend selection for the explicit-SIMD FPAN path.
//
// A Backend names an ISA level the pack kernels can target. At startup the
// dispatcher picks the *widest* backend that is both (a) compiled into this
// binary (pack.hpp's MF_SIMD_HAVE_* macros -- we never jump to intrinsics
// that were not emitted) and (b) reported by the CPU at runtime
// (__builtin_cpu_supports on x86). The choice is overridable:
//
//   * environment: MF_SIMD_BACKEND=scalar|sse2|avx2|avx512|neon, read once
//     on first use -- the reproducibility knob documented in README.md;
//   * programmatically: set_backend(), used by tests and benchmarks to
//     measure every available backend in one process.
//
// Selecting a narrower backend than the hardware supports is always safe;
// selecting an unavailable one fails (set_backend returns false, the env
// override falls back to auto-detection with a one-line stderr warning).
// Whatever backend runs, results are bit-identical: every backend executes
// the same gate sequence per lane (see pack.hpp).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "../telemetry/events.hpp"
#include "pack.hpp"

namespace mf::simd {

enum class Backend : int { scalar = 0, sse2 = 1, avx2 = 2, avx512 = 3, neon = 4 };

[[nodiscard]] constexpr const char* backend_name(Backend b) noexcept {
    switch (b) {
        case Backend::sse2: return "sse2";
        case Backend::avx2: return "avx2";
        case Backend::avx512: return "avx512";
        case Backend::neon: return "neon";
        default: return "scalar";
    }
}

/// Natural pack width of backend `b` for base type T (lanes per register).
template <std::floating_point T>
[[nodiscard]] constexpr int backend_width(Backend b) noexcept {
    constexpr int s = static_cast<int>(sizeof(T));
    switch (b) {
        case Backend::sse2:
        case Backend::neon: return 16 / s;
        case Backend::avx2: return 32 / s;
        case Backend::avx512: return 64 / s;
        default: return 1;
    }
}

/// Were this backend's native packs compiled into the binary?
[[nodiscard]] constexpr bool backend_compiled(Backend b) noexcept {
    switch (b) {
        case Backend::scalar: return true;
        case Backend::sse2: return MF_SIMD_HAVE_SSE2 != 0;
        case Backend::avx2: return MF_SIMD_HAVE_AVX2 != 0;
        case Backend::avx512: return MF_SIMD_HAVE_AVX512 != 0;
        case Backend::neon: return MF_SIMD_HAVE_NEON != 0;
    }
    return false;
}

/// Does the CPU we are running on support this backend's instructions?
[[nodiscard]] inline bool backend_cpu_supports(Backend b) noexcept {
    if (b == Backend::scalar) return true;
#if defined(MF_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
    switch (b) {
        case Backend::sse2: return __builtin_cpu_supports("sse2") != 0;
        case Backend::avx2:
            return __builtin_cpu_supports("avx2") != 0 &&
                   __builtin_cpu_supports("fma") != 0;
        case Backend::avx512: return __builtin_cpu_supports("avx512f") != 0;
        default: return false;
    }
#elif MF_SIMD_HAVE_NEON
    return b == Backend::neon;  // baseline ISA on aarch64, no runtime probe
#else
    return false;
#endif
}

/// Usable = compiled in AND supported by the running CPU.
[[nodiscard]] inline bool backend_available(Backend b) noexcept {
    return backend_compiled(b) && backend_cpu_supports(b);
}

[[nodiscard]] inline bool parse_backend(std::string_view name, Backend* out) noexcept {
    for (Backend b : {Backend::scalar, Backend::sse2, Backend::avx2,
                      Backend::avx512, Backend::neon}) {
        if (name == backend_name(b)) {
            *out = b;
            return true;
        }
    }
    return false;
}

namespace detail {

/// One selection/override event per decision, so an exposition shows which
/// backend this process actually chose and whether an operator forced it.
inline void note_selected([[maybe_unused]] Backend b,
                          [[maybe_unused]] const char* source) noexcept {
    MF_TELEM_COUNT_DYN(std::string("mf_simd_backend_selected_total{backend=\"") +
                           backend_name(b) + "\",source=\"" + source + "\"}",
                       1);
}

/// Widest available backend, honoring a MF_SIMD_BACKEND env override.
inline Backend detect_backend() noexcept {
    Backend best = Backend::scalar;
    for (Backend b : {Backend::neon, Backend::sse2, Backend::avx2, Backend::avx512}) {
        if (backend_available(b)) best = b;
    }
    if (const char* env = std::getenv("MF_SIMD_BACKEND")) {
        Backend forced;
        if (parse_backend(env, &forced) && backend_available(forced)) {
            note_selected(forced, "env");
            return forced;
        }
        std::fprintf(stderr,
                     "mf::simd: MF_SIMD_BACKEND=%s not available, using %s\n",
                     env, backend_name(best));
        MF_TELEM_COUNT_DYN("mf_simd_backend_override_rejected_total", 1);
    }
    note_selected(best, "auto");
    return best;
}

inline std::atomic<Backend>& active_backend_slot() noexcept {
    static std::atomic<Backend> slot{detect_backend()};
    return slot;
}

}  // namespace detail

/// The backend the dispatched kernels currently run on.
[[nodiscard]] inline Backend active_backend() noexcept {
    return detail::active_backend_slot().load(std::memory_order_relaxed);
}

/// Switch the dispatched kernels to `b`. Fails (returns false, no change)
/// if `b` is not compiled in or not supported by this CPU.
inline bool set_backend(Backend b) noexcept {
    if (!backend_available(b)) return false;
    detail::active_backend_slot().store(b, std::memory_order_relaxed);
    detail::note_selected(b, "set_backend");
    return true;
}

inline bool set_backend(std::string_view name) noexcept {
    Backend b;
    return parse_backend(name, &b) && set_backend(b);
}

}  // namespace mf::simd
