#pragma once
// Runtime dispatch from the active Backend to width-templated pack kernels.
//
// The switch compiles one instantiation per backend that pack.hpp compiled
// intrinsics for (guarded by the same MF_SIMD_HAVE_* macros), plus the
// always-present scalar fallback, and jumps to the one active_backend()
// names. The branch is per kernel call, not per element. Each entry below
// also counts its elements once in mf_simd_kernel_ops_total{kernel=...};
// a caller issuing many short calls resolves the width once with
// with_active_width, calls the kernels:: templates directly, and counts its
// own total (blas::ger, planar::gemv).

#include <cstddef>
#include <type_traits>
#include <utility>

#include "../telemetry/events.hpp"
#include "backend.hpp"
#include "kernels.hpp"

namespace mf::simd {

namespace detail {

#if MF_TELEMETRY_ENABLED
/// One dispatch-decision event per kernel call (not per element).
/// All five series are pre-registered so the exposition always shows the
/// roads not taken; ids resolve once, the steady-state cost is one
/// thread-local increment per kernel call.
inline void note_dispatch(Backend b) {
    static const std::array<telemetry::CounterId, 5> ids = [] {
        std::array<telemetry::CounterId, 5> a{};
        for (int i = 0; i < 5; ++i) {
            a[static_cast<std::size_t>(i)] = telemetry::Registry::instance().counter(
                std::string("mf_simd_dispatch_total{backend=\"") +
                backend_name(static_cast<Backend>(i)) + "\"}");
        }
        return a;
    }();
    telemetry::Registry::instance().add(ids[static_cast<std::size_t>(b)]);
}
#endif

/// Invoke f(integral_constant<int, W>) with the active backend's pack width
/// for base type T. Only widths whose intrinsic specializations are compiled
/// in are reachable; anything else falls back to width 1 (scalar packs).
template <std::floating_point T, typename F>
MF_ALWAYS_INLINE decltype(auto) with_pack_width(F&& f) {
    [[maybe_unused]] constexpr int S = static_cast<int>(sizeof(T));
    const Backend active = active_backend();
#if MF_TELEMETRY_ENABLED
    note_dispatch(active);
#endif
    switch (active) {
#if MF_SIMD_HAVE_AVX512
        case Backend::avx512:
            return std::forward<F>(f)(std::integral_constant<int, 64 / S>{});
#endif
#if MF_SIMD_HAVE_AVX2
        case Backend::avx2:
            return std::forward<F>(f)(std::integral_constant<int, 32 / S>{});
#endif
#if MF_SIMD_HAVE_SSE2
        case Backend::sse2:
            return std::forward<F>(f)(std::integral_constant<int, 16 / S>{});
#endif
#if MF_SIMD_HAVE_NEON
        case Backend::neon:
            return std::forward<F>(f)(std::integral_constant<int, 16 / S>{});
#endif
        default:
            return std::forward<F>(f)(std::integral_constant<int, 1>{});
    }
}

}  // namespace detail

/// Pack width the dispatched kernels currently run at for base type T.
template <std::floating_point T>
[[nodiscard]] inline int active_width() noexcept {
    return detail::with_pack_width<T>([](auto w) { return w(); });
}

/// Resolve the active pack width ONCE and run f(integral_constant<int, W>).
/// Callers issuing many short kernel calls (e.g. a GEMM's per-row fma
/// sweeps) hoist the backend switch out of their loop nest with this and
/// call the width-templated kernels:: entry points directly inside f.
template <std::floating_point T, typename F>
MF_ALWAYS_INLINE decltype(auto) with_active_width(F&& f) {
    return detail::with_pack_width<T>(std::forward<F>(f));
}

/// Planar z = x + y elementwise on the active backend.
template <std::floating_point T, int N>
void add_range(const T* const* xp, const T* const* yp, T* const* zp,
               std::size_t i0, std::size_t i1) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"add_range\"}", i1 - i0);
    detail::with_pack_width<T>([&](auto w) {
        kernels::add_range<T, N, w()>(xp, yp, zp, i0, i1);
    });
}

/// Planar y = alpha * x + y elementwise on the active backend.
template <std::floating_point T, int N>
void fma_range(const MultiFloat<T, N>& alpha, const T* const* xp, T* const* yp,
               std::size_t i0, std::size_t i1) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"fma_range\"}", i1 - i0);
    detail::with_pack_width<T>([&](auto w) {
        kernels::fma_range<T, N, w()>(alpha, xp, yp, i0, i1);
    });
}

/// Planar <x, y> on the active backend.
template <std::floating_point T, int N>
[[nodiscard]] MultiFloat<T, N> dot(const T* const* xp, const T* const* yp,
                                   std::size_t n) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"dot\"}", n);
    return detail::with_pack_width<T>([&](auto w) {
        return kernels::dot<T, N, w()>(xp, yp, n);
    });
}

/// AoS y = alpha * x + y on the active backend.
template <std::floating_point T, int N>
void axpy_aos(const MultiFloat<T, N>& alpha, const MultiFloat<T, N>* x,
              MultiFloat<T, N>* y, std::size_t n) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"axpy_aos\"}", n);
    detail::with_pack_width<T>([&](auto w) {
        kernels::axpy_aos<T, N, w()>(alpha, x, y, n);
    });
}

/// AoS x = x * alpha on the active backend.
template <std::floating_point T, int N>
void scal_aos(const MultiFloat<T, N>& alpha, MultiFloat<T, N>* x, std::size_t n) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"scal_aos\"}", n);
    detail::with_pack_width<T>([&](auto w) {
        kernels::scal_aos<T, N, w()>(alpha, x, n);
    });
}

/// AoS <x, y> on the active backend.
template <std::floating_point T, int N>
[[nodiscard]] MultiFloat<T, N> dot_aos(const MultiFloat<T, N>* x,
                                       const MultiFloat<T, N>* y, std::size_t n) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"dot_aos\"}", n);
    return detail::with_pack_width<T>([&](auto w) {
        return kernels::dot_aos<T, N, w()>(x, y, n);
    });
}

/// AoS index of the largest magnitude on the active backend.
template <std::floating_point T, int N>
[[nodiscard]] std::size_t iamax_aos(const MultiFloat<T, N>* x, std::size_t n) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"iamax_aos\"}", n);
    return detail::with_pack_width<T>([&](auto w) {
        return kernels::iamax_aos<T, N, w()>(x, n);
    });
}

}  // namespace mf::simd
