#pragma once
// Runtime dispatch from the active Backend to width-templated pack kernels.
//
// The switch compiles one instantiation per backend that pack.hpp compiled
// native packs for (guarded by the same MF_SIMD_HAVE_* macros), plus the
// always-present scalar fallback, and jumps to the one active_backend()
// names. The branch is per kernel call, not per element. Each entry below
// also counts its elements once in mf_simd_kernel_ops_total{kernel=...};
// a caller issuing many short calls resolves the width once with
// with_active_width, calls the kernels:: templates directly, and counts its
// own total (blas::ger, planar::gemv). There is one entry per operation;
// its operands are layout accessors (layout.hpp), and the series it counts
// in keeps the name the operation's planar or AoS kernel had.

#include <cstddef>
#include <string>
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

/// mf_simd_kernel_ops_total{kernel=...}: an operation's planar or AoS series
/// name, by the layout of its first operand.
template <typename X>
[[nodiscard]] std::string ops_series(const char* planar, const char* aos) {
    return std::string("mf_simd_kernel_ops_total{kernel=\"") +
           (X::interleaved ? aos : planar) + "\"}";
}

/// Invoke f(integral_constant<int, W>) with the active backend's pack width
/// for base type T. Only widths whose native packs are compiled
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

/// z = x + y elementwise on the active backend.
template <typename X, typename Y, typename Z>
void add(const X& x, const Y& y, const Z& z, std::size_t n) {
    MF_TELEM_COUNT_N(detail::ops_series<X>("add_range", "add_aos"), n);
    detail::with_pack_width<typename X::value_type>(
        [&](auto w) { kernels::add<w()>(x, y, z, n); });
}

/// y = alpha * x + y elementwise on the active backend.
template <typename X, typename Y>
void axpy(const kernels::Element<X>& alpha, const X& x, const Y& y, std::size_t n) {
    MF_TELEM_COUNT_N(detail::ops_series<X>("fma_range", "axpy_aos"), n);
    detail::with_pack_width<typename X::value_type>(
        [&](auto w) { kernels::axpy<w()>(alpha, x, y, n); });
}

/// x = x * alpha elementwise on the active backend.
template <typename X>
void scal(const kernels::Element<X>& alpha, const X& x, std::size_t n) {
    MF_TELEM_COUNT_N(detail::ops_series<X>("scal", "scal_aos"), n);
    detail::with_pack_width<typename X::value_type>(
        [&](auto w) { kernels::scal<w()>(alpha, x, n); });
}

/// <x, y> on the active backend.
template <typename X, typename Y>
[[nodiscard]] kernels::Element<X> dot(const X& x, const Y& y, std::size_t n) {
    MF_TELEM_COUNT_N(detail::ops_series<X>("dot", "dot_aos"), n);
    return detail::with_pack_width<typename X::value_type>(
        [&](auto w) { return kernels::dot<w()>(x, y, n); });
}

/// Index of the largest magnitude on the active backend.
template <typename X>
[[nodiscard]] std::size_t iamax(const X& x, std::size_t n) {
    MF_TELEM_COUNT_N(detail::ops_series<X>("iamax", "iamax_aos"), n);
    return detail::with_pack_width<typename X::value_type>(
        [&](auto w) { return kernels::iamax<w()>(x, n); });
}

}  // namespace mf::simd
