#pragma once
// Instrumentation macros. This is the ONLY header the instrumented layers
// include, and the only one whose contents depend on the compile mode:
//
//   * MF_TELEMETRY defined non-zero (the CMake MF_TELEMETRY option, default
//     ON) -> macros record into the registry;
//   * otherwise -> every macro expands to ((void)0). No registry call, no
//     clock read, no static -- the instrumented function compiles to the
//     identical code it had before instrumentation
//     (tests/telemetry_off_test.cpp, built when MF_TELEMETRY is OFF, proves
//     the macros vanish even inside constant evaluation).
//
// Name-resolution cost discipline when ON: MF_TELEM_COUNT/HIST take a name
// *expression* (evaluated lazily in a capture-free lambda) and cache the
// resolved id in one function-local static per call site / template
// instantiation. The name expression -- including any std::string
// construction -- runs exactly once per site; the steady-state cost of a
// count is a thread-local relaxed load/store pair.
//
// Granularity: macros sit at kernel, range, call or tile level, never inside
// one extended-precision operation. The arithmetic core (src/mf/ except the
// mf.hpp umbrella, and src/fpan/gates.hpp) includes no telemetry header, so
// it stays straight-line, constexpr and vectorizable in both modes. A
// constexpr function must not use these macros: ON, they are not
// constant-evaluable.

#include <cstdint>
#include <type_traits>

#include "registry.hpp"

#if defined(MF_TELEMETRY) && MF_TELEMETRY
#define MF_TELEMETRY_ENABLED 1
#else
#define MF_TELEMETRY_ENABLED 0
#endif

#define MF_TELEM_CAT2(a, b) a##b
#define MF_TELEM_CAT(a, b) MF_TELEM_CAT2(a, b)

#if MF_TELEMETRY_ENABLED

namespace mf::telemetry::detail {

/// Clamp an observation to the histogram's uint64 domain: negatives, NaN and
/// non-arithmetic junk land in bucket 0 rather than wrapping.
[[nodiscard]] inline std::uint64_t clamp_value(double v) noexcept {
    if (!(v > 0.0)) return 0;  // NaN, zero, negative
    if (v >= 18446744073709551615.0) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(v);
}
template <typename I>
    requires std::is_integral_v<I>
[[nodiscard]] inline std::uint64_t clamp_value(I v) noexcept {
    if constexpr (std::is_signed_v<I>) {
        return v < 0 ? 0 : static_cast<std::uint64_t>(v);
    } else {
        return static_cast<std::uint64_t>(v);
    }
}

/// Per-call-site counter bump: NameFn is a distinct (capture-free) lambda
/// type per macro expansion, so the `static` below is one id cache per site
/// and per template instantiation. The lambda body -- the only place a name
/// string is built -- runs once, inside the thread-safe static initializer.
template <typename NameFn>
inline void count_site(NameFn name, std::uint64_t n) {
    static const CounterId id = Registry::instance().counter(name());
    Registry::instance().add(id, n);
}

template <typename NameFn>
inline void observe_site(NameFn name, std::uint64_t v) {
    static const HistogramId id = Registry::instance().histogram(name());
    Registry::instance().observe(id, v);
}

}  // namespace mf::telemetry::detail

namespace mf::telemetry {

/// RAII span: times a scope for the chrome trace (when tracing is enabled)
/// and/or a latency histogram (when a valid id is passed). Reads the clock
/// only if at least one of the two sinks wants the measurement.
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name, HistogramId hist = {}) noexcept
        : name_(name), hist_(hist), trace_(Registry::instance().trace_enabled()) {
        if (trace_ || hist_.idx >= 0) t0_ = Registry::instance().now_ns();
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ~ScopedSpan() {
        if (!trace_ && hist_.idx < 0) return;
        const std::uint64_t t1 = Registry::instance().now_ns();
        if (trace_) Registry::instance().record_span(name_, t0_, t1);
        if (hist_.idx >= 0) Registry::instance().observe(hist_, t1 - t0_);
    }

private:
    const char* name_;
    HistogramId hist_;
    bool trace_;
    std::uint64_t t0_ = 0;
};

}  // namespace mf::telemetry

/// Add `n` to the counter named by `name_expr` (any expression convertible
/// to std::string_view; evaluated once per call site).
#define MF_TELEM_COUNT_N(name_expr, n)                                      \
    ::mf::telemetry::detail::count_site([] { return (name_expr); },         \
                                        static_cast<std::uint64_t>(n))

#define MF_TELEM_COUNT(name_expr) MF_TELEM_COUNT_N(name_expr, 1)

/// Counter with a runtime-computed name (labels depending on runtime values).
/// Pays a registry lookup per call -- cold paths only (backend selection,
/// override handling), never inside kernels.
#define MF_TELEM_COUNT_DYN(name_expr, n)                                 \
    do {                                                                 \
        ::mf::telemetry::Registry& mf_telem_reg_ =                       \
            ::mf::telemetry::Registry::instance();                       \
        mf_telem_reg_.add(mf_telem_reg_.counter(name_expr),              \
                          static_cast<std::uint64_t>(n));                \
    } while (0)

/// Record `value` (clamped to [0, 2^64)) into the log2-bucketed histogram
/// named by `name_expr`.
#define MF_TELEM_HIST(name_expr, value)                              \
    ::mf::telemetry::detail::observe_site(                           \
        [] { return (name_expr); }, ::mf::telemetry::detail::clamp_value(value))

/// Trace-only scope span (statement context; declares an RAII local).
#define MF_TELEM_SPAN(name_literal)                 \
    ::mf::telemetry::ScopedSpan MF_TELEM_CAT(       \
        mf_telem_span_, __LINE__)(name_literal)

/// Scope span that also feeds a latency histogram (resolved once per site).
#define MF_TELEM_SPAN_TIMED(name_literal, hist_name_expr)                        \
    static const ::mf::telemetry::HistogramId MF_TELEM_CAT(mf_telem_hist_,       \
                                                           __LINE__) =           \
        ::mf::telemetry::Registry::instance().histogram(hist_name_expr);         \
    ::mf::telemetry::ScopedSpan MF_TELEM_CAT(mf_telem_span_, __LINE__)(          \
        name_literal, MF_TELEM_CAT(mf_telem_hist_, __LINE__))

#else  // !MF_TELEMETRY_ENABLED -- every macro vanishes.

#define MF_TELEM_COUNT_N(name_expr, n) ((void)0)
#define MF_TELEM_COUNT(name_expr) ((void)0)
#define MF_TELEM_COUNT_DYN(name_expr, n) ((void)0)
#define MF_TELEM_HIST(name_expr, value) ((void)0)
#define MF_TELEM_SPAN(name_literal) ((void)0)
#define MF_TELEM_SPAN_TIMED(name_literal, hist_name_expr) ((void)0)

#endif  // MF_TELEMETRY_ENABLED
