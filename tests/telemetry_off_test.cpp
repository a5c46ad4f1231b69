// Compiled-out telemetry: built only when the MF_TELEMETRY CMake option is
// OFF (see tests/CMakeLists.txt), where MF_TELEMETRY_ENABLED is 0 for the
// whole build. It proves the zero-overhead-when-off contract:
//
//   1. every MF_TELEM_* macro expands to ((void)0) -- demonstrated the
//      strongest way possible, by running instrumented code paths inside
//      constant evaluation, where any residual registry call, static local
//      or clock read would be a compile error;
//   2. arithmetic through the instrumented kernels registers NOTHING in the
//      process registry (which itself stays linkable: exporters and tools
//      use the registry API unconditionally).

#include <gtest/gtest.h>

#include "blas/engine/gemm_packed.hpp"
#include "mf/multifloats.hpp"
#include "telemetry/telemetry.hpp"

static_assert(MF_TELEMETRY_ENABLED == 0,
              "this test belongs to the MF_TELEMETRY=OFF build only");

namespace {

// Instrumented macros inside a constexpr function: only legal because they
// vanish. With telemetry ON this function would not compile (static locals
// and registry calls are not constant-evaluable).
constexpr int probe() {
    MF_TELEM_COUNT("off_probe_total");
    MF_TELEM_COUNT_N("off_probe_n_total", 3);
    MF_TELEM_HIST("off_probe_hist", 17);
    MF_TELEM_SPAN("off_probe_span");
    MF_TELEM_SPAN_TIMED("off_probe_span_timed", "off_probe_timed_hist");
    return 7;
}
static_assert(probe() == 7, "macros must vanish inside constant evaluation");

// The arithmetic kernels must stay constexpr-usable.
constexpr double constexpr_renorm_result() {
    using MF2 = mf::MultiFloat<double, 2>;
    const MF2 s = mf::add(MF2(1.0), MF2(0x1p-70));
    return s.limb[0];
}
static_assert(constexpr_renorm_result() == 1.0);

TEST(TelemetryOff, InstrumentedArithmeticRegistersNothing) {
    using namespace mf::telemetry;
    Registry::instance().reset();
    Registry::instance().set_trace_enabled(true);

    // Drive the scalar core (networks, IEEE wrappers, Newton div/sqrt) and
    // every instrumented layer: SIMD dispatch + kernels + the packed GEMM's
    // pack, micro-kernel and macro-panel counters and spans.
    using MF4 = mf::MultiFloat<double, 4>;
    const MF4 x(1.5), y(0x1p-80);
    (void)(x + y);
    (void)mf::add_ieee(x, y);
    (void)mf::div_ieee(x, MF4(0.0));
    (void)mf::sqrt(MF4(2.0));
    constexpr std::size_t n = 4;
    mf::planar::Vector<double, 4> a(n * n), b(n * n), c(n * n);
    for (std::size_t i = 0; i < n * n; ++i) {
        a.set(i, MF4(1.0 + double(i)));
        b.set(i, MF4(2.0));
    }
    mf::blas::gemm_packed(mf::planar::matrix_view(a, n, n),
                          mf::planar::matrix_view(b, n, n),
                          mf::planar::matrix_view(c, n, n));

    Registry::instance().set_trace_enabled(false);
    const Snapshot snap = Registry::instance().snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.histograms.empty());
    EXPECT_TRUE(snap.spans.empty());
}

TEST(TelemetryOff, RegistryApiStillWorks) {
    // The registry is mode-independent: tools that link it must keep working
    // in OFF builds (they just see whatever was explicitly registered).
    using namespace mf::telemetry;
    Registry::instance().reset();
    const CounterId id = Registry::instance().counter("off_manual_total");
    Registry::instance().add(id, 4);
    const Snapshot snap = Registry::instance().snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].name, "off_manual_total");
    EXPECT_EQ(snap.counters[0].value, 4u);
}

}  // namespace
