#pragma once
// Shared pieces of the repository benchmark: the workload interface, the
// benchmark's own span recorder, and seeded input generation.
//
// Every workload drives the library through its public API only (mf::,
// mf::blas::, mf::blas::gemm_packed). Spans are recorded here, in the
// benchmark's files, around each call into a layer; nothing in src/ is
// instrumented for the benchmark.

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "mf/mf.hpp"

namespace perfbench {

/// Clock shared with the library's own spans (telemetry registry epoch), so
/// benchmark spans and `gemm_macro_panel` spans land on one time axis.
[[nodiscard]] inline std::uint64_t now_ns() {
    return mf::telemetry::Registry::instance().now_ns();
}

/// One benchmark span. `parent` indexes the enclosing span (-1 for a call
/// root); `call` is the id of the timed call the span belongs to; `work` is
/// the element count of the layer call (madds for a GEMM, length for a
/// vector kernel), used for per-work rates and the small-call entry cost.
struct SpanRec {
    const char* name = "";
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    int parent = -1;
    int call = -1;
    std::uint64_t work = 0;
};

/// In-memory span recorder for the calling thread. Spans nest through an
/// explicit stack; the trace is written out only when the run ends.
class Tracer {
public:
    int begin(const char* name, std::uint64_t work) {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(SpanRec{name, now_ns(), 0, parent, call_, work});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }
    void end(int id) {
        spans_[static_cast<std::size_t>(id)].t1 = now_ns();
        stack_.pop_back();
    }
    void set_call(int call) { call_ = call; }
    [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }

private:
    std::vector<SpanRec> spans_;
    std::vector<int> stack_;
    int call_ = -1;
};

/// RAII span around one layer call; does nothing when `t` is null, so the
/// untraced run pays one branch per layer call.
class Span {
public:
    Span(Tracer* t, const char* name, std::uint64_t work = 0)
        : t_(t), id_(t ? t->begin(name, work) : -1) {}
    ~Span() {
        if (t_) t_->end(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer* t_;
    int id_;
};

/// Outcome of checking one call's output.
struct Check {
    bool ok = false;
    double bits = 0.0;  ///< -log2(relative error) against the reference
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Restore the inputs the next call consumes (outside the timed region).
    virtual void prepare() = 0;
    /// One timed call: one product, one solve or one round trip.
    virtual void call(Tracer* tr) = 0;
    /// Check the last call's output against the workload's reference.
    [[nodiscard]] virtual Check check() = 0;
    /// Flip the last bit of the leading limb of one output element (the
    /// checker self-test: the next check() must fail).
    virtual void corrupt() = 0;
    /// Extended add/sub/mul the last call requested (nominal count from the
    /// algorithm's structure; div/recip excluded).
    [[nodiscard]] virtual double ops_per_call() const = 0;
};

/// Builds the inputs and the reference; the warm-up call is the caller's.
std::unique_ptr<Workload> make_gemm_large(std::uint64_t seed);
std::unique_ptr<Workload> make_lu_solve(std::uint64_t seed);
std::unique_ptr<Workload> make_fft_roundtrip(std::uint64_t seed);

/// Random expansion: leading limb uniform on [lo, hi) (the magnitudes
/// bench::fill_value draws), every further limb a random fraction of half an
/// ulp of the limb above it, so the result is a valid nonoverlapping
/// expansion with random bits in every limb.
template <int N>
[[nodiscard]] mf::MultiFloat<double, N> random_mf(std::mt19937_64& rng, double lo,
                                                  double hi) {
    const auto unit = [&rng] { return static_cast<double>(rng() >> 11) * 0x1p-53; };
    mf::MultiFloat<double, N> x;
    x.limb[0] = lo + (hi - lo) * unit();
    for (int k = 1; k < N; ++k) {
        const double prev = x.limb[k - 1];
        const double half_ulp =
            prev == 0.0 ? 0.0 : std::ldexp(1.0, std::ilogb(prev) - 53);
        x.limb[k] = (2.0 * unit() - 1.0) * half_ulp;
    }
    return x;
}

/// Flip the last significand bit of a double.
[[nodiscard]] inline double flip_last_bit(double v) {
    return std::nextafter(v, v > 0 ? 0.0 : 1.0);
}

/// -log2 of a relative error, capped at `cap` bits for an exact result.
[[nodiscard]] inline double bits_of(double rel, double cap) {
    if (!(rel >= 0.0)) return 0.0;  // NaN: nothing correct
    if (rel == 0.0) return cap;
    return std::fmin(cap, -std::log2(rel));
}

}  // namespace perfbench
