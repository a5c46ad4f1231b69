#include "checker.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "../bigfloat/bigfloat.hpp"
#include "../softfloat/softfloat.hpp"
#include "executor.hpp"
#include "library.hpp"

namespace mf::fpan {

using big::BigFloat;
using soft::SoftFloat;

int paper_add_bound_bits(int n, int p) { return n == 2 ? 2 * p - 1 : n * p - n; }
int paper_mul_bound_bits(int n, int p) { return n == 2 ? 2 * p - 3 : n * p - n; }

namespace {

// ---------------------------------------------------------------------------
// Shared bookkeeping.
// ---------------------------------------------------------------------------

void record_error(CheckResult& res, const BigFloat& err, const BigFloat& exact,
                  int bound_bits) {
    if (err.is_zero()) return;
    if (exact.is_zero()) {
        res.pass = false;
        res.note = "nonzero error against exactly-zero result";
        return;
    }
    // rel = |err| / |exact|, compared against 2^-bound_bits.
    const BigFloat rel = BigFloat::div(err.abs(), exact.abs(), 64);
    const double l2 = static_cast<double>(rel.ilogb()) +
                      std::log2(std::abs(rel.to_double()) /
                                std::ldexp(1.0, static_cast<int>(rel.ilogb())));
    if (l2 > res.worst_err_log2) res.worst_err_log2 = l2;
    if (l2 > -static_cast<double>(bound_bits)) res.pass = false;
}

/// Nonoverlap audit of an output expansion given as doubles (MSB first).
void record_overlap(CheckResult& res, std::span<const double> z, int p) {
    for (std::size_t i = 1; i < z.size(); ++i) {
        const double hi = z[i - 1];
        const double lo = z[i];
        if (hi == 0.0) {
            if (lo != 0.0) {
                res.worst_overlap_bits = std::max(res.worst_overlap_bits, p);
                res.pass = false;
            }
            continue;
        }
        if (lo == 0.0) continue;
        const int gap = std::ilogb(hi) - std::ilogb(lo);
        int viol = p - gap;
        // |lo| == 2^(ilogb(hi) - p) exactly is allowed by Eq. 8.
        if (viol == 0 && std::abs(lo) == std::ldexp(1.0, std::ilogb(lo))) viol = -1;
        if (viol > 0) {
            res.worst_overlap_bits = std::max(res.worst_overlap_bits, viol);
            res.pass = false;
        }
    }
}

// ---------------------------------------------------------------------------
// Randomized double-precision campaigns (oracle: BigFloat).
// ---------------------------------------------------------------------------

/// Random nonoverlapping n-term expansion with assorted gap/sign/zero
/// patterns. Produced directly (not via the library's own add) so the checker
/// is independent of the code under test.
std::vector<double> random_expansion(std::mt19937_64& rng, int n) {
    std::uniform_real_distribution<double> u(1.0, 2.0);
    std::uniform_int_distribution<int> lead(-30, 30);
    std::uniform_int_distribution<int> gapd(0, 12);
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    int e = lead(rng);
    for (int i = 0; i < n; ++i) {
        if (i > 0 && rng() % 6 == 0) break;  // zero tail
        const double m = u(rng) * (rng() % 2 ? 1.0 : -1.0);
        x[static_cast<std::size_t>(i)] = std::ldexp(m, e);
        e -= 53 + gapd(rng) + (rng() % 3 == 0 ? 53 : 0);  // tight or sparse
    }
    // Enforce strict nonoverlap: |lo| < (1/2) ulp(hi), with the boundary
    // value |lo| == (1/2) ulp(hi) (an exact power of two) mixed in.
    for (int i = 1; i < n; ++i) {
        const double hi = x[static_cast<std::size_t>(i - 1)];
        double& lo = x[static_cast<std::size_t>(i)];
        if (hi == 0.0) {
            lo = 0.0;
            continue;
        }
        if (lo == 0.0) continue;
        const int cap = std::ilogb(hi) - 54;
        if (std::ilogb(lo) > cap) {
            lo = std::ldexp(lo, cap - std::ilogb(lo));
        }
        if (rng() % 17 == 0) lo = std::copysign(std::ldexp(1.0, cap + 1), lo);
    }
    return x;
}

BigFloat exact_sum(std::span<const double> v) {
    BigFloat acc;
    for (double d : v) acc = acc + BigFloat::from_double(d);
    return acc;
}

}  // namespace

namespace {

CheckResult run_add_random(const Network& net, int n, long long trials,
                           std::uint64_t seed, int bound_bits, bool stop_on_fail) {
    CheckResult res;
    std::mt19937_64 rng(seed);
    std::vector<double> wires(static_cast<std::size_t>(net.num_wires));
    for (long long t = 0; t < trials && (res.pass || !stop_on_fail); ++t) {
        std::vector<double> x = random_expansion(rng, n);
        std::vector<double> y = random_expansion(rng, n);
        if (t % 5 == 1) {
            // Massive-cancellation adversary: y = -x perturbed in one limb.
            y = x;
            for (double& l : y) l = -l;
            const auto k = static_cast<std::size_t>(rng() % static_cast<unsigned>(n));
            if (y[k] != 0.0) {
                y[k] = std::nextafter(y[k], rng() % 2 ? 1e308 : -1e308);
            }
        }
        for (int i = 0; i < n; ++i) {
            wires[static_cast<std::size_t>(2 * i)] = x[static_cast<std::size_t>(i)];
            wires[static_cast<std::size_t>(2 * i + 1)] = y[static_cast<std::size_t>(i)];
        }
        const BigFloat exact = exact_sum(x) + exact_sum(y);
        execute(net, std::span<double>(wires));
        std::vector<double> z;
        z.reserve(net.outputs.size());
        for (int o : net.outputs) z.push_back(wires[static_cast<std::size_t>(o)]);
        const BigFloat err = exact_sum(z) - exact;
        record_error(res, err, exact, bound_bits);
        record_overlap(res, z, 53);
        ++res.cases;
    }
    return res;
}

}  // namespace

CheckResult check_add_random(const Network& net, int n, long long trials,
                             std::uint64_t seed, int bound_bits) {
    return run_add_random(net, n, trials, seed, bound_bits, /*stop_on_fail=*/true);
}

CheckResult measure_add_random(const Network& net, int n, long long trials,
                               std::uint64_t seed, int bound_bits) {
    return run_add_random(net, n, trials, seed, bound_bits, /*stop_on_fail=*/false);
}

CheckResult check_mul_random(const Network& net, int n, long long trials,
                             std::uint64_t seed, int bound_bits) {
    CheckResult res;
    std::mt19937_64 rng(seed);
    std::vector<double> wires(static_cast<std::size_t>(net.num_wires));
    const auto labels = mul_network_labels(n);
    for (long long t = 0; t < trials && res.pass; ++t) {
        const std::vector<double> x = random_expansion(rng, n);
        const std::vector<double> y = random_expansion(rng, n);
        expand_mul_wires(labels, x, y, wires);
        const BigFloat exact = exact_sum(x) * exact_sum(y);
        execute(net, std::span<double>(wires));
        std::vector<double> z;
        z.reserve(net.outputs.size());
        for (int o : net.outputs) z.push_back(wires[static_cast<std::size_t>(o)]);
        const BigFloat err = exact_sum(z) - exact;
        record_error(res, err, exact, bound_bits);
        record_overlap(res, z, 53);
        ++res.cases;
    }
    return res;
}

// ---------------------------------------------------------------------------
// Exhaustive small-p campaigns (SoftFloat; exact accumulation at high p).
// ---------------------------------------------------------------------------

namespace {

/// All p-bit SoftFloats (plus zero) with leading exponent in [emin, emax].
std::vector<SoftFloat> all_values(int p, int emin, int emax) {
    std::vector<SoftFloat> out;
    soft::for_each_value(p, emin, emax, [&](const SoftFloat& v) { out.push_back(v); });
    return out;
}

/// All nonoverlapping n-term expansions with leading exponent in
/// [lead_min, lead_max] and tails reaching tail_depth exponents below each
/// limb's cap. Zero limbs truncate the expansion (per Eq. 8).
void enumerate_expansions(int n, int p, int lead_min, int lead_max, int tail_depth,
                          std::vector<std::vector<SoftFloat>>& out) {
    std::vector<SoftFloat> leads = all_values(p, lead_min, lead_max);
    std::vector<std::vector<SoftFloat>> partial;
    for (const auto& l : leads) partial.push_back({l});
    for (int i = 1; i < n; ++i) {
        std::vector<std::vector<SoftFloat>> next;
        for (const auto& e : partial) {
            const SoftFloat& prev = e.back();
            auto with_zero = e;
            with_zero.push_back(SoftFloat(p));
            next.push_back(std::move(with_zero));
            if (prev.is_zero()) continue;
            const std::int64_t cap = prev.ilogb() - p;  // boundary exponent
            for (const auto& v :
                 all_values(p, cap - tail_depth, cap)) {
                if (v.is_zero()) continue;
                // At the boundary exponent only exact powers of two qualify.
                if (v.ilogb() == cap &&
                    (v.mantissa() & (v.mantissa() - 1)) != 0) {
                    continue;
                }
                auto grown = e;
                grown.push_back(v);
                next.push_back(std::move(grown));
            }
        }
        partial = std::move(next);
    }
    out = std::move(partial);
}

/// Exact sum of small SoftFloats via a high-precision SoftFloat accumulator.
SoftFloat exact_sum_soft(std::span<const SoftFloat> v) {
    SoftFloat acc(62);
    for (const auto& s : v) {
        acc = acc + SoftFloat::make(62, s.sign(), s.mantissa(), s.exponent());
    }
    return acc;
}

void record_soft_case(CheckResult& res, std::span<const SoftFloat> z,
                      const SoftFloat& exact, int p, int bound_bits) {
    const SoftFloat err = exact_sum_soft(z) - exact;
    if (!err.is_zero()) {
        if (exact.is_zero()) {
            res.pass = false;
            res.note = "nonzero error against exactly-zero result";
        } else {
            const auto l2 = static_cast<double>(err.ilogb() - exact.ilogb());
            if (l2 > res.worst_err_log2) res.worst_err_log2 = l2;
            // Conservative: compare leading-bit exponents with 1-bit slack.
            if (err.ilogb() > exact.ilogb() - bound_bits) {
                // Refine: scale err by 2^bound and compare magnitudes.
                const SoftFloat scaled = SoftFloat::make(
                    62, 1, err.mantissa(), err.exponent() + bound_bits);
                SoftFloat ae = scaled;
                if (ae.sign() < 0) ae = -ae;
                SoftFloat ax = exact;
                if (ax.sign() < 0) ax = -ax;
                if (cmp(ax, ae) < 0) res.pass = false;
            }
        }
    }
    // Nonoverlap.
    for (std::size_t i = 1; i < z.size(); ++i) {
        const SoftFloat& hi = z[i - 1];
        const SoftFloat& lo = z[i];
        if (hi.is_zero()) {
            if (!lo.is_zero()) {
                res.worst_overlap_bits = std::max(res.worst_overlap_bits, p);
                res.pass = false;
            }
            continue;
        }
        if (lo.is_zero()) continue;
        const auto gap = static_cast<int>(hi.ilogb() - lo.ilogb());
        int viol = p - gap;
        if (viol == 0 && (lo.mantissa() & (lo.mantissa() - 1)) == 0) viol = -1;
        if (viol > 0) {
            res.worst_overlap_bits = std::max(res.worst_overlap_bits, viol);
            res.pass = false;
        }
    }
    ++res.cases;
}

}  // namespace

namespace {

/// Run the exhaustive campaign over every (x, y) expansion pair: `load(x, y,
/// wires)` lays the pair out on the wires and returns the exact result. The
/// outer x loop is split over the host's CPUs, one x at a time, and the per-x
/// results are merged in x order, so the verdict, `cases` and note are the
/// serial loop's: the reported failure is the lowest case index.
template <typename Load>
CheckResult run_exhaustive(const Network& net, int n, int p, int y_exp_range, int tail_depth,
                           int bound_bits, const Load& load) {
    std::vector<std::vector<SoftFloat>> xs;
    std::vector<std::vector<SoftFloat>> ys;
    // Scale invariance: pin x's leading exponent to 0.
    enumerate_expansions(n, p, 0, 0, tail_depth, xs);
    enumerate_expansions(n, p, -y_exp_range, y_exp_range, tail_depth, ys);

    std::vector<CheckResult> per_x(xs.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> first_fail{xs.size()};
    const auto worker = [&] {
        std::vector<SoftFloat> wires(static_cast<std::size_t>(net.num_wires), SoftFloat(p));
        std::vector<SoftFloat> z(static_cast<std::size_t>(n), SoftFloat(p));
        for (std::size_t i = next++; i < xs.size() && i < first_fail.load(); i = next++) {
            CheckResult& res = per_x[i];
            for (const auto& y : ys) {
                const SoftFloat exact = load(xs[i], y, wires);
                execute(net, std::span<SoftFloat>(wires));
                for (std::size_t k = 0; k < net.outputs.size(); ++k) {
                    z[k] = wires[static_cast<std::size_t>(net.outputs[k])];
                }
                record_soft_case(res, z, exact, p, bound_bits);
                if (!res.pass) break;
            }
            if (!res.pass) {
                std::size_t seen = first_fail.load();
                while (i < seen && !first_fail.compare_exchange_weak(seen, i)) {
                }
            }
        }
    };
    const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t threads = std::min(cpus, xs.size());
    std::vector<std::jthread> team;
    for (std::size_t t = 1; t < threads; ++t) team.emplace_back(worker);
    worker();
    team.clear();

    // Every x below the lowest failing one was run to the end.
    CheckResult res;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const CheckResult& r = per_x[i];
        res.cases += r.cases;
        res.worst_err_log2 = std::max(res.worst_err_log2, r.worst_err_log2);
        res.worst_overlap_bits = std::max(res.worst_overlap_bits, r.worst_overlap_bits);
        if (!r.pass) {
            res.pass = false;
            std::ostringstream os;
            os << "first failure: x/y expansion case #" << res.cases;
            res.note = os.str();
            break;
        }
    }
    return res;
}

}  // namespace

CheckResult check_add_exhaustive(const Network& net, int n, int p, int y_exp_range,
                                 int tail_depth) {
    return run_exhaustive(
        net, n, p, y_exp_range, tail_depth, paper_add_bound_bits(n, p),
        [n](const std::vector<SoftFloat>& x, const std::vector<SoftFloat>& y,
            std::vector<SoftFloat>& wires) {
            for (int i = 0; i < n; ++i) {
                wires[static_cast<std::size_t>(2 * i)] = x[static_cast<std::size_t>(i)];
                wires[static_cast<std::size_t>(2 * i + 1)] = y[static_cast<std::size_t>(i)];
            }
            return exact_sum_soft(x) + exact_sum_soft(y);
        });
}

CheckResult check_mul_exhaustive(const Network& net, int n, int p, int y_exp_range,
                                 int tail_depth) {
    const auto labels = mul_network_labels(n);
    return run_exhaustive(
        net, n, p, y_exp_range, tail_depth, paper_mul_bound_bits(n, p),
        [&labels](const std::vector<SoftFloat>& x, const std::vector<SoftFloat>& y,
                  std::vector<SoftFloat>& wires) {
            expand_mul_wires(labels, x, y, wires);
            return exact_sum_soft(x) * exact_sum_soft(y);
        });
}

}  // namespace mf::fpan
