// fft_roundtrip: forward radix-2 FFT then the inverse on 4096 points of
// mf::Complex<double, 3>, single-threaded, scalar AoS mf arithmetic only (no
// blas, no simd dispatch, no engine). The twiddle table is built in set-up
// with mf::sin / mf::cos of exact dyadic angles. The round trip must return
// the input: correct_bits is -log2 of the worst component error relative to
// the largest input magnitude.

#include <algorithm>

#include "bench.hpp"

namespace perfbench {
namespace {

using F = mf::Float64x3;
using C = mf::Complex<double, 3>;
constexpr int kLog2N = 12;
constexpr std::size_t kN = std::size_t{1} << kLog2N;
/// Correctness floor in bits: the round trip keeps ~150 of Float64x3's 161.
constexpr double kFloorBits = 140.0;
/// Extended ops per butterfly: complex mul (4 mul + 2 add/sub) + u+v + u-v.
constexpr double kOpsPerButterfly = 10.0;

class FftRoundtrip final : public Workload {
public:
    explicit FftRoundtrip(std::uint64_t seed) : x0_(kN), z_(kN), w_(kN / 2) {
        std::mt19937_64 rng(seed);
        for (C& v : x0_) {
            v.re = random_mf<3>(rng, -1.0, 1.0);
            v.im = random_mf<3>(rng, -1.0, 1.0);
        }
        // w[k] = exp(-2 pi i k / n); k / n is an exact dyadic fraction.
        const F two_pi = mf::ldexp(mf::pi<double, 3>(), 1);
        for (std::size_t k = 0; k < kN / 2; ++k) {
            const F ang = mf::mul(two_pi, F(static_cast<double>(k) / kN));
            w_[k] = C(mf::cos(ang), -mf::sin(ang));
        }
        for (const C& v : x0_) {
            scale_ = std::max({scale_, std::fabs(v.re.limb[0]), std::fabs(v.im.limb[0])});
        }
    }

    void prepare() override { z_ = x0_; }

    void call(Tracer* tr) override {
        transform(tr, false);
        transform(tr, true);
        Span s(tr, "fft.scale", kN);
        for (C& v : z_) v = C(mf::ldexp(v.re, -kLog2N), mf::ldexp(v.im, -kLog2N));
    }

    Check check() override {
        double worst = 0.0;
        for (std::size_t i = 0; i < kN; ++i) {
            const double er = mf::sub(z_[i].re, x0_[i].re).limb[0];
            const double ei = mf::sub(z_[i].im, x0_[i].im).limb[0];
            const double e = std::fmax(std::fabs(er), std::fabs(ei));
            worst = std::isnan(e) ? e : std::fmax(worst, e);
        }
        const double bits = bits_of(worst / scale_, F::precision);
        return {bits >= kFloorBits, bits};
    }

    void corrupt() override {
        double& v = z_[kN / 3].re.limb[0];
        v = flip_last_bit(v);
    }

    double ops_per_call() const override {
        return 2.0 * (kN / 2) * kLog2N * kOpsPerButterfly;
    }

private:
    /// In-place iterative radix-2 DIT FFT; the inverse uses conj(w) and
    /// leaves the 1/n scaling to the caller.
    void transform(Tracer* tr, bool inverse) {
        {
            Span s(tr, "fft.bitrev", kN);
            for (std::size_t i = 1, j = 0; i < kN; ++i) {
                std::size_t bit = kN >> 1;
                for (; j & bit; bit >>= 1) j ^= bit;
                j ^= bit;
                if (i < j) std::swap(z_[i], z_[j]);
            }
        }
        for (std::size_t len = 2; len <= kN; len <<= 1) {
            Span s(tr, "fft.butterfly", kN / 2);
            const std::size_t half = len / 2;
            const std::size_t step = kN / len;
            for (std::size_t i = 0; i < kN; i += len) {
                for (std::size_t k = 0; k < half; ++k) {
                    const C& tw = w_[k * step];
                    const C w = inverse ? C(tw.re, -tw.im) : tw;
                    const C u = z_[i + k];
                    const C v = z_[i + k + half] * w;
                    z_[i + k] = u + v;
                    z_[i + k + half] = u - v;
                }
            }
        }
    }

    std::vector<C> x0_, z_, w_;
    double scale_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_fft_roundtrip(std::uint64_t seed) {
    return std::make_unique<FftRoundtrip>(seed);
}

}  // namespace perfbench
