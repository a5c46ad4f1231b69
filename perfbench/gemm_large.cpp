// gemm_large: repeated C += A B through blas::gemm_packed on planar
// Float64x2 matrices, n = 512, the library's default worker count.
//
// Reference: the same product from public scalar mf::add / mf::mul in
// kk-ascending order, the update order gemm_packed promises, so every call
// must match it bit for bit. correct_bits comes from a BigFloat oracle on a
// seeded sample of C entries.

#include <algorithm>
#include <cstring>

#include "bench.hpp"
#include "check/oracle.hpp"

namespace perfbench {
namespace {

using F = mf::Float64x2;
constexpr int kLimbs = F::num_limbs;
constexpr std::size_t kN = 512;
constexpr int kOracleSamples = 16;
/// Correctness floor in bits for the oracle sample (observed ~102.5-103).
constexpr double kFloorBits = 90.0;

class GemmLarge final : public Workload {
public:
    explicit GemmLarge(std::uint64_t seed) : a_(kN * kN), b_(kN * kN), c0_(kN * kN) {
        std::mt19937_64 rng(seed);
        for (std::size_t i = 0; i < kN * kN; ++i) {
            a_.set(i, random_mf<kLimbs>(rng, 1.0, 2.0));
            b_.set(i, random_mf<kLimbs>(rng, 1.0, 2.0));
            c0_.set(i, random_mf<kLimbs>(rng, 1.0, 2.0));
        }
        c_ = c0_;
        ref_ = c0_;
        for (std::size_t i = 0; i < kN; ++i) {
            double* r0 = ref_.plane(0) + i * kN;
            double* r1 = ref_.plane(1) + i * kN;
            for (std::size_t kk = 0; kk < kN; ++kk) {
                const F aik = a_.get(i * kN + kk);
                const double* b0 = b_.plane(0) + kk * kN;
                const double* b1 = b_.plane(1) + kk * kN;
                for (std::size_t j = 0; j < kN; ++j) {
                    const F r = mf::add(mf::mul(aik, F({b0[j], b1[j]})), F({r0[j], r1[j]}));
                    r0[j] = r.limb[0];
                    r1[j] = r.limb[1];
                }
            }
        }
        std::uniform_int_distribution<std::size_t> pick(0, kN - 1);
        for (int s = 0; s < kOracleSamples; ++s) {
            const std::size_t i = pick(rng);
            const std::size_t j = pick(rng);
            mf::check::BigFloat want = mf::check::exact(c0_.get(i * kN + j));
            for (std::size_t kk = 0; kk < kN; ++kk) {
                want = want + mf::check::exact(a_.get(i * kN + kk)) *
                                  mf::check::exact(b_.get(kk * kN + j));
            }
            samples_.push_back({i * kN + j, want});
        }
    }

    void prepare() override {
        for (int p = 0; p < kLimbs; ++p) {
            std::copy_n(c0_.plane(p), kN * kN, c_.plane(p));
        }
    }

    void call(Tracer* tr) override {
        Span s(tr, "engine.gemm_packed", kN * kN * kN);
        mf::blas::gemm_packed(mf::planar::matrix_view(a_, kN, kN),
                              mf::planar::matrix_view(b_, kN, kN),
                              mf::planar::matrix_view(c_, kN, kN));
    }

    Check check() override {
        bool same = true;
        for (int p = 0; p < kLimbs; ++p) {
            same = same && std::memcmp(c_.plane(p), ref_.plane(p),
                                       kN * kN * sizeof(double)) == 0;
        }
        double worst = -1e300;
        for (const Sample& s : samples_) {
            worst = std::max(worst, mf::check::rel_err_log2(c_.get(s.at), s.want));
        }
        const double bits = std::fmin(F::precision, -worst);
        return {same && bits >= kFloorBits, bits};
    }

    void corrupt() override {
        double& v = c_.plane(0)[kN * kN / 3];
        v = flip_last_bit(v);
    }

    double ops_per_call() const override { return 2.0 * kN * kN * kN; }

private:
    struct Sample {
        std::size_t at;
        mf::check::BigFloat want;
    };
    mf::planar::Vector<double, kLimbs> a_, b_, c0_, c_, ref_;
    std::vector<Sample> samples_;
};

}  // namespace

std::unique_ptr<Workload> make_gemm_large(std::uint64_t seed) {
    return std::make_unique<GemmLarge>(seed);
}

}  // namespace perfbench
