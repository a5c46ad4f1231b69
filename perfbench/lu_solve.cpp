// lu_solve: solve A x = b in Float64x2 (AoS MultiFloat), n = 256, by
// right-looking blocked LU with partial pivoting (block size 32) and two
// triangular solves, using only public AoS mf::blas view calls:
//
//   panel        iamax, scal, ger          (spans blas.panel.*)
//   U12 solve    ger per panel row          (blas.trsm.ger)
//   trailing     gemm into scratch, then    (blas.gemm.gemm)
//                axpy(-1) row by row        (blas.update.axpy)
//   solves       dot per row                (blas.trsv.dot)
//
// A is row-major, so panel columns are gathered into a contiguous vector for
// iamax/scal and scattered back; that glue, the row swaps, the pivot
// reciprocals and the back-substitution divisions are the benchmark's own
// scalar work (lu.scalar). blas::gemm overwrites C, hence the scratch block.
//
// Reference: x_true is drawn from the seed and b = A x_true is formed at
// working precision, so the solution is checked against the exact x_true.

#include <algorithm>

#include "bench.hpp"

namespace perfbench {
namespace {

namespace blas = mf::blas;
using F = mf::Float64x2;
constexpr std::size_t kN = 256;
constexpr std::size_t kBlock = 32;
/// Correctness floor in bits: well past double's 53, far below the ~85 a
/// random 256 x 256 system keeps at Float64x2.
constexpr double kFloorBits = 64.0;

class LuSolve final : public Workload {
public:
    explicit LuSolve(std::uint64_t seed)
        : a0_(kN * kN), b0_(kN), xtrue_(kN), a_(kN * kN), x_(kN), piv_(kN), col_(kN),
          scratch_(kN * kN) {
        std::mt19937_64 rng(seed);
        for (F& v : a0_) v = random_mf<2>(rng, -1.0, 1.0);
        for (F& v : xtrue_) v = random_mf<2>(rng, 1.0, 2.0);
        blas::gemv<F>(blas::view(a0_, kN, kN), blas::view(xtrue_), blas::view(b0_));
    }

    void prepare() override {
        a_ = a0_;
        x_ = b0_;
    }

    void call(Tracer* tr) override {
        ops_ = 0.0;
        for (std::size_t k0 = 0; k0 < kN; k0 += kBlock) {
            const std::size_t kb = std::min(kBlock, kN - k0);
            factor_panel(tr, k0, kb);
            update_trailing(tr, k0, kb);
        }
        solve(tr);
    }

    Check check() override {
        double worst = 0.0;
        for (std::size_t i = 0; i < kN; ++i) {
            const double err = mf::sub(x_[i], xtrue_[i]).limb[0];
            const double rel = std::fabs(err) / std::fabs(xtrue_[i].limb[0]);
            worst = std::isnan(rel) ? rel : std::fmax(worst, rel);
        }
        const double bits = bits_of(worst, F::precision);
        return {bits >= kFloorBits, bits};
    }

    void corrupt() override {
        double& v = x_[kN / 3].limb[0];
        v = flip_last_bit(v);
    }

    double ops_per_call() const override { return ops_; }

private:
    F& at(std::size_t i, std::size_t j) { return a_[i * kN + j]; }

    /// Unblocked LU with partial pivoting of columns [k0, k0 + kb); row swaps
    /// span the full row, as in LAPACK's getrf.
    void factor_panel(Tracer* tr, std::size_t k0, std::size_t kb) {
        const std::size_t pe = k0 + kb;
        for (std::size_t j = k0; j < pe; ++j) {
            const std::size_t m = kN - j;
            {
                Span s(tr, "lu.scalar", m);
                for (std::size_t i = 0; i < m; ++i) col_[i] = at(j + i, j);
            }
            std::size_t p = 0;
            {
                Span s(tr, "blas.panel.iamax", m);
                p = blas::iamax(blas::ConstVectorView<F>(col_.data(), m));
            }
            F inv;
            {
                Span s(tr, "lu.scalar", kN);
                piv_[j] = j + p;
                if (p != 0) {
                    std::swap_ranges(&at(j, 0), &at(j, 0) + kN, &at(j + p, 0));
                    std::swap(col_[0], col_[p]);
                }
                inv = mf::recip(col_[0]);
            }
            if (m > 1) {
                Span s(tr, "blas.panel.scal", m - 1);
                blas::scal(inv, blas::VectorView<F>(col_.data() + 1, m - 1));
                ops_ += static_cast<double>(m - 1);
            }
            {
                Span s(tr, "lu.scalar", m);
                for (std::size_t i = 1; i < m; ++i) at(j + i, j) = col_[i];
            }
            const std::size_t w = pe - (j + 1);
            if (m > 1 && w > 0) {
                Span s(tr, "blas.panel.ger", (m - 1) * w);
                blas::ger(F(-1.0), blas::ConstVectorView<F>(col_.data() + 1, m - 1),
                          blas::ConstVectorView<F>(&at(j, j + 1), w),
                          blas::MatrixView<F>(&at(j + 1, j + 1), m - 1, w, kN));
                ops_ += static_cast<double>((m - 1) * (2 * w + 1));
            }
        }
    }

    /// U12 = L11^-1 A12, then A22 -= L21 U12.
    void update_trailing(Tracer* tr, std::size_t k0, std::size_t kb) {
        const std::size_t t0 = k0 + kb;
        const std::size_t nt = kN - t0;
        if (nt == 0) return;
        for (std::size_t kk = k0; kk + 1 < t0; ++kk) {
            const std::size_t r = t0 - (kk + 1);
            {
                Span s(tr, "lu.scalar", r);
                for (std::size_t i = 0; i < r; ++i) col_[i] = at(kk + 1 + i, kk);
            }
            Span s(tr, "blas.trsm.ger", r * nt);
            blas::ger(F(-1.0), blas::ConstVectorView<F>(col_.data(), r),
                      blas::ConstVectorView<F>(&at(kk, t0), nt),
                      blas::MatrixView<F>(&at(kk + 1, t0), r, nt, kN));
            ops_ += static_cast<double>(r * (2 * nt + 1));
        }
        {
            Span s(tr, "blas.gemm.gemm", nt * nt * kb);
            blas::gemm(blas::ConstMatrixView<F>(&at(t0, k0), nt, kb, kN),
                       blas::ConstMatrixView<F>(&at(k0, t0), kb, nt, kN),
                       blas::MatrixView<F>(scratch_.data(), nt, nt));
            ops_ += 2.0 * static_cast<double>(nt * nt * kb);
        }
        for (std::size_t i = 0; i < nt; ++i) {
            Span s(tr, "blas.update.axpy", nt);
            blas::axpy(F(-1.0), blas::ConstVectorView<F>(scratch_.data() + i * nt, nt),
                       blas::VectorView<F>(&at(t0 + i, t0), nt));
        }
        ops_ += 2.0 * static_cast<double>(nt * nt);
    }

    /// Apply the row swaps to b, then L y = b (unit lower) and U x = y, each
    /// row reduced by a blas::dot over the solved part.
    void solve(Tracer* tr) {
        {
            Span s(tr, "lu.scalar", kN);
            for (std::size_t j = 0; j < kN; ++j) std::swap(x_[j], x_[piv_[j]]);
        }
        for (std::size_t i = 1; i < kN; ++i) {
            F d;
            {
                Span s(tr, "blas.trsv.dot", i);
                d = blas::dot(blas::ConstVectorView<F>(&at(i, 0), i),
                              blas::ConstVectorView<F>(x_.data(), i));
            }
            Span s(tr, "lu.scalar", 1);
            x_[i] = mf::sub(x_[i], d);
        }
        for (std::size_t i = kN; i-- > 0;) {
            const std::size_t len = kN - 1 - i;
            F d;
            if (len > 0) {
                Span s(tr, "blas.trsv.dot", len);
                d = blas::dot(blas::ConstVectorView<F>(&at(i, i + 1), len),
                              blas::ConstVectorView<F>(x_.data() + i + 1, len));
            }
            Span s(tr, "lu.scalar", 1);
            x_[i] = mf::div(mf::sub(x_[i], d), at(i, i));
        }
        ops_ += 2.0 * static_cast<double>(kN * (kN - 1)) + 2.0 * kN - 1.0;
    }

    std::vector<F> a0_, b0_, xtrue_, a_, x_;
    std::vector<std::size_t> piv_;
    std::vector<F> col_, scratch_;
    double ops_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_lu_solve(std::uint64_t seed) {
    return std::make_unique<LuSolve>(seed);
}

}  // namespace perfbench
