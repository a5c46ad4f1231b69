#pragma once
// SoftFloat: a software model of binary floating-point arithmetic with a
// runtime-parameterized precision p and round-to-nearest-even, stored as
// (sign, mantissa, exponent) machine integers.
//
// Purpose: the paper's FPANs are claimed correct "for all values of p". Our
// empirical verifier (fpan/checker.*) exploits this by exhaustively
// enumerating ALL p-bit inputs for small p (3-6 bits), which exercises every
// rounding-error pattern a network can produce -- the same case explosion the
// paper's SMT encoding reasons about symbolically.
//
// The model is exact: intermediate alignment uses 128-bit integers with
// sticky-bit collapse for huge exponent gaps, so every operation is a true
// RNE rounding of the exact real result. Cross-validated against BigFloat
// and (at p = 53) against hardware doubles in tests/softfloat_test.cpp.

#include <cstdint>
#include <compare>

#include "../mf/eft.hpp"

namespace mf::soft {

class SoftFloat {
public:
    /// Zero at precision p.
    explicit SoftFloat(int precision = 53) noexcept : prec_(precision) {}

    /// Construct a p-bit value: sign * mant * 2^exp, |mant| < 2^p.
    /// The value is normalized but NOT re-rounded (it must already fit).
    static SoftFloat make(int precision, int sign, std::uint64_t mant,
                          std::int64_t exp) noexcept;

    /// Round an arbitrary double to p bits (RNE) -- entry point for tests.
    static SoftFloat from_double(double x, int precision) noexcept;

    [[nodiscard]] double to_double() const noexcept;

    [[nodiscard]] int precision() const noexcept { return prec_; }
    [[nodiscard]] bool is_zero() const noexcept { return sign_ == 0; }
    [[nodiscard]] int sign() const noexcept { return sign_; }
    /// Mantissa (normalized: bit p-1 set) and exponent of the lsb.
    [[nodiscard]] std::uint64_t mantissa() const noexcept { return mant_; }
    [[nodiscard]] std::int64_t exponent() const noexcept { return exp_; }
    /// Exponent of the leading bit (value in [2^e, 2^(e+1))).
    [[nodiscard]] std::int64_t ilogb() const noexcept;

    /// ulp = 2^(ilogb - p + 1) as a SoftFloat.
    [[nodiscard]] SoftFloat ulp() const noexcept;

    friend SoftFloat operator+(const SoftFloat& a, const SoftFloat& b) noexcept;
    friend SoftFloat operator-(const SoftFloat& a, const SoftFloat& b) noexcept;
    friend SoftFloat operator*(const SoftFloat& a, const SoftFloat& b) noexcept;
    SoftFloat operator-() const noexcept;

    /// Exact comparison of represented values.
    friend int cmp(const SoftFloat& a, const SoftFloat& b) noexcept;
    friend bool operator==(const SoftFloat& a, const SoftFloat& b) noexcept {
        return cmp(a, b) == 0;
    }
    friend bool operator<(const SoftFloat& a, const SoftFloat& b) noexcept {
        return cmp(a, b) < 0;
    }
    friend bool operator<=(const SoftFloat& a, const SoftFloat& b) noexcept {
        return cmp(a, b) <= 0;
    }

    /// True if the addition a + b was exact (no rounding error) -- cheap
    /// diagnostic used by the checker.
    static bool add_is_exact(const SoftFloat& a, const SoftFloat& b) noexcept;

private:
    /// Round sign * mag * 2^exp (mag up to 128 bits, exact) to p bits RNE.
    static SoftFloat round_from(int precision, int sign, unsigned __int128 mag,
                                std::int64_t exp, bool sticky) noexcept;

    int prec_ = 53;
    int sign_ = 0;              // -1, 0, +1
    std::uint64_t mant_ = 0;    // normalized: top bit at position prec_-1
    std::int64_t exp_ = 0;      // value = sign * mant * 2^exp
};

/// Error-free product: returns (p, e) with p = RNE(a*b) and e the exact
/// rounding error (always representable in p bits). The software analogue of
/// the FMA-based TwoProd used to feed multiplication FPANs.
struct SoftProd {
    SoftFloat prod;
    SoftFloat err;
};
[[nodiscard]] SoftProd two_prod(const SoftFloat& a, const SoftFloat& b) noexcept;

/// Enumeration support: visit every nonzero p-bit value with leading-bit
/// exponent in [emin, emax], plus zero. Calls f(SoftFloat).
template <typename F>
void for_each_value(int precision, std::int64_t emin, std::int64_t emax, F&& f) {
    f(SoftFloat(precision));  // zero
    const std::uint64_t lo = std::uint64_t(1) << (precision - 1);
    const std::uint64_t hi = std::uint64_t(1) << precision;
    for (std::int64_t e = emin; e <= emax; ++e) {
        for (std::uint64_t m = lo; m < hi; ++m) {
            // exponent of leading bit = e  =>  lsb exponent = e - p + 1
            f(SoftFloat::make(precision, +1, m, e - precision + 1));
            f(SoftFloat::make(precision, -1, m, e - precision + 1));
        }
    }
}

}  // namespace mf::soft

/// SoftFloat rounds +, - and * like an IEEE scalar, so FPAN gates run on it.
template <>
inline constexpr bool mf::is_fpan_value_v<mf::soft::SoftFloat> = true;
