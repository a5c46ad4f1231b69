#pragma once
// Error-free transformations (EFTs): the primitive building blocks of all
// floating-point accumulation networks (FPANs).
//
// An EFT computes both a correctly rounded floating-point operation and the
// *exact* rounding error incurred by that operation, using only rounded
// machine-precision arithmetic. See Algorithms 1-3 of Zhang & Aiken (SC'25),
// and the original sources: Moller (1965) / Knuth (1969) for TwoSum, Dekker
// (1971) for FastTwoSum and TwoProd.
//
// All functions here are branch-free straight-line code and are valid for any
// IEEE binary format (float, double, ...) under round-to-nearest-even,
// provided no intermediate overflows and inputs are finite.
//
// TwoSum takes one of two forms, with the same bits on that domain:
//
//  * Knuth's 6-flop form, for scalar T (GCC cannot widen a scalar
//    intrinsic, so a vrange there would keep user loops from vectorizing),
//    soft::SoftFloat, the portable per-lane Pack, NEON and SSE2/AVX2 packs,
//    and under constant evaluation. Its error term ends a chain of 5
//    dependent adds.
//  * An ordered FastTwoSum on packs that define order_by_magnitude (found by
//    ADL, as two_prod finds fma): the AVX-512DQ x86 packs, where one vrange
//    picks the operand of larger magnitude. s = a + b; (hi, lo) = that
//    operand and the other; e = lo + (hi - s). Five instructions, and the
//    error path is max(vrange, add) + 2 adds.
//
// Exactness: with |hi| >= |lo|, hi - s is exact (Sterbenz-style argument of
// FastTwoSum, Dekker 1971) and e is the exact error, as Knuth's is; an exact
// error is unique, so both return the same e. Signed zeros agree as well:
// when the sum is exact, Knuth's e is +0, and so is lo + (hi - s), while the
// textbook lo - (s - hi) returns -0 whenever lo is -0. So for every finite
// pair whose sum does not overflow the two forms give the same (s, e) bits,
// and an inf or NaN operand gives a NaN e in both. Outside the domain, an
// overflowing finite sum (s = +-inf) gives Knuth's e = NaN but the ordered
// form's e = -s, an infinity of the other sign (tests/simd_pack_test.cpp
// pins both; Yang et al., "On the robustness of double-word addition
// algorithms", show TwoSum-based adders going wrong near overflow).

#include <cmath>
#include <concepts>
#include <type_traits>
#include <utility>

/// The FPAN kernels must inline completely: a leftover call defeats the loop
/// vectorizer in the data-parallel BLAS kernels (the whole point of being
/// branch-free). GCC stops inlining around the 4-term multiplier's size on
/// its own, so the hot path is annotated explicitly.
#define MF_ALWAYS_INLINE inline __attribute__((always_inline))

namespace mf {

/// Customization point: which types may flow along FPAN wires. Scalar IEEE
/// types qualify natively; other value types that behave like an IEEE scalar
/// under +, -, * and fma (notably mf::simd::Pack<T, W>, which applies the
/// identical correctly rounded operation to W lanes at once) opt in by
/// specializing this variable template. Every gate below is pure +/-/*/fma
/// straight-line code, so a lane-wise IEEE type runs the exact same network.
template <typename T>
inline constexpr bool is_fpan_value_v = std::floating_point<T>;

/// Constrains the value types our networks operate on: scalars natively,
/// SIMD packs (and e.g. a software float modeling IEEE RNE) by opt-in via
/// is_fpan_value_v.
template <typename T>
concept FloatingPoint = is_fpan_value_v<T>;

/// Result pair of an error-free addition: `sum` is the correctly rounded
/// sum and `err` the exact rounding error, so that sum + err == a + b
/// exactly (as real numbers).
template <FloatingPoint T>
struct SumErr {
    T sum;
    T err;
};

/// Result pair of an error-free multiplication: `prod` is the correctly
/// rounded product and `err` the exact rounding error, so that
/// prod + err == a * b exactly.
template <FloatingPoint T>
struct ProdErr {
    T prod;
    T err;
};

/// Whether two_sum runs as the ordered FastTwoSum on T (see the header):
/// five instructions in place of Knuth's six.
template <typename T>
concept OrderedTwoSum = requires(T a, T b) { order_by_magnitude(a, b); };

/// TwoSum (Algorithm 1): 6-flop error-free addition, valid for all finite
/// inputs regardless of their relative magnitudes (as an ordered FastTwoSum
/// where T defines order_by_magnitude; see the header).
///
/// Returns (s, e) with s = RN(a + b) and e = (a + b) - s exactly.
///
/// The value returned through the result pair is a non-const local, here
/// and in the EFTs below: GCC does not scalarize a const pack local once it
/// is stored after inlining, and the temporary left in memory blocks
/// unroll-and-jam of the GEMM micro-kernel's k loop.
template <FloatingPoint T>
[[nodiscard]] MF_ALWAYS_INLINE constexpr SumErr<T> two_sum(T a, T b) noexcept {
    T s = a + b;
    if constexpr (OrderedTwoSum<T>) {
        if (!std::is_constant_evaluated()) {
            const auto [hi, lo] = order_by_magnitude(a, b);
            return {s, lo + (hi - s)};
        }
    }
    const T a_eff = s - b;   // the portion of s contributed by a
    const T b_eff = s - a_eff;
    const T da = a - a_eff;  // exact: what a lost
    const T db = b - b_eff;  // exact: what b lost
    return {s, da + db};
}

/// FastTwoSum (Algorithm 3): 3-flop error-free addition, valid only when
/// a == +-0.0, b == +-0.0, or exponent(a) >= exponent(b). In particular it is
/// safe whenever |a| >= |b|.
///
/// Returns (s, e) with s = RN(a + b) and e = (a + b) - s exactly.
template <FloatingPoint T>
[[nodiscard]] MF_ALWAYS_INLINE constexpr SumErr<T> fast_two_sum(T a, T b) noexcept {
    T s = a + b;
    const T b_eff = s - a;   // exact under the precondition
    return {s, b - b_eff};
}

/// TwoProd (Algorithm 2): FMA-based error-free multiplication.
///
/// Returns (p, e) with p = RN(a * b) and e = a*b - p exactly (barring
/// intermediate under/overflow).
template <FloatingPoint T>
[[nodiscard]] MF_ALWAYS_INLINE ProdErr<T> two_prod(T a, T b) noexcept {
    using std::fma;  // unqualified: ADL picks up pack-level fma for SIMD types
    T p = a * b;
    return {p, fma(a, b, -p)};
}

/// ThreeSum: error-free compression of three addends into a leading part and
/// two error terms. Used as a convenience in multiplication networks.
/// Returns (s0, s1, s2) with s0 + s1 + s2 == a + b + c exactly and
/// s0 = RN(RN(a+b)+c).
template <FloatingPoint T>
struct TripleErr {
    T s0, s1, s2;
};

template <FloatingPoint T>
[[nodiscard]] constexpr TripleErr<T> three_sum(T a, T b, T c) noexcept {
    const auto [t, e1] = two_sum(a, b);
    const auto [s, e2] = two_sum(t, c);
    return {s, e1, e2};
}

}  // namespace mf
