#pragma once
// Strict IEEE 754 special-value semantics (paper §4.4).
//
// The raw FPAN kernels deliberately trade special-value fidelity for speed:
// TwoSum's inverse operations turn -0.0 into +0.0 and collapse +-Inf into
// NaN (Inf - Inf inside the error computation). The paper notes that "in
// cases where it is necessary to distinguish -0.0 from +0.0 or +-Inf from
// NaN, strict IEEE 754 semantics can be restored using conditional move
// operations" -- this header is that restoration layer.
//
// Each *_ieee operation computes the branch-free extended-precision result
// AND the base type's own single-operation result, then selects the scalar
// result exactly when the scalar result is non-finite or a signed zero.
// The selection compiles to conditional moves (no data-dependent branch on
// the hot path); finite inputs with finite outputs take the FPAN result
// untouched. Like every scalar op, the wrappers count nothing: how often a
// fixup fires is a property of the caller's data, for the caller to measure.

#include <cmath>

#include "add.hpp"
#include "div_sqrt.hpp"
#include "mul.hpp"
#include "multifloat.hpp"

namespace mf {

namespace detail {

/// True when the base type's result for this operation is one of the values
/// the FPAN kernels do not preserve: NaN, +-Inf, or -0.0.
template <FloatingPoint T>
[[nodiscard]] MF_ALWAYS_INLINE bool needs_ieee_fixup(T scalar) noexcept {
    return !std::isfinite(scalar) || (scalar == T(0) && std::signbit(scalar));
}

}  // namespace detail

/// Addition with IEEE special-value semantics: NaN/Inf propagate as the base
/// type would, and (-0) + (-0) == -0. Finite cases are bit-identical to
/// add().
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> add_ieee(const MultiFloat<T, N>& x,
                                        const MultiFloat<T, N>& y) noexcept {
    const T scalar = x.limb[0] + y.limb[0];
    const bool fixup = detail::needs_ieee_fixup(scalar);
    return detail::select(fixup, scalar, add(x, y));
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> sub_ieee(const MultiFloat<T, N>& x,
                                        const MultiFloat<T, N>& y) noexcept {
    return add_ieee(x, -y);
}

/// Multiplication with IEEE special-value semantics, including the sign of
/// zero results (e.g. (-x) * 0 == -0).
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> mul_ieee(const MultiFloat<T, N>& x,
                                        const MultiFloat<T, N>& y) noexcept {
    const T scalar = x.limb[0] * y.limb[0];
    const bool fixup = detail::needs_ieee_fixup(scalar);
    return detail::select(fixup, scalar, mul(x, y));
}

/// Division with IEEE special-value semantics: x/0 = +-Inf, 0/0 = NaN,
/// x/Inf = +-0, with correct signs -- the base type decides. Unlike the
/// other wrappers, the fixup must also trigger on a non-finite *divisor*
/// with a finite scalar quotient (x/Inf = +-0): the scalar result alone
/// looks benign, but the Newton recurrence turns recip(Inf) = 0 into
/// Inf * 0 = NaN limbs.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> div_ieee(const MultiFloat<T, N>& b,
                                        const MultiFloat<T, N>& a) noexcept {
    const T scalar = b.limb[0] / a.limb[0];
    const bool fixup = detail::needs_ieee_fixup(scalar) || !std::isfinite(a.limb[0]);
    return detail::select(fixup, scalar, div(b, a));
}

/// Square root with IEEE special-value semantics: sqrt(-0) = -0,
/// sqrt(x < 0) = NaN, sqrt(+Inf) = +Inf, NaN propagates. Finite positive
/// cases are bit-identical to sqrt(). (A non-finite radicand always yields
/// a non-finite scalar, so the scalar-side test is sufficient here.)
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> sqrt_ieee(const MultiFloat<T, N>& a) noexcept {
    const T scalar = std::sqrt(a.limb[0]);
    const bool fixup = detail::needs_ieee_fixup(scalar);
    return detail::select(fixup, scalar, sqrt(a));
}

}  // namespace mf
