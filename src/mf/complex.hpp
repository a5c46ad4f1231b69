#pragma once
// Complex arithmetic over expansions -- the application domain where §4.2's
// commutativity guarantee matters: with a commutative multiplier, the
// conjugate product (a+bi)(a-bi) has an EXACTLY zero imaginary part, so
// complex magnitudes and Hermitian reductions stay real. (The paper notes
// that non-commutative multipliers leave a small nonzero imaginary residue
// that "severely degrades the performance of certain numerical algorithms,
// such as eigensolvers".)
//
// The components share vector registers: a complex multiply runs one mul
// over four lanes and one add over two, and a complex add or subtract one
// add over two lanes (DESIGN.md §8). simd::Pack runs each network lane by
// lane with the same IEEE operations as a scalar, so every limb is the one
// the component formula gives; only a NaN's sign bit may differ. The three
// operators are forced inline, as mf::add and mf::mul are: a radix-2
// butterfly (one *, one +, one -) at N = 3 is then 383 x86-64 instructions,
// against 452 with the operators out of line.

#include "../simd/pack.hpp"
#include "add.hpp"
#include "compare.hpp"
#include "div_sqrt.hpp"
#include "mul.hpp"
#include "multifloat.hpp"

namespace mf {

template <FloatingPoint T, int N>
struct Complex {
    using value_type = MultiFloat<T, N>;

    MultiFloat<T, N> re{};
    MultiFloat<T, N> im{};

    constexpr Complex() = default;
    Complex(const MultiFloat<T, N>& r) : re(r) {}
    Complex(const MultiFloat<T, N>& r, const MultiFloat<T, N>& i) : re(r), im(i) {}
    Complex(T r, T i = T(0)) : re(r), im(i) {}
};

template <FloatingPoint T, int N>
[[nodiscard]] Complex<T, N> conj(const Complex<T, N>& z) {
    return {z.re, -z.im};
}

namespace detail {

/// z on two lanes: limb k is {re_k, im_k}.
template <FloatingPoint T, int N>
MF_ALWAYS_INLINE MultiFloat<simd::Pack<T, 2>, N> lanes(const Complex<T, N>& z) noexcept {
    MultiFloat<simd::Pack<T, 2>, N> r;
#pragma GCC unroll 8
    for (int k = 0; k < N; ++k) r.limb[k] = simd::Pack<T, 2>::setr(z.re.limb[k], z.im.limb[k]);
    return r;
}

/// The inverse of lanes(): lane 0 is the real part, lane 1 the imaginary.
template <FloatingPoint T, int N>
MF_ALWAYS_INLINE Complex<T, N> unlanes(const MultiFloat<simd::Pack<T, 2>, N>& v) noexcept {
    Complex<T, N> z;
#pragma GCC unroll 8
    for (int k = 0; k < N; ++k) {
        const auto [re, im] = v.limb[k].halves();
        z.re.limb[k] = re[0];
        z.im.limb[k] = im[0];
    }
    return z;
}

}  // namespace detail

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE Complex<T, N> operator+(const Complex<T, N>& a,
                                                       const Complex<T, N>& b) {
    return detail::unlanes(add(detail::lanes(a), detail::lanes(b)));
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE Complex<T, N> operator-(const Complex<T, N>& a,
                                                       const Complex<T, N>& b) {
    return detail::unlanes(sub(detail::lanes(a), detail::lanes(b)));
}

template <FloatingPoint T, int N>
[[nodiscard]] Complex<T, N> operator-(const Complex<T, N>& a) {
    return {-a.re, -a.im};
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE Complex<T, N> operator*(const Complex<T, N>& a,
                                                       const Complex<T, N>& b) {
    // (ar br - ai bi) + (ar bi + ai br) i: the four products ar*br, ar*bi,
    // (-ai)*bi, ai*br as one mul over four lanes, then one add of the low
    // and high lane pairs. Under round-to-nearest mul(-ai, bi) is exactly
    // -mul(ai, bi), so no sign fix-up follows. With the commutative
    // multiplier the expression is symmetric under conjugation, so
    // z * conj(z) is exactly real (tests/complex_test.cpp).
    using P4 = simd::Pack<T, 4>;
    MultiFloat<P4, N> x, y;
#pragma GCC unroll 8
    for (int k = 0; k < N; ++k) {
        const T ar = a.re.limb[k], ai = a.im.limb[k];
        const T br = b.re.limb[k], bi = b.im.limb[k];
        x.limb[k] = P4::setr(ar, ar, -ai, ai);
        y.limb[k] = P4::setr(br, bi, bi, br);
    }
    const MultiFloat<P4, N> p = mul(x, y);
    MultiFloat<simd::Pack<T, 2>, N> lo, hi;
#pragma GCC unroll 8
    for (int k = 0; k < N; ++k) {
        const auto [l, h] = p.limb[k].halves();
        lo.limb[k] = l;
        hi.limb[k] = h;
    }
    return detail::unlanes(add(lo, hi));
}

/// |z|^2 = z * conj(z), computed as an exactly-real quantity: both squares
/// as one mul over two lanes, then one add.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> norm(const Complex<T, N>& z) {
    const auto v = detail::lanes(z);
    const Complex<T, N> sq = detail::unlanes(mul(v, v));
    return add(sq.re, sq.im);
}

template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> abs(const Complex<T, N>& z) {
    return sqrt(norm(z));
}

template <FloatingPoint T, int N>
[[nodiscard]] Complex<T, N> operator/(const Complex<T, N>& a, const Complex<T, N>& b) {
    const MultiFloat<T, N> inv = recip(norm(b));
    return detail::unlanes(
        mul(detail::lanes(a * conj(b)), detail::lanes(Complex<T, N>(inv, inv))));
}

template <FloatingPoint T, int N>
[[nodiscard]] bool operator==(const Complex<T, N>& a, const Complex<T, N>& b) {
    return a.re == b.re && a.im == b.im;
}

template <FloatingPoint T, int N>
Complex<T, N>& operator+=(Complex<T, N>& a, const Complex<T, N>& b) {
    return a = a + b;
}
template <FloatingPoint T, int N>
Complex<T, N>& operator*=(Complex<T, N>& a, const Complex<T, N>& b) {
    return a = a * b;
}

using Complex64x2 = Complex<double, 2>;
using Complex64x3 = Complex<double, 3>;
using Complex64x4 = Complex<double, 4>;

}  // namespace mf
