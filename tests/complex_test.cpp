// Complex arithmetic over expansions: §4.2's conjugate-product guarantee and
// field axioms to working accuracy.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <type_traits>

#include "mf/complex.hpp"
#include "support.hpp"

namespace {

using namespace mf;
using mf::big::BigFloat;
using mf::test::adversarial;
using mf::test::exact;

template <int N>
Complex<double, N> random_z(std::mt19937_64& rng) {
    return {adversarial<double, N>(rng, -8, 8), adversarial<double, N>(rng, -8, 8)};
}

// The component formula the lane form of complex.hpp replaced, written out
// with mf::add / sub / mul. Every limb of *, +, -, /, norm and abs must equal
// it bit for bit; NaNs compare by NaN-ness only (their sign may differ).
template <FloatingPoint T, int N>
struct ComponentFormula {
    using C = Complex<T, N>;
    using M = MultiFloat<T, N>;
    static C mul(const C& a, const C& b) {
        return {sub(mf::mul(a.re, b.re), mf::mul(a.im, b.im)),
                add(mf::mul(a.re, b.im), mf::mul(a.im, b.re))};
    }
    static M norm(const C& z) { return add(mf::mul(z.re, z.re), mf::mul(z.im, z.im)); }
    static C div(const C& a, const C& b) {
        const M inv = recip(norm(b));
        const C num = mul(a, conj(b));
        return {mf::mul(num.re, inv), mf::mul(num.im, inv)};
    }
};

template <FloatingPoint T>
bool same_limb(T got, T want) {
    using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
    if (std::isnan(want)) return std::isnan(got);
    return std::bit_cast<Bits>(got) == std::bit_cast<Bits>(want);
}

/// A random expansion, each limb replaced with probability 1/8 by a
/// special: +-0, +-Inf, NaN or a subnormal.
template <FloatingPoint T, int N>
MultiFloat<T, N> limb_mix(std::mt19937_64& rng) {
    using L = std::numeric_limits<T>;
    const T specials[] = {T(0),           -T(0),          L::infinity(),
                          -L::infinity(), L::quiet_NaN(), L::denorm_min() * T(5),
                          -L::min() / T(3)};
    MultiFloat<T, N> x = mf::test::adversarial<T, N>(rng, -8, 8, rng() % 4 == 0);
    for (int k = 0; k < N; ++k) {
        if (rng() % 8 == 0) x.limb[k] = specials[rng() % std::size(specials)];
    }
    if (rng() % 16 == 0) x = MultiFloat<T, N>(T(0));
    return x;
}

template <FloatingPoint T, int N>
void expect_lane_form_matches(std::uint64_t seed, int cases) {
    using C = Complex<T, N>;
    using Ref = ComponentFormula<T, N>;
    std::mt19937_64 rng(seed);
    const auto expect_same = [](const MultiFloat<T, N>& got, const MultiFloat<T, N>& want,
                                const char* op, int i) {
        for (int k = 0; k < N; ++k) {
            EXPECT_TRUE(same_limb(got.limb[k], want.limb[k]))
                << op << " N=" << N << " case " << i << " limb " << k << ": "
                << got.limb[k] << " vs " << want.limb[k];
        }
    };
    for (int i = 0; i < cases; ++i) {
        const C a(limb_mix<T, N>(rng), limb_mix<T, N>(rng));
        const C b = i % 4 == 0 ? conj(a) : C(limb_mix<T, N>(rng), limb_mix<T, N>(rng));
        const C p = a * b;
        const C want_p = Ref::mul(a, b);
        expect_same(p.re, want_p.re, "mul.re", i);
        expect_same(p.im, want_p.im, "mul.im", i);
        const C s = a + b;
        expect_same(s.re, add(a.re, b.re), "add.re", i);
        expect_same(s.im, add(a.im, b.im), "add.im", i);
        const C d = a - b;
        expect_same(d.re, sub(a.re, b.re), "sub.re", i);
        expect_same(d.im, sub(a.im, b.im), "sub.im", i);
        const C q = a / b;
        const C want_q = Ref::div(a, b);
        expect_same(q.re, want_q.re, "div.re", i);
        expect_same(q.im, want_q.im, "div.im", i);
        expect_same(norm(a), Ref::norm(a), "norm", i);
        expect_same(mf::abs(a), sqrt(Ref::norm(a)), "abs", i);
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(Complex, LaneFormMatchesComponentFormula) {
    expect_lane_form_matches<double, 1>(11, 4000);
    expect_lane_form_matches<double, 2>(12, 4000);
    expect_lane_form_matches<double, 3>(13, 4000);
    expect_lane_form_matches<double, 4>(14, 4000);
    expect_lane_form_matches<float, 1>(15, 4000);
    expect_lane_form_matches<float, 2>(16, 4000);
    expect_lane_form_matches<float, 3>(17, 4000);
    expect_lane_form_matches<float, 4>(18, 4000);
}

TEST(Complex, ConjugateProductIsExactlyReal) {
    // The paper's §4.2 headline property: z * conj(z) has imaginary part
    // EXACTLY zero (not just small), because mul is bit-commutative.
    std::mt19937_64 rng(1);
    for (int i = 0; i < 10000; ++i) {
        const auto z = random_z<3>(rng);
        const auto p = z * conj(z);
        EXPECT_TRUE(p.im.is_zero()) << "case " << i;
        EXPECT_GE(p.re.limb[0], 0.0);
        // And it equals norm(z) exactly (same expression).
        const auto n = norm(z);
        for (int k = 0; k < 3; ++k) EXPECT_EQ(p.re.limb[k], n.limb[k]);
    }
}

TEST(Complex, MultiplicationMatchesOracle) {
    std::mt19937_64 rng(2);
    for (int i = 0; i < 3000; ++i) {
        const auto a = random_z<2>(rng);
        const auto b = random_z<2>(rng);
        const auto p = a * b;
        const BigFloat re = exact(a.re) * exact(b.re) - exact(a.im) * exact(b.im);
        const BigFloat im = exact(a.re) * exact(b.im) + exact(a.im) * exact(b.re);
        if (!re.is_zero()) MF_EXPECT_REL_BOUND(p.re, re, 2 * 53 - 2 - 24);
        if (!im.is_zero()) MF_EXPECT_REL_BOUND(p.im, im, 2 * 53 - 2 - 24);
    }
}

TEST(Complex, DivisionRoundTrips) {
    std::mt19937_64 rng(3);
    for (int i = 0; i < 1000; ++i) {
        const auto a = random_z<3>(rng);
        auto b = random_z<3>(rng);
        if (norm(b).is_zero()) b = Complex<double, 3>(1.0, 1.0);
        const auto back = (a / b) * b;
        const BigFloat wr = exact(a.re);
        const BigFloat wi = exact(a.im);
        // Compare against |a| scale (division mixes components).
        const BigFloat scale = wr.abs() + wi.abs();
        if (scale.is_zero()) continue;
        const BigFloat er = (exact(back.re) - wr).abs();
        const BigFloat ei = (exact(back.im) - wi).abs();
        EXPECT_LE(static_cast<double>((er + ei).is_zero() ? -1000 : (er + ei).ilogb()),
                  static_cast<double>(scale.ilogb()) - (3 * 53 - 3 - 30))
            << "case " << i;
    }
}

TEST(Complex, FieldIdentities) {
    std::mt19937_64 rng(4);
    const Complex<double, 2> one(1.0);
    const Complex<double, 2> i_unit(0.0, 1.0);
    // i^2 == -1 exactly.
    const auto i2 = i_unit * i_unit;
    EXPECT_EQ(i2.re.limb[0], -1.0);
    EXPECT_TRUE(i2.im.is_zero());
    for (int i = 0; i < 2000; ++i) {
        const auto z = random_z<2>(rng);
        // z * 1 == z exactly in value.
        const auto zi = z * one;
        EXPECT_EQ(BigFloat::cmp(exact(zi.re), exact(z.re)), 0);
        EXPECT_EQ(BigFloat::cmp(exact(zi.im), exact(z.im)), 0);
        // Commutativity, bit-exact (inherited from mul/add).
        const auto w = random_z<2>(rng);
        const auto zw = z * w;
        const auto wz = w * z;
        for (int k = 0; k < 2; ++k) {
            EXPECT_EQ(zw.re.limb[k], wz.re.limb[k]);
            EXPECT_EQ(zw.im.limb[k], wz.im.limb[k]);
        }
    }
}

TEST(Complex, AbsMatchesHypot) {
    std::mt19937_64 rng(5);
    for (int i = 0; i < 500; ++i) {
        const auto z = random_z<2>(rng);
        if (norm(z).is_zero()) continue;
        const auto a = mf::abs(z);
        const BigFloat want = BigFloat::sqrt(
            exact(z.re) * exact(z.re) + exact(z.im) * exact(z.im), 160);
        MF_EXPECT_REL_BOUND(a, want, 2 * 53 - 2 - 8);
    }
}

TEST(Complex, PowersOnUnitCircle) {
    // (cos t + i sin t)^k stays on the unit circle to working accuracy --
    // the eigensolver-style stability §4.2 is about.
    const auto t = mf::from_string<double, 3>("0.7853981633974483096156608458198757");
    Complex<double, 3> z(mf::cos(t), mf::sin(t));
    Complex<double, 3> acc(1.0);
    for (int k = 0; k < 64; ++k) acc *= z;
    const auto n = norm(acc);
    const BigFloat one = BigFloat::from_int(1);
    MF_EXPECT_REL_BOUND(n, one, 3 * 53 - 3 - 16);
}

}  // namespace
