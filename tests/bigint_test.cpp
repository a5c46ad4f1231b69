// Big-integer magnitude layer: cross-validation against 64/128-bit machine
// arithmetic and algebraic identities at larger sizes.

#include <gtest/gtest.h>

#include <random>

#include "bigfloat/bigint.hpp"

namespace {

using namespace mf::big;

Limbs L(std::uint64_t x) { return from_u64(x); }

std::uint64_t to_u64(const Limbs& v) {
    EXPECT_LE(v.size(), 1u);
    return v.empty() ? 0 : v[0];
}

Limbs random_limbs(std::mt19937_64& rng, std::size_t max_limbs) {
    Limbs v(1 + rng() % max_limbs);
    for (auto& l : v) l = rng();
    if (rng() % 4 == 0) v.back() &= 0xffff;  // vary top-limb population
    normalize(v);
    return v;
}

TEST(BigInt, AddSubMatchMachine64) {
    std::mt19937_64 rng(1);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t a = rng() >> 1;  // headroom to avoid overflow
        const std::uint64_t b = rng() >> 1;
        EXPECT_EQ(to_u64(uadd(L(a), L(b))), a + b);
        const auto [hi, lo] = std::minmax(a, b);
        EXPECT_EQ(to_u64(usub(L(lo), L(hi))), lo - hi);
    }
}

TEST(BigInt, MulMatchesMachine128) {
    std::mt19937_64 rng(2);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t a = rng();
        const std::uint64_t b = rng();
        const unsigned __int128 want = static_cast<unsigned __int128>(a) * b;
        const Limbs got = umul(L(a), L(b));
        unsigned __int128 g = 0;
        if (got.size() > 1) g = static_cast<unsigned __int128>(got[1]) << 64;
        if (!got.empty()) g |= got[0];
        EXPECT_TRUE(g == want);
    }
}

TEST(BigInt, DivRemMatchesMachine) {
    std::mt19937_64 rng(3);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t a = rng();
        const std::uint64_t b = 1 + (rng() >> (rng() % 48));
        const auto [q, r] = udivrem(L(a), L(b));
        EXPECT_EQ(to_u64(q), a / b);
        EXPECT_EQ(to_u64(r), a % b);
    }
}

TEST(BigInt, DivRemIdentityLarge) {
    std::mt19937_64 rng(4);
    for (int i = 0; i < 300; ++i) {
        const Limbs a = random_limbs(rng, 6);
        Limbs b = random_limbs(rng, 3);
        if (is_zero(b)) b = L(7);
        const auto [q, r] = udivrem(a, b);
        // a == q*b + r and r < b.
        EXPECT_EQ(ucmp(uadd(umul(q, b), r), a), 0);
        EXPECT_LT(ucmp(r, b), 0);
    }
}

TEST(BigInt, SqrtIdentityLarge) {
    std::mt19937_64 rng(5);
    for (int i = 0; i < 300; ++i) {
        const Limbs a = random_limbs(rng, 5);
        const auto [s, r] = usqrt(a);
        // s^2 + r == a and (s+1)^2 > a.
        EXPECT_EQ(ucmp(uadd(umul(s, s), r), a), 0);
        Limbs s1 = s;
        uinc(s1);
        EXPECT_GT(ucmp(umul(s1, s1), a), 0);
    }
}

TEST(BigInt, SqrtSmallExact) {
    for (std::uint64_t n = 0; n < 5000; ++n) {
        const auto [s, r] = usqrt(L(n));
        const std::uint64_t si = to_u64(s);
        EXPECT_LE(si * si, n);
        EXPECT_GT((si + 1) * (si + 1), n);
        EXPECT_EQ(to_u64(r), n - si * si);
    }
}

TEST(BigInt, ShiftsRoundTrip) {
    std::mt19937_64 rng(6);
    for (int i = 0; i < 5000; ++i) {
        const Limbs a = random_limbs(rng, 4);
        const auto sh = static_cast<std::int64_t>(rng() % 200);
        bool sticky = true;
        const Limbs back = ushr(ushl(a, sh), sh, &sticky);
        EXPECT_EQ(ucmp(back, a), 0);
        EXPECT_FALSE(sticky);  // nothing lost shifting back down
    }
}

TEST(BigInt, ShrSticky) {
    // 0b10110 >> 3 == 0b10 with sticky (bits 0b110 lost... bit1 and bit2 set).
    Limbs v = L(0b10110);
    bool sticky = false;
    const Limbs r = ushr(v, 3, &sticky);
    EXPECT_EQ(to_u64(r), 0b10u);
    EXPECT_TRUE(sticky);
    sticky = true;
    const Limbs r2 = ushr(L(0b10000), 3, &sticky);
    EXPECT_EQ(to_u64(r2), 0b10u);
    EXPECT_FALSE(sticky);
}

TEST(BigInt, BitLengthAndBits) {
    EXPECT_EQ(bit_length({}), 0);
    EXPECT_EQ(bit_length(L(1)), 1);
    EXPECT_EQ(bit_length(L(0x8000000000000000ull)), 64);
    Limbs v;
    set_bit(v, 130);
    EXPECT_EQ(bit_length(v), 131);
    EXPECT_TRUE(get_bit(v, 130));
    EXPECT_FALSE(get_bit(v, 129));
    EXPECT_FALSE(any_below(v, 130));
    EXPECT_TRUE(any_below(v, 131));
}

TEST(BigInt, CompareTotalOrder) {
    std::mt19937_64 rng(7);
    for (int i = 0; i < 5000; ++i) {
        const Limbs a = random_limbs(rng, 3);
        const Limbs b = random_limbs(rng, 3);
        const int ab = ucmp(a, b);
        EXPECT_EQ(ucmp(b, a), -ab);
        EXPECT_EQ(ucmp(a, a), 0);
        if (ab < 0) {
            EXPECT_GT(ucmp(uadd(a, L(1)), a), 0);
        }
    }
}

TEST(BigInt, NormalizeStripsHighZeros) {
    Limbs v{5, 0, 0};
    normalize(v);
    EXPECT_EQ(v.size(), 1u);
    Limbs z{0, 0};
    normalize(z);
    EXPECT_TRUE(z.empty());
    EXPECT_TRUE(is_zero(z));
}

}  // namespace
