// mf::simd::Pack: every backend's pack must be a lane-wise clone of the
// scalar IEEE arithmetic -- load/store/broadcast round-trips, the five
// arithmetic operations, and the EFT gates instantiated over packs must be
// bit-for-bit identical to the scalar results in every lane, including for
// special values (signed zeros, infinities, subnormals) and misaligned
// loads. On this build the instantiated widths cover whichever intrinsic
// specializations the compiler enabled (see MF_SIMD_HAVE_* in pack.hpp);
// with MF_SIMD_FORCE_SCALAR they all collapse to the portable fallback and
// the same assertions must still hold. The interleaved (AoS record)
// load/store of every width must match the primary template's loop, and so
// must the lane primitives the complex kernels use: setr and halves. The
// partial moves that end a kernel's sweep (load_n / store_n and the
// interleaved _n forms) must match the same loops on their live lanes and
// touch no memory past them, and cmp_lt / select must match the scalar
// a < b ? x : y in every lane. two_sum, which the AVX-512DQ packs run as an
// ordered FastTwoSum, must give Knuth's TwoSum bits on its whole domain.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "simd/simd.hpp"

namespace {

using mf::simd::Pack;

template <typename T>
using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

template <typename T>
Bits<T> bits(T x) {
    return std::bit_cast<Bits<T>>(x);
}

/// Invoke f(integral_constant<int, W>) for every width we exercise.
template <typename T, typename F>
void for_each_width(F f) {
    f(std::integral_constant<int, 1>{});
    f(std::integral_constant<int, 2>{});
    f(std::integral_constant<int, 4>{});
    f(std::integral_constant<int, 8>{});
    if constexpr (sizeof(T) == 4) f(std::integral_constant<int, 16>{});
}

/// Interesting scalar values: specials plus adversarially scaled randoms.
template <typename T>
std::vector<T> sample_values(std::size_t n, std::uint64_t seed) {
    std::vector<T> v = {T(0),
                        -T(0),
                        T(1),
                        T(-1),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity(),
                        std::numeric_limits<T>::denorm_min(),
                        -std::numeric_limits<T>::denorm_min(),
                        std::numeric_limits<T>::min(),
                        std::numeric_limits<T>::max() / T(4)};
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<T> u(T(-2), T(2));
    std::uniform_int_distribution<int> e(-40, 40);
    while (v.size() < n) v.push_back(std::ldexp(u(rng), e(rng)));
    return v;
}

template <typename T>
class PackTyped : public ::testing::Test {};

using BaseTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(PackTyped, BaseTypes);

TYPED_TEST(PackTyped, LoadStoreBroadcastRoundTrip) {
    using T = TypeParam;
    for_each_width<T>([](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        static_assert(P::width == W);
        const auto vals = sample_values<T>(64, 100 + W);
        // Misaligned offsets 0..W-1 into the buffer.
        for (int off = 0; off < W; ++off) {
            for (std::size_t i = 0; off + i + W <= vals.size(); i += W) {
                const P p = P::load(vals.data() + off + i);
                T out[W];
                p.store(out);
                for (int j = 0; j < W; ++j) {
                    ASSERT_EQ(bits(out[j]), bits(vals[off + i + j])) << "W=" << W;
                    ASSERT_EQ(bits(p[j]), bits(vals[off + i + j])) << "W=" << W;
                }
            }
        }
        // Broadcast copies bits: one computed as 0 + x turns -0.0 into +0.0.
        using lim = std::numeric_limits<T>;
        const T nan_payload = std::bit_cast<T>(bits(lim::quiet_NaN()) | Bits<T>(0x2a));
        const T specials[] = {T(1.5),      -T(0),           lim::infinity(), -lim::infinity(),
                              nan_payload, lim::denorm_min(), lim::max()};
        for (const T x : specials) {
            const P b = P::broadcast(x);
            T out[W];
            b.store(out);
            for (int j = 0; j < W; ++j) {
                ASSERT_EQ(bits(b[j]), bits(x)) << "broadcast W=" << W << " lane=" << j;
                ASSERT_EQ(bits(out[j]), bits(x)) << "broadcast W=" << W << " lane=" << j;
            }
        }
        const P z;  // default = all lanes zero
        for (int j = 0; j < W; ++j) ASSERT_EQ(bits(z[j]), bits(T(0)));
    });
}

TYPED_TEST(PackTyped, ArithmeticBitExactPerLane) {
    using T = TypeParam;
    for_each_width<T>([](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        const auto as = sample_values<T>(16 * W, 7);
        const auto bs = sample_values<T>(16 * W, 8);
        const auto cs = sample_values<T>(16 * W, 9);
        for (std::size_t i = 0; i + W <= as.size(); i += W) {
            const P a = P::load(as.data() + i);
            const P b = P::load(bs.data() + i);
            const P c = P::load(cs.data() + i);
            const P sum = a + b;
            const P dif = a - b;
            const P prd = a * b;
            const P neg = -a;
            const P fm = fma(a, b, c);
            for (int j = 0; j < W; ++j) {
                const T x = as[i + j];
                const T y = bs[i + j];
                const T z = cs[i + j];
                // NaN results (inf - inf etc.) compare by classification, not
                // payload: payload propagation is not pinned down by IEEE.
                const auto check = [&](T got, T want, const char* op) {
                    if (std::isnan(want)) {
                        ASSERT_TRUE(std::isnan(got)) << op << " W=" << W;
                    } else {
                        ASSERT_EQ(bits(got), bits(want)) << op << " W=" << W << " lane=" << j;
                    }
                };
                check(sum[j], x + y, "add");
                check(dif[j], x - y, "sub");
                check(prd[j], x * y, "mul");
                check(neg[j], -x, "neg");
                check(fm[j], std::fma(x, y, z), "fma");
            }
        }
    });
}

TYPED_TEST(PackTyped, EftGatesBitExactPerLane) {
    using T = TypeParam;
    for_each_width<T>([](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        // Finite values only: the gate algebra assumes no intermediate
        // overflow, exactly as for the scalar kernels.
        std::mt19937_64 rng(17);
        std::uniform_real_distribution<T> u(T(-2), T(2));
        std::uniform_int_distribution<int> e(-30, 30);
        for (int rep = 0; rep < 64; ++rep) {
            T xs[W], ys[W];
            for (int j = 0; j < W; ++j) {
                xs[j] = std::ldexp(u(rng), e(rng));
                ys[j] = std::ldexp(u(rng), e(rng));
            }
            const P x = P::load(xs);
            const P y = P::load(ys);
            const auto [s, err] = mf::two_sum(x, y);
            const auto [p, perr] = mf::two_prod(x, y);
            for (int j = 0; j < W; ++j) {
                const auto [ss, se] = mf::two_sum(xs[j], ys[j]);
                ASSERT_EQ(bits(s[j]), bits(ss)) << "two_sum W=" << W;
                ASSERT_EQ(bits(err[j]), bits(se)) << "two_sum err W=" << W;
                const auto [pp, pe] = mf::two_prod(xs[j], ys[j]);
                ASSERT_EQ(bits(p[j]), bits(pp)) << "two_prod W=" << W;
                ASSERT_EQ(bits(perr[j]), bits(pe)) << "two_prod err W=" << W;
            }
            // FastTwoSum needs |a| >= |b|: order the operands per lane first.
            T hs[W], ls[W];
            for (int j = 0; j < W; ++j) {
                hs[j] = std::abs(xs[j]) >= std::abs(ys[j]) ? xs[j] : ys[j];
                ls[j] = std::abs(xs[j]) >= std::abs(ys[j]) ? ys[j] : xs[j];
            }
            const auto [f, ferr] = mf::fast_two_sum(P::load(hs), P::load(ls));
            for (int j = 0; j < W; ++j) {
                const auto [fs, fe] = mf::fast_two_sum(hs[j], ls[j]);
                ASSERT_EQ(bits(f[j]), bits(fs)) << "fast_two_sum W=" << W;
                ASSERT_EQ(bits(ferr[j]), bits(fe)) << "fast_two_sum err W=" << W;
            }
        }
    });
}

/// Specials for the sign and NaN checks below: signed zeros, infinities,
/// subnormals, quiet NaNs of both signs (one with a payload) and finite
/// values either side of them.
template <typename T>
std::vector<T> special_values() {
    using L = std::numeric_limits<T>;
    const T payload_nan = std::bit_cast<T>(static_cast<Bits<T>>(bits(L::quiet_NaN()) | 5u));
    std::vector<T> v = {T(0),          -T(0),          L::infinity(), -L::infinity(),
                        L::denorm_min(), -L::denorm_min(), L::min() / T(3), -L::min() / T(7),
                        L::quiet_NaN(), -L::quiet_NaN(), payload_nan,    -payload_nan,
                        T(1.5),        -T(3),          L::max(),      -L::min()};
    return v;
}

// Unary minus is a sign flip and nothing else, on every lane of every
// width, whatever instruction the compiler picks for it (the x86 packs
// write it as a vector-extension negation so it can fold into an FMA).
TYPED_TEST(PackTyped, NegationFlipsOnlyTheSignBit) {
    using T = TypeParam;
    constexpr Bits<T> sign = Bits<T>{1} << (8 * sizeof(T) - 1);
    const std::vector<T> vals = special_values<T>();
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        for (std::size_t i = 0; i + W <= vals.size(); ++i) {
            const P neg = -P::load(vals.data() + i);
            for (int j = 0; j < W; ++j) {
                ASSERT_EQ(bits(neg[j]), bits(vals[i + j]) ^ sign)
                    << "W=" << W << " lane=" << j << " input bits " << bits(vals[i + j]);
            }
        }
    });
}

// Pack two_prod against lane-wise scalar two_prod, specials included: the
// x86 packs compute fma(a, b, -p) as one fused multiply-subtract, which
// must leave every non-NaN result bit unchanged. NaN results compare by
// classification (a NaN's sign is not pinned down by IEEE).
TYPED_TEST(PackTyped, TwoProdMatchesScalarOnSpecials) {
    using T = TypeParam;
    std::vector<T> vals = special_values<T>();
    const auto more = sample_values<T>(32, 23);
    vals.insert(vals.end(), more.begin(), more.end());
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        for (std::size_t i = 0; i + W <= vals.size(); ++i) {
            for (std::size_t r = 0; r + W <= vals.size(); r += W) {
                const auto [p, e] =
                    mf::two_prod(P::load(vals.data() + i), P::load(vals.data() + r));
                for (int j = 0; j < W; ++j) {
                    const auto [sp, se] = mf::two_prod(vals[i + j], vals[r + j]);
                    const auto check = [&](T got, T want, const char* part) {
                        if (std::isnan(want)) {
                            ASSERT_TRUE(std::isnan(got)) << part << " W=" << W;
                        } else {
                            ASSERT_EQ(bits(got), bits(want))
                                << part << " W=" << W << " " << vals[i + j] << " * "
                                << vals[r + j];
                        }
                    };
                    check(p[j], sp, "product");
                    check(e[j], se, "error");
                }
            }
        }
    });
}

/// Knuth's 6-op TwoSum, spelled out: the reference for the ordered form
/// two_sum takes on packs that define order_by_magnitude (mf/eft.hpp).
template <typename T>
std::pair<T, T> knuth_two_sum(T a, T b) {
    const T s = a + b;
    const T a_eff = s - b;
    const T b_eff = s - a_eff;
    return {s, (a - a_eff) + (b - b_eff)};
}

/// A random finite T anywhere in the exponent range, subnormals included:
/// uniform biased exponent, uniform significand bits and sign. With
/// `near`, the exponent is instead within digits + 3 of near's, so the pair
/// rounds with a nonzero error more often than not.
template <typename T>
T random_finite(std::mt19937_64& rng, const T* near = nullptr) {
    using L = std::numeric_limits<T>;
    constexpr int kFrac = L::digits - 1;
    constexpr int kTop = (1 << (8 * static_cast<int>(sizeof(T)) - 1 - kFrac)) - 2;  // max finite
    int exp = static_cast<int>(rng() % (kTop + 1));
    if (near != nullptr) {
        const int base = static_cast<int>((bits(*near) >> kFrac) & static_cast<Bits<T>>(kTop + 1));
        exp = std::clamp(base + static_cast<int>(rng() % (2 * L::digits + 7)) - (L::digits + 3), 0,
                         kTop);
    }
    const Bits<T> r = static_cast<Bits<T>>(rng());
    const Bits<T> frac = r & ((Bits<T>(1) << kFrac) - 1);
    const Bits<T> sign = r & (Bits<T>(1) << (8 * sizeof(T) - 1));
    return std::bit_cast<T>(sign | (static_cast<Bits<T>>(exp) << kFrac) | frac);
}

// two_sum on packs against Knuth's TwoSum. On AVX-512DQ(+VL) builds the
// native packs run it as an ordered FastTwoSum (vrange picks the larger
// magnitude); everywhere else they run Knuth's form. Either way: the same
// (s, e) bits for every finite pair whose sum does not overflow, and the
// same NaN-ness of e when an input is inf or NaN. An overflowing finite sum
// is outside TwoSum's domain; there Knuth's e is NaN and the ordered form's
// is -s (an infinity of the other sign), pinned here so a change to either
// shows. Operands cross a grid of signed specials, ulp neighbours, ties
// a = +-b and the extremes pairwise, plus 2^20 random pairs over the whole
// exponent range.
TYPED_TEST(PackTyped, OrderedTwoSumMatchesKnuth) {
    using T = TypeParam;
    using L = std::numeric_limits<T>;
    std::vector<T> as, bs;
    {
        std::vector<T> grid;
        for (T x : {T(0), L::denorm_min(), T(2) * L::denorm_min(),
                    std::nextafter(L::min(), T(0)), L::min(), std::nextafter(L::min(), T(1)),
                    T(1), std::nextafter(T(1), T(2)), std::nextafter(T(1), T(0)),
                    L::epsilon() / T(2), L::epsilon(), T(1.5), T(3), L::max() / T(2),
                    std::nextafter(L::max(), T(0)), L::max(), L::infinity(), L::quiet_NaN()}) {
            grid.push_back(x);
            grid.push_back(-x);
        }
        for (T a : grid) {
            for (T b : grid) {
                as.push_back(a);
                bs.push_back(b);
            }
        }
        std::mt19937_64 rng(61);
        for (int i = 0; i < (1 << 20); ++i) {
            const T a = random_finite<T>(rng);
            as.push_back(a);
            bs.push_back(random_finite<T>(rng, i % 2 == 0 ? &a : nullptr));
        }
        while (as.size() % 16 != 0) {
            as.push_back(T(1));
            bs.push_back(T(1));
        }
    }
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        constexpr bool ordered = requires(P x) { order_by_magnitude(x, x); };
#if defined(MF_SIMD_X86) && defined(__AVX512DQ__) && defined(__AVX512VL__)
        EXPECT_EQ(ordered, sizeof(T) * W >= 16) << "W=" << W;
#else
        EXPECT_FALSE(ordered) << "W=" << W;
#endif
        std::size_t overflows = 0;
        for (std::size_t i = 0; i < as.size(); i += W) {
            const auto [s, e] = mf::two_sum(P::load(as.data() + i), P::load(bs.data() + i));
            for (int j = 0; j < W; ++j) {
                const T a = as[i + j], b = bs[i + j];
                const auto [ks, ke] = knuth_two_sum(a, b);
                if (std::isnan(ks)) {
                    ASSERT_TRUE(std::isnan(s[j])) << "W=" << W << " " << a << " + " << b;
                } else {
                    ASSERT_EQ(bits(s[j]), bits(ks)) << "W=" << W << " " << a << " + " << b;
                }
                if (!std::isfinite(a) || !std::isfinite(b)) {
                    ASSERT_EQ(std::isnan(e[j]), std::isnan(ke))
                        << "W=" << W << " " << a << " + " << b;
                } else if (std::isinf(ks)) {
                    ++overflows;
                    ASSERT_TRUE(std::isnan(ke));
                    if (ordered) {
                        ASSERT_EQ(bits(e[j]), bits(-ks)) << "W=" << W << " " << a << " + " << b;
                    } else {
                        ASSERT_TRUE(std::isnan(e[j])) << "W=" << W << " " << a << " + " << b;
                    }
                } else {
                    ASSERT_EQ(bits(e[j]), bits(ke)) << "W=" << W << " " << a << " + " << b;
                }
            }
        }
        EXPECT_GT(overflows, 0u);
    });
}

/// load_interleaved / store_interleaved for N = 1..4 at every width. The
/// reference is the primary template at W = 1: its loop, applied to record j
/// alone, must give lane j of every pack. Stores must round-trip the records
/// bit for bit and leave the scalars around them untouched.
TYPED_TEST(PackTyped, InterleavedRoundTripMatchesPrimaryTemplate) {
    using T = TypeParam;
    for_each_width<T>([](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        using P1 = Pack<T, 1>;
        const auto check_limbs = [&](auto n) {
            constexpr int N = n();
            const auto vals = sample_values<T>(3 * W * N + 2, 300 + W * N);
            for (int off = 0; off < W; ++off) {
                const T* src = vals.data() + off;
                const std::array<P, N> packs = P::template load_interleaved<N>(src);
                for (int j = 0; j < W; ++j) {
                    const std::array<P1, N> ref =
                        P1::template load_interleaved<N>(src + j * N);
                    for (int k = 0; k < N; ++k) {
                        ASSERT_EQ(bits(packs[k][j]), bits(ref[k][0]))
                            << "W=" << W << " N=" << N << " lane=" << j << " limb=" << k;
                    }
                }
                const T guard = std::numeric_limits<T>::quiet_NaN();
                std::vector<T> out(W * N + 2 * W, guard);
                P::template store_interleaved<N>(packs, out.data() + W);
                for (int i = 0; i < W * N; ++i) {
                    ASSERT_EQ(bits(out[W + i]), bits(src[i])) << "W=" << W << " N=" << N;
                }
                for (int i = 0; i < W; ++i) {
                    ASSERT_EQ(bits(out[i]), bits(guard)) << "W=" << W << " N=" << N;
                    ASSERT_EQ(bits(out[W + W * N + i]), bits(guard)) << "W=" << W << " N=" << N;
                }
            }
        };
        check_limbs(std::integral_constant<int, 1>{});
        check_limbs(std::integral_constant<int, 2>{});
        check_limbs(std::integral_constant<int, 3>{});
        check_limbs(std::integral_constant<int, 4>{});
    });
}

/// Partial moves at every width: load_n / store_n for count 0..W, and the
/// record transposes load_interleaved_n / store_interleaved_n for N = 1..4
/// and count 0..W-1. Live lanes must equal the primary template at W = 1 on
/// each record, the other lanes must be +0, and a store must write exactly
/// the live scalars, bit for bit, leaving the ones around them untouched.
TYPED_TEST(PackTyped, PartialMovesMatchPrimaryTemplate) {
    using T = TypeParam;
    for_each_width<T>([](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        using P1 = Pack<T, 1>;
        const T guard = std::numeric_limits<T>::quiet_NaN();
        const auto vals = sample_values<T>(W + 2, 400 + W);
        for (int count = 0; count <= W; ++count) {
            const P p = P::load_n(vals.data() + 1, count);
            for (int j = 0; j < W; ++j) {
                ASSERT_EQ(bits(p[j]), j < count ? bits(vals[1 + j]) : bits(T(0)))
                    << "load_n W=" << W << " count=" << count << " lane=" << j;
            }
            std::vector<T> out(W + 2, guard);
            P::load(vals.data()).store_n(out.data() + 1, count);
            for (int i = 0; i < W + 2; ++i) {
                const bool live = i >= 1 && i <= count;
                ASSERT_EQ(bits(out[i]), live ? bits(vals[i - 1]) : bits(guard))
                    << "store_n W=" << W << " count=" << count << " at " << i;
            }
        }
        const auto check_limbs = [&](auto n) {
            constexpr int N = n();
            const auto vals_n = sample_values<T>(W * N + 2, 500 + W * N);
            const T* src = vals_n.data() + 1;
            for (int count = 0; count < W; ++count) {
                const std::array<P, N> packs = P::template load_interleaved_n<N>(src, count);
                for (int j = 0; j < W; ++j) {
                    for (int k = 0; k < N; ++k) {
                        const T want = j < count
                                           ? P1::template load_interleaved<N>(src + j * N)[k][0]
                                           : T(0);
                        ASSERT_EQ(bits(packs[k][j]), bits(want))
                            << "W=" << W << " N=" << N << " count=" << count << " lane=" << j
                            << " limb=" << k;
                    }
                }
                const std::array<P, N> full = P::template load_interleaved<N>(src);
                std::vector<T> out(W * N + 2 * W, guard);
                P::template store_interleaved_n<N>(full, out.data() + W, count);
                for (int i = 0; i < W * N + 2 * W; ++i) {
                    const bool live = i >= W && i < W + count * N;
                    ASSERT_EQ(bits(out[i]), live ? bits(src[i - W]) : bits(guard))
                        << "W=" << W << " N=" << N << " count=" << count << " at " << i;
                }
            }
        };
        check_limbs(std::integral_constant<int, 1>{});
        check_limbs(std::integral_constant<int, 2>{});
        check_limbs(std::integral_constant<int, 3>{});
        check_limbs(std::integral_constant<int, 4>{});
    });
}

/// The partial moves touch nothing past their last live scalar: the records
/// end exactly where a PROT_NONE page begins, so a read or write beyond them
/// faults and kills the test. Every width, N = 1..4, count 0..W-1.
TYPED_TEST(PackTyped, PartialMovesStopAtAGuardPage) {
    using T = TypeParam;
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    void* mem = mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    ASSERT_NE(mem, MAP_FAILED);
    ASSERT_EQ(mprotect(static_cast<char*>(mem) + page, page, PROT_NONE), 0);
    T* const end = reinterpret_cast<T*>(static_cast<char*>(mem) + page);
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        const auto vals = sample_values<T>(4 * W, 600 + W);
        const auto check_limbs = [&](auto n) {
            constexpr int N = n();
            for (int count = 0; count < W; ++count) {
                T* const p = end - count * N;
                for (int i = 0; i < count * N; ++i) p[i] = vals[i];
                const std::array<P, N> packs = P::template load_interleaved_n<N>(p, count);
                for (int i = 0; i < count * N; ++i) p[i] = T(0);
                P::template store_interleaved_n<N>(packs, p, count);
                for (int i = 0; i < count * N; ++i) {
                    ASSERT_EQ(bits(p[i]), bits(vals[i]))
                        << "W=" << W << " N=" << N << " count=" << count;
                }
            }
        };
        check_limbs(std::integral_constant<int, 1>{});
        check_limbs(std::integral_constant<int, 2>{});
        check_limbs(std::integral_constant<int, 3>{});
        check_limbs(std::integral_constant<int, 4>{});
        for (int count = 0; count < W; ++count) {
            const P v = P::load_n(end - count, count);
            v.store_n(end - count, count);
            for (int j = 0; j < count; ++j) ASSERT_EQ(bits(v[j]), bits(end[j - count]));
        }
    });
    munmap(mem, 2 * page);
}

/// cmp_lt and select against the scalar a < b ? x : y in every lane, over
/// specials: the compare is ordered (false when either side is NaN, -0 not
/// below +0) and the select copies bits (NaN payloads, zero signs).
TYPED_TEST(PackTyped, CompareSelectMatchesScalar) {
    using T = TypeParam;
    std::vector<T> vals = special_values<T>();
    const auto more = sample_values<T>(32, 61);
    vals.insert(vals.end(), more.begin(), more.end());
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        for (std::size_t i = 0; i + W <= vals.size(); ++i) {
            for (std::size_t r = 0; r + W <= vals.size(); r += W) {
                const P a = P::load(vals.data() + i);
                const P b = P::load(vals.data() + r);
                const P got = select(cmp_lt(a, b), -a, b);
                for (int j = 0; j < W; ++j) {
                    const T x = vals[i + j];
                    const T y = vals[r + j];
                    ASSERT_EQ(bits(got[j]), bits(x < y ? -x : y))
                        << "W=" << W << " " << x << " < " << y;
                }
            }
        }
    });
}

/// setr and halves at every width, against the primary template's loops:
/// setr(x_0, ..., x_{W-1}) must equal load() of the same scalars, and
/// halves() must give lanes [0, W/2) and [W/2, W) as packs of width W/2.
/// Nothing rounds, so every bit must survive, NaN payloads and signed
/// zeros included.
TYPED_TEST(PackTyped, SetrAndHalvesMatchPrimaryTemplate) {
    using T = TypeParam;
    std::vector<T> vals = special_values<T>();
    const auto more = sample_values<T>(32, 41);
    vals.insert(vals.end(), more.begin(), more.end());
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        for (std::size_t i = 0; i + W <= vals.size(); ++i) {
            const T* src = vals.data() + i;
            const P p = [&]<std::size_t... J>(std::index_sequence<J...>) {
                return P::setr(src[J]...);
            }(std::make_index_sequence<W>{});
            const P ref = P::load(src);
            for (int j = 0; j < W; ++j) {
                ASSERT_EQ(bits(p[j]), bits(ref[j])) << "setr W=" << W << " lane=" << j;
                ASSERT_EQ(bits(p[j]), bits(src[j])) << "setr W=" << W << " lane=" << j;
            }
            if constexpr (W % 2 == 0) {
                using H = Pack<T, W / 2>;
                const auto [lo, hi] = p.halves();
                static_assert(std::is_same_v<std::remove_cvref_t<decltype(lo)>, H>);
                const H want_lo = H::load(src);
                const H want_hi = H::load(src + W / 2);
                for (int j = 0; j < W / 2; ++j) {
                    ASSERT_EQ(bits(lo[j]), bits(want_lo[j])) << "halves W=" << W << " lane=" << j;
                    ASSERT_EQ(bits(hi[j]), bits(want_hi[j])) << "halves W=" << W << " lane=" << j;
                }
            }
        }
    });
}

TEST(Backend, EnumerationAndWidths) {
    using namespace mf::simd;
    // scalar is always compiled, supported, and selectable.
    EXPECT_TRUE(backend_available(Backend::scalar));
    EXPECT_EQ(backend_width<double>(Backend::scalar), 1);
    EXPECT_EQ(backend_width<float>(Backend::scalar), 1);
    EXPECT_EQ(backend_width<double>(Backend::sse2), 2);
    EXPECT_EQ(backend_width<double>(Backend::avx2), 4);
    EXPECT_EQ(backend_width<double>(Backend::avx512), 8);
    EXPECT_EQ(backend_width<float>(Backend::avx512), 16);
    // Name round-trips.
    for (Backend b : {Backend::scalar, Backend::sse2, Backend::avx2,
                      Backend::avx512, Backend::neon}) {
        Backend parsed;
        ASSERT_TRUE(parse_backend(backend_name(b), &parsed));
        EXPECT_EQ(parsed, b);
    }
    Backend dummy;
    EXPECT_FALSE(parse_backend("riscv-vector", &dummy));
    // The startup choice is available, and set_backend round-trips through
    // every available backend; the active width always matches the enum's.
    const Backend initial = active_backend();
    EXPECT_TRUE(backend_available(initial));
    for (Backend b : {Backend::scalar, Backend::sse2, Backend::avx2,
                      Backend::avx512, Backend::neon}) {
        if (!backend_available(b)) {
            EXPECT_FALSE(set_backend(b));
            continue;
        }
        ASSERT_TRUE(set_backend(b));
        EXPECT_EQ(active_backend(), b);
        EXPECT_EQ(active_width<double>(), backend_width<double>(b));
        EXPECT_EQ(active_width<float>(), backend_width<float>(b));
    }
    ASSERT_TRUE(set_backend(initial));
}

}  // namespace
