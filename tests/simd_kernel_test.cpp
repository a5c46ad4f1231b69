// Pack-level FPAN kernels and the runtime dispatch layer: every width and
// every available backend must be bit-for-bit identical to the scalar
// mf::add / mf::mul kernels on the elementwise paths -- including empty,
// sub-width, and W+-1 tail sizes and misaligned range starts -- and the
// reductions must match the historical eight-accumulator order (widths <= 8)
// or the exact oracle (wider). Each kernel runs on planar and on AoS
// operands, with sentinels around the output and inputs that end where
// their allocation does. Mirrors tests/planar_test.cpp on the explicit SIMD
// path.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/kernels.hpp"
#include "blas/planar.hpp"
#include "check/reference.hpp"
#include "simd/simd.hpp"
#include "support.hpp"

namespace {

using namespace mf;
using mf::big::BigFloat;
using mf::test::adversarial;
using mf::test::exact;

template <typename T>
using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

template <typename T>
Bits<T> bits(T x) {
    return std::bit_cast<Bits<T>>(x);
}

template <typename T, typename F>
void for_each_width(F f) {
    f(std::integral_constant<int, 1>{});
    f(std::integral_constant<int, 2>{});
    f(std::integral_constant<int, 4>{});
    f(std::integral_constant<int, 8>{});
    if constexpr (sizeof(T) == 4) f(std::integral_constant<int, 16>{});
}

/// RAII: run a test body under one backend, restore the original after.
class BackendGuard {
public:
    BackendGuard() : saved_(simd::active_backend()) {}
    ~BackendGuard() { simd::set_backend(saved_); }

private:
    simd::Backend saved_;
};

template <typename MF>
class SimdKernelTyped : public ::testing::Test {};

using Types = ::testing::Types<MultiFloat<double, 2>, MultiFloat<double, 3>,
                               MultiFloat<double, 4>, MultiFloat<float, 2>,
                               MultiFloat<float, 4>>;
TYPED_TEST_SUITE(SimdKernelTyped, Types);

/// Fill planar + reference AoS vectors with adversarial expansions.
template <typename T, int N>
void fill(std::mt19937_64& rng, std::size_t n, planar::Vector<T, N>& v,
          std::vector<MultiFloat<T, N>>& ref) {
    v.resize(n);
    ref.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ref[i] = adversarial<T, N>(rng, -6, 6);
        v.set(i, ref[i]);
    }
}

/// Run f(integral_constant<bool, interleaved>) for the planar and the AoS
/// layout.
template <typename F>
void for_each_layout(F f) {
    f(std::false_type{});
    f(std::true_type{});
}

/// Operand storage in one layout: `n` elements one past the start of their
/// allocation (a misaligned start), then `pad` sentinel elements, which are
/// signaling NaNs: arithmetic on one returns a different (quiet) NaN, so a
/// stray write cannot reproduce them. With pad = 0 the elements end exactly
/// where the allocation does (every plane's, for planar storage), so a read
/// past them trips ASan.
template <typename MF, bool Interleaved>
class Buffer {
public:
    using T = typename MF::value_type;
    static constexpr int N = MF::num_limbs;

    Buffer(std::mt19937_64& rng, std::size_t n, std::size_t pad) : len_(1 + n + pad) {
        if constexpr (Interleaved) {
            aos_.assign(len_, MF{});
        } else {
            for (auto& p : planes_) p.assign(len_, T(0));
        }
        MF sentinel;
        for (int k = 0; k < N; ++k) sentinel.limb[k] = std::numeric_limits<T>::signaling_NaN();
        for (std::size_t i = 0; i < len_; ++i) {
            const bool inside = i >= 1 && i <= n;
            all().set(i, inside ? adversarial<T, N>(rng, -6, 6) : sentinel);
        }
    }

    /// The accessor over the whole allocation, sentinels included.
    [[nodiscard]] auto all() {
        if constexpr (Interleaved) {
            return simd::aos(aos_.data());
        } else {
            simd::Planar<T, N> r;
            for (int k = 0; k < N; ++k) r.planes[k] = planes_[k].data();
            return r;
        }
    }
    /// The accessor over the n elements.
    [[nodiscard]] auto operand() { return all() + 1; }
    [[nodiscard]] std::size_t size() const { return len_; }

private:
    std::size_t len_;
    std::vector<MF> aos_;
    std::vector<T> planes_[N];
};

/// Every element of `got` (the whole allocation) against `want(i)`.
template <typename MF, bool Interleaved, typename Want>
void expect_bits(Buffer<MF, Interleaved>& got, const Want& want, const std::string& where) {
    for (std::size_t i = 0; i < got.size(); ++i) {
        const MF g = got.all().get(i);
        const MF w = want(i);
        for (int k = 0; k < MF::num_limbs; ++k) {
            ASSERT_EQ(bits(g.limb[k]), bits(w.limb[k]))
                << where << " i=" << i << (Interleaved ? " aos" : " planar");
        }
    }
}

/// z = x + y at every width and on both layouts against the scalar
/// network, z's sentinels untouched.
TYPED_TEST(SimdKernelTyped, AddRangeEveryWidthBitExact) {
    using T = typename TypeParam::value_type;
    constexpr std::size_t kSentinels = 17;
    std::mt19937_64 rng(21);
    for_each_layout([&](auto layout) {
        constexpr bool kAos = decltype(layout)::value;
        for_each_width<T>([&](auto w) {
            constexpr int W = w();
            for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(W - 1),
                                  std::size_t(W), std::size_t(W + 1),
                                  std::size_t(2 * W + 3), std::size_t(257)}) {
                Buffer<TypeParam, kAos> x(rng, n, 0), y(rng, n, 0), z(rng, n, kSentinels);
                Buffer<TypeParam, kAos> z0 = z;
                simd::kernels::add<W>(x.operand(), y.operand(), z.operand(), n);
                expect_bits(
                    z,
                    [&](std::size_t i) {
                        return i >= 1 && i <= n ? add(x.all().get(i), y.all().get(i))
                                                : z0.all().get(i);
                    },
                    "W=" + std::to_string(W) + " n=" + std::to_string(n));
            }
        });
    });
}

/// y = alpha * x + y at every width on one layout against the scalar
/// network. x ends exactly where its allocation does, so a read past n
/// trips ASan, and y's sentinels must come back bit-for-bit untouched: the
/// partial pack reads and writes the live elements only. One body, run by
/// the planar and the AoS test below.
template <typename MF, bool Aos>
void axpy_every_width(std::uint64_t seed) {
    using T = typename MF::value_type;
    constexpr int N = MF::num_limbs;
    constexpr std::size_t kSentinels = 17;
    std::mt19937_64 rng(seed);
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        const MF alpha = adversarial<T, N>(rng, -2, 2);
        for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(W - 1),
                              std::size_t(W), std::size_t(W + 1), std::size_t(3 * W + 1),
                              std::size_t(65), std::size_t(129), std::size_t(256)}) {
            Buffer<MF, Aos> x(rng, n, 0), y(rng, n, kSentinels);
            Buffer<MF, Aos> y0 = y;
            simd::kernels::axpy<W>(alpha, x.operand(), y.operand(), n);
            expect_bits(
                y,
                [&](std::size_t i) {
                    return i >= 1 && i <= n ? add(mul(alpha, x.all().get(i)), y0.all().get(i))
                                            : y0.all().get(i);
                },
                "W=" + std::to_string(W) + " n=" + std::to_string(n));
        }
    });
}

/// Planar axpy (fma_range is its series name).
TYPED_TEST(SimdKernelTyped, FmaRangeEveryWidthBitExact) {
    axpy_every_width<TypeParam, false>(22);
}

/// AoS axpy (series name axpy_aos).
TYPED_TEST(SimdKernelTyped, AxpyAosEveryWidthMatchesScalar) {
    axpy_every_width<TypeParam, true>(25);
}

/// Reference for the reduction: the historical eight-accumulator planar dot
/// (seed planar.hpp), written out scalar. Pack widths <= 8 must reproduce it
/// bit-for-bit.
template <typename T, int N>
MultiFloat<T, N> dot_ref8(const std::vector<MultiFloat<T, N>>& x,
                          const std::vector<MultiFloat<T, N>>& y) {
    constexpr std::size_t K = 8;
    const std::size_t n = x.size();
    MultiFloat<T, N> part[K]{};
    for (std::size_t blk = 0; blk + K <= n; blk += K) {
        for (std::size_t j = 0; j < K; ++j) {
            part[j] = add(part[j], mul(x[blk + j], y[blk + j]));
        }
    }
    MultiFloat<T, N> acc{};
    for (std::size_t j = 0; j < K; ++j) acc = add(acc, part[j]);
    for (std::size_t i = n - n % K; i < n; ++i) acc = add(acc, mul(x[i], y[i]));
    return acc;
}

/// <x, y> at every width on both layouts: the eight-accumulator reference
/// for W <= 8, the exact oracle's bound above, and the same bits on either
/// layout. Both operands end where their allocations do.
TYPED_TEST(SimdKernelTyped, DotEveryWidthMatchesReference) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(23);
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(W + 1),
                              std::size_t(65), std::size_t(256)}) {
            Buffer<TypeParam, false> x(rng, n, 0), y(rng, n, 0);
            std::vector<TypeParam> xa(n), ya(n);
            for (std::size_t i = 0; i < n; ++i) {
                xa[i] = x.operand().get(i);
                ya[i] = y.operand().get(i);
            }
            const TypeParam got = simd::kernels::dot<W>(x.operand(), y.operand(), n);
            if constexpr (W <= 8) {
                const TypeParam want = dot_ref8(xa, ya);
                for (int k = 0; k < N; ++k) {
                    ASSERT_EQ(bits(got.limb[k]), bits(want.limb[k]))
                        << "W=" << W << " n=" << n;
                }
            } else {
                BigFloat want;
                for (std::size_t i = 0; i < n; ++i) {
                    want = want + exact(xa[i]) * exact(ya[i]);
                }
                if (!want.is_zero()) {
                    MF_EXPECT_REL_BOUND(got, want, N * p - N - 16);
                }
            }
            // AoS operands: identical accumulator discipline, identical result.
            Buffer<TypeParam, true> xi(rng, n, 0), yi(rng, n, 0);
            for (std::size_t i = 0; i < n; ++i) {
                xi.operand().set(i, xa[i]);
                yi.operand().set(i, ya[i]);
            }
            const TypeParam got_aos = simd::kernels::dot<W>(xi.operand(), yi.operand(), n);
            for (int k = 0; k < N; ++k) {
                ASSERT_EQ(bits(got_aos.limb[k]), bits(got.limb[k])) << "W=" << W;
            }
        }
    });
}

TYPED_TEST(SimdKernelTyped, DispatchedAxpyBitExactOnEveryBackend) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(24);
    const std::size_t n = 173;
    planar::Vector<T, N> x;
    std::vector<TypeParam> xa, ya;
    fill(rng, n, x, xa);
    ya.resize(n);
    const TypeParam alpha = adversarial<T, N>(rng, -2, 2);
    BackendGuard guard;
    for (simd::Backend b : {simd::Backend::scalar, simd::Backend::sse2,
                            simd::Backend::avx2, simd::Backend::avx512,
                            simd::Backend::neon}) {
        if (!simd::set_backend(b)) continue;
        planar::Vector<T, N> y(n);
        for (std::size_t i = 0; i < n; ++i) {
            ya[i] = adversarial<T, N>(rng, -6, 6);
            y.set(i, ya[i]);
        }
        planar::axpy(alpha, x, y);
        for (std::size_t i = 0; i < n; ++i) {
            const TypeParam want = add(mul(alpha, xa[i]), ya[i]);
            const TypeParam got = y.get(i);
            for (int k = 0; k < N; ++k) {
                ASSERT_EQ(bits(got.limb[k]), bits(want.limb[k]))
                    << simd::backend_name(b) << " i=" << i;
            }
        }
    }
}

TYPED_TEST(SimdKernelTyped, BlasKernelsUseBitExactPackPath) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(26);
    const std::size_t n = 97;
    std::vector<TypeParam> x(n), y(n), y0(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = adversarial<T, N>(rng, -4, 4);
        y[i] = y0[i] = adversarial<T, N>(rng, -4, 4);
    }
    const TypeParam alpha = adversarial<T, N>(rng, -2, 2);
    blas::axpy<TypeParam>(alpha, blas::view(x), blas::view(y));
    for (std::size_t i = 0; i < n; ++i) {
        const TypeParam want = add(mul(alpha, x[i]), y0[i]);
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(bits(y[i].limb[k]), bits(want.limb[k])) << i;
        }
    }
    const TypeParam d = blas::dot<TypeParam>(blas::view(x), blas::view(y));
    BigFloat want_d;
    for (std::size_t i = 0; i < n; ++i) want_d = want_d + exact(x[i]) * exact(y[i]);
    if (!want_d.is_zero()) {
        MF_EXPECT_REL_BOUND(d, want_d, N * p - N - 16);
    }
    // gemm: pack path must equal the scalar fused-update reference.
    const std::size_t gn = 6, gk = 5, gm = 7;
    std::vector<TypeParam> ga(gn * gk), gb(gk * gm), gc(gn * gm), gref(gn * gm);
    for (auto& v : ga) v = adversarial<T, N>(rng, -4, 4);
    for (auto& v : gb) v = adversarial<T, N>(rng, -4, 4);
    blas::gemm<TypeParam>(blas::view(ga, gn, gk), blas::view(gb, gk, gm),
                          blas::view(gc, gn, gm));
    check::reference_gemm<T, N>(blas::view(std::as_const(ga), gn, gk),
                                blas::view(std::as_const(gb), gk, gm),
                                blas::view(gref, gn, gm));
    for (std::size_t i = 0; i < gn * gm; ++i) {
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(bits(gc[i].limb[k]), bits(gref[i].limb[k])) << i;
        }
    }
}

}  // namespace
