// Pack-level FPAN kernels and the runtime dispatch layer: every width and
// every available backend must be bit-for-bit identical to the scalar
// mf::add / mf::mul kernels on the elementwise paths -- including empty,
// sub-width, and W+-1 tail sizes and misaligned range starts -- and the
// reductions must match the historical eight-accumulator order (widths <= 8)
// or the exact oracle (wider). The AoS kernels get the same treatment, with
// sentinels around the output. Mirrors tests/planar_test.cpp on the explicit
// SIMD path.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
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

TYPED_TEST(SimdKernelTyped, AddRangeEveryWidthBitExact) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(21);
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(W - 1),
                              std::size_t(W), std::size_t(W + 1),
                              std::size_t(2 * W + 3), std::size_t(257)}) {
            planar::Vector<T, N> x, y, z;
            std::vector<TypeParam> xa, ya;
            fill(rng, n, x, xa);
            fill(rng, n, y, ya);
            z.resize(n);
            const T* xp[N];
            const T* yp[N];
            T* zp[N];
            for (int k = 0; k < N; ++k) {
                xp[k] = x.plane(k);
                yp[k] = y.plane(k);
                zp[k] = z.plane(k);
            }
            // Misaligned start: begin at element 1 when there is one.
            const std::size_t i0 = n > 4 ? 1 : 0;
            simd::kernels::add_range<T, N, W>(xp, yp, zp, i0, n);
            for (std::size_t i = i0; i < n; ++i) {
                const TypeParam want = add(xa[i], ya[i]);
                const TypeParam got = z.get(i);
                for (int k = 0; k < N; ++k) {
                    ASSERT_EQ(bits(got.limb[k]), bits(want.limb[k]))
                        << "W=" << W << " n=" << n << " i=" << i;
                }
            }
        }
    });
}

TYPED_TEST(SimdKernelTyped, FmaRangeEveryWidthBitExact) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(22);
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        const TypeParam alpha = adversarial<T, N>(rng, -2, 2);
        for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(W - 1),
                              std::size_t(W), std::size_t(W + 1),
                              std::size_t(3 * W + 1), std::size_t(129)}) {
            planar::Vector<T, N> x, y;
            std::vector<TypeParam> xa, ya;
            fill(rng, n, x, xa);
            fill(rng, n, y, ya);
            const T* xp[N];
            T* yp[N];
            for (int k = 0; k < N; ++k) {
                xp[k] = x.plane(k);
                yp[k] = y.plane(k);
            }
            simd::kernels::fma_range<T, N, W>(alpha, xp, yp, 0, n);
            for (std::size_t i = 0; i < n; ++i) {
                const TypeParam want = add(mul(alpha, xa[i]), ya[i]);
                const TypeParam got = y.get(i);
                for (int k = 0; k < N; ++k) {
                    ASSERT_EQ(bits(got.limb[k]), bits(want.limb[k]))
                        << "W=" << W << " n=" << n << " i=" << i;
                }
            }
        }
    });
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

TYPED_TEST(SimdKernelTyped, DotEveryWidthMatchesReference) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(23);
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(W + 1),
                              std::size_t(65), std::size_t(256)}) {
            planar::Vector<T, N> x, y;
            std::vector<TypeParam> xa, ya;
            fill(rng, n, x, xa);
            fill(rng, n, y, ya);
            const T* xp[N];
            const T* yp[N];
            for (int k = 0; k < N; ++k) {
                xp[k] = x.plane(k);
                yp[k] = y.plane(k);
            }
            const TypeParam got = simd::kernels::dot<T, N, W>(xp, yp, n);
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
            // AoS kernel: identical accumulator discipline, identical result.
            const TypeParam got_aos =
                simd::kernels::dot_aos<T, N, W>(xa.data(), ya.data(), n);
            for (int k = 0; k < N; ++k) {
                ASSERT_EQ(bits(got_aos.limb[k]), bits(got.limb[k])) << "W=" << W;
            }
        }
    });
}

/// AoS axpy at every width against the scalar network. x and y start one
/// element into their arrays, x ends exactly where its allocation does (so a
/// read past n trips ASan), and y carries sentinels before and after the n
/// elements that must come back bit-for-bit untouched. The sentinels are
/// signaling NaNs: arithmetic on one returns a different (quiet) NaN, so a
/// stray write cannot reproduce them.
TYPED_TEST(SimdKernelTyped, AxpyAosEveryWidthMatchesScalar) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr std::size_t kSentinels = 17;
    std::mt19937_64 rng(25);
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        const TypeParam alpha = adversarial<T, N>(rng, -2, 2);
        TypeParam sentinel;
        for (int k = 0; k < N; ++k) sentinel.limb[k] = std::numeric_limits<T>::signaling_NaN();
        for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(W - 1),
                              std::size_t(W), std::size_t(W + 1), std::size_t(65),
                              std::size_t(256)}) {
            std::vector<TypeParam> x(1 + n), y(1 + n + kSentinels, sentinel), y0;
            for (std::size_t i = 1; i <= n; ++i) {
                x[i] = adversarial<T, N>(rng, -6, 6);
                y[i] = adversarial<T, N>(rng, -6, 6);
            }
            y0 = y;
            simd::kernels::axpy_aos<T, N, W>(alpha, x.data() + 1, y.data() + 1, n);
            for (std::size_t i = 0; i < y.size(); ++i) {
                const bool inside = i >= 1 && i <= n;
                const TypeParam want = inside ? add(mul(alpha, x[i]), y0[i]) : y0[i];
                for (int k = 0; k < N; ++k) {
                    ASSERT_EQ(bits(y[i].limb[k]), bits(want.limb[k]))
                        << "W=" << W << " n=" << n << " i=" << i
                        << (inside ? "" : " (sentinel)");
                }
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
