#pragma once
// Pack-level FPAN kernels: the scalar accumulation networks of mf/add.hpp
// and mf/mul.hpp instantiated over MultiFloat<Pack<T, W>, N> -- W elements
// march through the SAME gate sequence in lock-step, one lane each. The
// elementwise kernels process the bulk in W-wide steps and finish with one
// partial pack (Pack::load_n / load_interleaved_n and their stores), which
// reads and writes only the remaining elements: every element, the last
// ones included, runs the identical network, so the result is bit-identical
// to the scalar kernel (tests/simd_kernel_test.cpp). The reductions keep an
// explicit scalar tail, because their bits depend on the order in which the
// last elements join the accumulator.
//
// Two memory layouts are served:
//  * planar (SoA) raw plane pointers, as used by mf::planar::Vector -- packs
//    load W consecutive elements of one limb with a single unaligned load;
//  * AoS spans of MultiFloat<T, N>, as used by mf::blas -- limbs are
//    interleaved, so W elements are N*W consecutive scalars, and
//    Pack::load_interleaved / store_interleaved transpose them in registers
//    (pack.hpp says why not through a lane buffer). At N = 2 the AoS kernels
//    run within about 1.2x of planar.
//
// The kernels count nothing: the dispatched entries of dispatch.hpp bump
// mf_simd_kernel_ops_total once per call, and a caller that hoists the
// dispatch out of its loop (blas::ger, planar::gemv) counts its own total.

#include <algorithm>
#include <array>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "../mf/add.hpp"
#include "../mf/math.hpp"
#include "../mf/mul.hpp"
#include "pack.hpp"

namespace mf::simd::kernels {

/// Load lanes [i, i+W) of an N-limb planar range into a pack MultiFloat.
template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE MultiFloat<P, N> load_planar(const T* const* planes, std::size_t i) noexcept {
    MultiFloat<P, N> r;
    for (int k = 0; k < N; ++k) r.limb[k] = P::load(planes[k] + i);
    return r;
}

template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE void store_planar(const MultiFloat<P, N>& v, T* const* planes,
                                   std::size_t i) noexcept {
    for (int k = 0; k < N; ++k) v.limb[k].store(planes[k] + i);
}

/// Lanes [i, i+count) of a planar range, count < W; the other lanes are zero.
template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE MultiFloat<P, N> load_planar_n(const T* const* planes, std::size_t i,
                                                int count) noexcept {
    MultiFloat<P, N> r;
    for (int k = 0; k < N; ++k) r.limb[k] = P::load_n(planes[k] + i, count);
    return r;
}

template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE void store_planar_n(const MultiFloat<P, N>& v, T* const* planes,
                                     std::size_t i, int count) noexcept {
    for (int k = 0; k < N; ++k) v.limb[k].store_n(planes[k] + i, count);
}

/// Broadcast one scalar expansion across all W lanes.
template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE MultiFloat<P, N> broadcast(const MultiFloat<T, N>& x) noexcept {
    MultiFloat<P, N> r;
    for (int k = 0; k < N; ++k) r.limb[k] = P::broadcast(x.limb[k]);
    return r;
}

/// The scalars of n consecutive AoS elements, in memory order: limb k of
/// element j is at [j * N + k], the record layout of P::load_interleaved.
template <std::floating_point T, int N>
MF_ALWAYS_INLINE const T* limbs_of(const MultiFloat<T, N>* p) noexcept {
    static_assert(sizeof(MultiFloat<T, N>) == N * sizeof(T) &&
                  std::is_standard_layout_v<MultiFloat<T, N>>);
    return reinterpret_cast<const T*>(p);
}
template <std::floating_point T, int N>
MF_ALWAYS_INLINE T* limbs_of(MultiFloat<T, N>* p) noexcept {
    return const_cast<T*>(limbs_of(static_cast<const MultiFloat<T, N>*>(p)));
}

/// Transpose W consecutive AoS elements into a pack MultiFloat.
template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE MultiFloat<P, N> load_aos(const MultiFloat<T, N>* p) noexcept {
    return MultiFloat<P, N>(P::template load_interleaved<N>(limbs_of(p)));
}

template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE void store_aos(const MultiFloat<P, N>& v, MultiFloat<T, N>* p) noexcept {
    P::template store_interleaved<N>(v.limb, limbs_of(p));
}

/// The first `count` < W AoS elements; the other lanes are zero.
template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE MultiFloat<P, N> load_aos_n(const MultiFloat<T, N>* p, int count) noexcept {
    return MultiFloat<P, N>(P::template load_interleaved_n<N>(limbs_of(p), count));
}

template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE void store_aos_n(const MultiFloat<P, N>& v, MultiFloat<T, N>* p,
                                  int count) noexcept {
    P::template store_interleaved_n<N>(v.limb, limbs_of(p), count);
}

/// Extract lane j of a pack expansion as a scalar expansion.
template <std::floating_point T, int N, typename P>
MF_ALWAYS_INLINE MultiFloat<T, N> lane(const MultiFloat<P, N>& v, int j) noexcept {
    MultiFloat<T, N> r;
    for (int k = 0; k < N; ++k) r.limb[k] = v.limb[k][j];
    return r;
}

// ---------------------------------------------------------------------------
// Planar (SoA) kernels
// ---------------------------------------------------------------------------

/// z[i] = x[i] + y[i] over planes, for i in [i0, i1).
template <std::floating_point T, int N, int W>
void add_range(const T* const* xp, const T* const* yp, T* const* zp,
               std::size_t i0, std::size_t i1) {
    using P = Pack<T, W>;
    std::size_t i = i0;
    for (; i + W <= i1; i += W) {
        const MultiFloat<P, N> x = load_planar<P, T, N>(xp, i);
        const MultiFloat<P, N> y = load_planar<P, T, N>(yp, i);
        store_planar<P, T, N>(add(x, y), zp, i);
    }
    if (i < i1) {  // one partial pack: same network, the live lanes only
        const int c = static_cast<int>(i1 - i);
        const MultiFloat<P, N> x = load_planar_n<P, T, N>(xp, i, c);
        const MultiFloat<P, N> y = load_planar_n<P, T, N>(yp, i, c);
        store_planar_n<P, T, N>(add(x, y), zp, i, c);
    }
}

/// y[i] = alpha * x[i] + y[i] over planes, for i in [i0, i1).
template <std::floating_point T, int N, int W>
void fma_range(const MultiFloat<T, N>& alpha, const T* const* xp, T* const* yp,
               std::size_t i0, std::size_t i1) {
    using P = Pack<T, W>;
    const MultiFloat<P, N> av = broadcast<P, T, N>(alpha);
    std::size_t i = i0;
    for (; i + W <= i1; i += W) {
        const MultiFloat<P, N> x = load_planar<P, T, N>(xp, i);
        const MultiFloat<P, N> y = load_planar<P, T, N>(yp, i);
        store_planar<P, T, N>(add(mul(av, x), y), yp, i);
    }
    if (i < i1) {
        const int c = static_cast<int>(i1 - i);
        const MultiFloat<P, N> x = load_planar_n<P, T, N>(xp, i, c);
        const MultiFloat<P, N> y = load_planar_n<P, T, N>(yp, i, c);
        store_planar_n<P, T, N>(add(mul(av, x), y), yp, i, c);
    }
}

/// <x, y> over planes. Accumulator layout: BLK = max(8, W) independent
/// accumulator lanes held in BLK/W packs. For W <= 8 this reproduces the
/// seed planar::dot exactly -- eight accumulators, lane j of each 8-block
/// feeding accumulator j, final merge in lane order then a scalar tail --
/// so the result is bit-identical to the pre-SIMD path.
template <std::floating_point T, int N, int W>
[[nodiscard]] MultiFloat<T, N> dot(const T* const* xp, const T* const* yp, std::size_t n) {
    using P = Pack<T, W>;
    constexpr std::size_t BLK = W > 8 ? W : 8;
    constexpr std::size_t A = BLK / W;
    MultiFloat<P, N> part[A];
    for (std::size_t blk = 0; blk + BLK <= n; blk += BLK) {
        for (std::size_t a = 0; a < A; ++a) {
            const std::size_t i = blk + a * W;
            const MultiFloat<P, N> x = load_planar<P, T, N>(xp, i);
            const MultiFloat<P, N> y = load_planar<P, T, N>(yp, i);
            part[a] = add(part[a], mul(x, y));
        }
    }
    MultiFloat<T, N> acc{};
    for (std::size_t j = 0; j < BLK; ++j) {
        acc = add(acc, lane<T, N>(part[j / W], static_cast<int>(j % W)));
    }
    for (std::size_t i = n - n % BLK; i < n; ++i) {
        MultiFloat<T, N> x;
        MultiFloat<T, N> y;
        for (int k = 0; k < N; ++k) {
            x.limb[k] = xp[k][i];
            y.limb[k] = yp[k][i];
        }
        acc = add(acc, mul(x, y));
    }
    return acc;
}

// ---------------------------------------------------------------------------
// AoS (interleaved MultiFloat span) kernels for mf::blas
// ---------------------------------------------------------------------------

/// y[i] = alpha * x[i] + y[i] over AoS arrays of n elements.
template <std::floating_point T, int N, int W>
void axpy_aos(const MultiFloat<T, N>& alpha, const MultiFloat<T, N>* x,
              MultiFloat<T, N>* y, std::size_t n) {
    using P = Pack<T, W>;
    const MultiFloat<P, N> av = broadcast<P, T, N>(alpha);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const MultiFloat<P, N> xv = load_aos<P, T, N>(x + i);
        const MultiFloat<P, N> yv = load_aos<P, T, N>(y + i);
        store_aos<P, T, N>(add(mul(av, xv), yv), y + i);
    }
    if (i < n) {
        const int c = static_cast<int>(n - i);
        const MultiFloat<P, N> xv = load_aos_n<P, T, N>(x + i, c);
        const MultiFloat<P, N> yv = load_aos_n<P, T, N>(y + i, c);
        store_aos_n<P, T, N>(add(mul(av, xv), yv), y + i, c);
    }
}

/// x[i] = x[i] * alpha over an AoS array of n elements (the operand order of
/// blas::scal's `x[i] *= alpha`).
template <std::floating_point T, int N, int W>
void scal_aos(const MultiFloat<T, N>& alpha, MultiFloat<T, N>* x, std::size_t n) {
    using P = Pack<T, W>;
    const MultiFloat<P, N> av = broadcast<P, T, N>(alpha);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        store_aos<P, T, N>(mul(load_aos<P, T, N>(x + i), av), x + i);
    }
    if (i < n) {
        const int c = static_cast<int>(n - i);
        store_aos_n<P, T, N>(mul(load_aos_n<P, T, N>(x + i, c), av), x + i, c);
    }
}

/// <x, y> over AoS arrays; same BLK-accumulator discipline as planar dot.
template <std::floating_point T, int N, int W>
[[nodiscard]] MultiFloat<T, N> dot_aos(const MultiFloat<T, N>* x,
                                       const MultiFloat<T, N>* y, std::size_t n) {
    using P = Pack<T, W>;
    constexpr std::size_t BLK = W > 8 ? W : 8;
    constexpr std::size_t A = BLK / W;
    MultiFloat<P, N> part[A];
    for (std::size_t blk = 0; blk + BLK <= n; blk += BLK) {
        for (std::size_t a = 0; a < A; ++a) {
            const std::size_t i = blk + a * W;
            part[a] = add(part[a], mul(load_aos<P, T, N>(x + i), load_aos<P, T, N>(y + i)));
        }
    }
    MultiFloat<T, N> acc{};
    for (std::size_t j = 0; j < BLK; ++j) {
        acc = add(acc, lane<T, N>(part[j / W], static_cast<int>(j % W)));
    }
    for (std::size_t i = n - n % BLK; i < n; ++i) {
        acc = add(acc, mul(x[i], y[i]));
    }
    return acc;
}

namespace detail {

/// Lane-wise larger magnitude of two magnitude packs: b where a < b by the
/// sign of the pack sub (the scalar `<` of mf/compare.hpp), else a.
template <typename P, int N>
MF_ALWAYS_INLINE MultiFloat<P, N> larger(const MultiFloat<P, N>& a,
                                         const MultiFloat<P, N>& b) noexcept {
    const auto take = cmp_lt(sub(a, b).limb[0], P{});
    MultiFloat<P, N> r;
    for (int k = 0; k < N; ++k) r.limb[k] = select(take, b.limb[k], a.limb[k]);
    return r;
}

/// The largest lane of v by the same order, halving the pack each round.
template <std::floating_point T, int W, int N>
MF_ALWAYS_INLINE MultiFloat<T, N> largest_lane(const MultiFloat<Pack<T, W>, N>& v) noexcept {
    if constexpr (W == 1) {
        MultiFloat<T, N> r;
        for (int k = 0; k < N; ++k) r.limb[k] = v.limb[k][0];
        return r;
    } else {
        MultiFloat<Pack<T, W / 2>, N> lo, hi;
        for (int k = 0; k < N; ++k) {
            const auto h = v.limb[k].halves();
            lo.limb[k] = h[0];
            hi.limb[k] = h[1];
        }
        return largest_lane<T, W / 2, N>(larger(lo, hi));
    }
}

}  // namespace detail

/// Index of the element of largest magnitude among x[0, n) (0 for n < 2):
/// the result of the scalar loop
///
///     best = 0;  for i in [1, n):  if (abs(x[best]) < abs(x[i])) best = i;
///
/// on W lanes. Lane j of accumulator a keeps the winner of the elements
/// i = a*W + j (mod A*W) by the same rule, starting from -1, which every
/// element but a NaN beats; |x| is a select between x and -x on the leading
/// limb's sign and `<` is the sign of the pack sub, so each lane decision
/// is the scalar one bit for bit. The lanes then find the largest winner M,
/// and the scalar rule runs over x[0] and, in index order, the winners not
/// below M. Because `<` orders the magnitudes (ties and incomparable NaNs
/// never replace), the first index holding the maximum wins its lane,
/// survives the filter and wins the merge: the loop's index, ties and x[0]
/// being NaN included. Block numbers ride in pack lanes as T, exact because
/// a chunk holds at most 2^16 blocks. Every n runs this path; the merge
/// costs a fixed 65-170 ns, so blas::iamax runs the loop itself on vectors
/// shorter than blas::detail::kIamaxLaneMin.
template <std::floating_point T, int N, int W>
[[nodiscard]] std::size_t iamax_aos(const MultiFloat<T, N>* x, std::size_t n) {
    using P = Pack<T, W>;
    using V = MultiFloat<P, N>;
    constexpr int A = 2;  // independent accumulation chains
    constexpr std::size_t BLK = static_cast<std::size_t>(A) * W;
    constexpr std::size_t kChunk = BLK << 16;
    const P zero{};
    const P none = P::broadcast(T(-1));
    std::size_t best = 0;
    for (std::size_t c0 = 0; c0 < n; c0 += kChunk) {
        const std::size_t len = std::min(kChunk, n - c0);
        V mag[A];
        P blk[A];
        for (int a = 0; a < A; ++a) {
            mag[a].limb[0] = none;
            blk[a] = none;
        }
        const auto magnitude = [&](const V& v) {
            const auto neg = cmp_lt(v.limb[0], zero);
            V av;
            for (int k = 0; k < N; ++k) av.limb[k] = select(neg, -v.limb[k], v.limb[k]);
            return av;
        };
        // |v| replaces the lane's winner where winner < |v|.
        const auto update = [&](int a, const V& av, T b) {
            const auto take = cmp_lt(sub(mag[a], av).limb[0], zero);
            for (int k = 0; k < N; ++k) mag[a].limb[k] = select(take, av.limb[k], mag[a].limb[k]);
            blk[a] = select(take, P::broadcast(b), blk[a]);
        };
        const std::size_t full = len / BLK;
        for (std::size_t b = 0; b < full; ++b) {
            const MultiFloat<T, N>* p = x + c0 + b * BLK;
#pragma GCC unroll 4
            for (int a = 0; a < A; ++a) {
                update(a, magnitude(load_aos<P, T, N>(p + a * W)), static_cast<T>(b));
            }
        }
        if (const std::size_t rem = len - full * BLK; rem > 0) {
            // Lanes past the end load as zero; -1 as their magnitude keeps
            // them from beating anything.
            const MultiFloat<T, N>* p = x + c0 + full * BLK;
            const P lane_no = [] {
                T l[W];
                for (int j = 0; j < W; ++j) l[j] = static_cast<T>(j);
                return P::load(l);
            }();
            for (int a = 0; a < A && static_cast<std::size_t>(a) * W < rem; ++a) {
                const int c = static_cast<int>(std::min<std::size_t>(W, rem - a * W));
                V av = magnitude(load_aos_n<P, T, N>(p + a * W, c));
                av.limb[0] = select(cmp_lt(lane_no, P::broadcast(static_cast<T>(c))),
                                    av.limb[0], none);
                update(a, av, static_cast<T>(full));
            }
        }
        // The winners not below the largest one, in index order.
        V top = mag[0];
        for (int a = 1; a < A; ++a) top = detail::larger(top, mag[a]);
        const V mv = broadcast<P, T, N>(detail::largest_lane<T, W, N>(top));
        std::array<std::size_t, BLK> cand;
        std::size_t nc = 0;
        for (int a = 0; a < A; ++a) {
            T b[W];
            select(cmp_lt(sub(mag[a], mv).limb[0], zero), none, blk[a]).store(b);
            for (int j = 0; j < W; ++j) {
                if (b[j] >= T(0)) {
                    cand[nc++] = c0 + static_cast<std::size_t>(b[j]) * BLK +
                                 static_cast<std::size_t>(a) * W + static_cast<std::size_t>(j);
                }
            }
        }
        for (std::size_t w = 1; w < nc; ++w) {  // insertion sort, <= A*W entries
            for (std::size_t v = w; v > 0 && cand[v - 1] > cand[v]; --v) {
                std::swap(cand[v - 1], cand[v]);
            }
        }
        for (std::size_t w = 0; w < nc; ++w) {
            if (abs(x[best]) < abs(x[cand[w]])) best = cand[w];
        }
    }
    return best;
}

}  // namespace mf::simd::kernels
