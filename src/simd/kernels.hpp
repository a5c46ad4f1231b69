#pragma once
// Pack-level FPAN kernels: the scalar accumulation networks of mf/add.hpp
// and mf/mul.hpp instantiated over MultiFloat<Pack<T, W>, N> -- W elements
// march through the SAME gate sequence in lock-step, one lane each. The
// elementwise kernels process the bulk in W-wide steps and finish with one
// partial pack (the accessors' load_n / store_n), which reads and writes
// only the remaining elements: every element, the last ones included, runs
// the identical network, so the result is bit-identical to the scalar
// kernel (tests/simd_kernel_test.cpp). The dot reduction keeps an explicit
// scalar tail, because its bits depend on the order in which the last
// elements join the accumulator.
//
// Operands load into named locals, x before y. Loaded inside the call that
// consumes them, in GCC's argument order, the N = 3 and 4 AoS axpy ran 3-6%
// slower on AVX-512.
//
// Each kernel is written once over layout accessors (layout.hpp): planar
// rows as mf::planar::Vector stores them, interleaved MultiFloat rows as
// mf::blas views them, or one of each. The accessor decides how W elements
// reach a pack; the network and its order are the same for both, so a
// kernel returns the same bits on either layout.
//
// The kernels count nothing: the dispatched entries of dispatch.hpp bump
// mf_simd_kernel_ops_total once per call, and a caller that hoists the
// dispatch out of its loop (blas::ger, planar::gemv, the GEMM engine)
// counts its own total.

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "../mf/add.hpp"
#include "../mf/math.hpp"
#include "../mf/mul.hpp"
#include "layout.hpp"
#include "pack.hpp"

namespace mf::simd::kernels {

/// Broadcast one scalar expansion across all W lanes.
template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE MultiFloat<P, N> broadcast(const MultiFloat<T, N>& x) noexcept {
    MultiFloat<P, N> r;
    for (int k = 0; k < N; ++k) r.limb[k] = P::broadcast(x.limb[k]);
    return r;
}

/// Extract lane j of a pack expansion as a scalar expansion.
template <std::floating_point T, int N, typename P>
MF_ALWAYS_INLINE MultiFloat<T, N> lane(const MultiFloat<P, N>& v, int j) noexcept {
    MultiFloat<T, N> r;
    for (int k = 0; k < N; ++k) r.limb[k] = v.limb[k][j];
    return r;
}

/// The scalar expansion type of accessor X's elements.
template <typename X>
using Element = MultiFloat<typename X::value_type, X::limbs>;

/// The pack expansion type of accessor X's elements at width W.
template <typename X, int W>
using Lanes = MultiFloat<Pack<typename X::value_type, W>, X::limbs>;

/// z[i] = x[i] + y[i] for i in [0, n).
template <int W, typename X, typename Y, typename Z>
void add(const X& x, const Y& y, const Z& z, std::size_t n) {
    using P = Pack<typename X::value_type, W>;
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const Lanes<X, W> xv = x.template load<P>(i);
        const Lanes<X, W> yv = y.template load<P>(i);
        z.store(i, add(xv, yv));
    }
    if (i < n) {  // one partial pack: same network, the live lanes only
        const int c = static_cast<int>(n - i);
        const Lanes<X, W> xv = x.template load_n<P>(i, c);
        const Lanes<X, W> yv = y.template load_n<P>(i, c);
        z.store_n(i, add(xv, yv), c);
    }
}

/// y[i] = alpha * x[i] + y[i] for i in [0, n).
template <int W, typename X, typename Y>
void axpy(const Element<X>& alpha, const X& x, const Y& y, std::size_t n) {
    using P = Pack<typename X::value_type, W>;
    const Lanes<X, W> av = broadcast<P>(alpha);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const Lanes<X, W> xv = x.template load<P>(i);
        const Lanes<X, W> yv = y.template load<P>(i);
        y.store(i, add(mul(av, xv), yv));
    }
    if (i < n) {
        const int c = static_cast<int>(n - i);
        const Lanes<X, W> xv = x.template load_n<P>(i, c);
        const Lanes<X, W> yv = y.template load_n<P>(i, c);
        y.store_n(i, add(mul(av, xv), yv), c);
    }
}

/// Rows of one ger row block: they share each de-interleaved pack of y, and
/// their multipliers come from one lane multiply (kernels::scaled).
inline constexpr int kGerRows = 4;

/// The multipliers m_i = mul(alpha, x[i]) of blas::ger's A += alpha x y^T.
/// A row block's multipliers are one mul on Pack<T, kGerRows>, whose lanes
/// hold the bits of the scalar muls.
template <typename X>
struct Scaled {
    Element<X> alpha;
    X x;

    /// m[k][q] = limb k of m_{i0+q} for q in [0, r), r <= R.
    template <int R>
    MF_ALWAYS_INLINE void block(std::size_t i0, int r,
                                typename X::value_type (&m)[X::limbs][R]) const noexcept {
        using Q = Pack<typename X::value_type, R>;
        const Lanes<X, R> xv = r == R ? x.template load<Q>(i0) : x.template load_n<Q>(i0, r);
        const Lanes<X, R> v = mul(broadcast<Q>(alpha), xv);
        for (int k = 0; k < X::limbs; ++k) v.limb[k].store(m[k]);
    }
};

/// The multipliers m_i = a(i, col): column `col` of a Matrix accessor (the
/// A operand of a GEMM swept one kk at a time).
template <typename M>
struct Column {
    M a;
    std::size_t col;

    template <int R>
    MF_ALWAYS_INLINE void block(std::size_t i0, int r,
                                typename M::value_type (&m)[M::limbs][R]) const noexcept {
        for (int q = 0; q < r; ++q) {
            const auto v = a.row(i0 + static_cast<std::size_t>(q)).get(col);
            for (int k = 0; k < M::limbs; ++k) m[k][q] = v.limb[k];
        }
    }
};

template <typename X>
[[nodiscard]] MF_ALWAYS_INLINE Scaled<X> scaled(const Element<X>& alpha, const X& x) noexcept {
    return {alpha, x};
}
template <typename M>
[[nodiscard]] MF_ALWAYS_INLINE Column<M> column(const M& a, std::size_t col) noexcept {
    return {a, col};
}

namespace detail {

/// Rows [i0, i0 + RR) of ger: the y packs [0, full) load once for all RR
/// rows, and the masked last pack `ylast` (tail > 0 live lanes) was loaded
/// once per call.
template <int W, int RR, typename M, typename Y, typename A>
MF_ALWAYS_INLINE void ger_rows(const M& mult, const Y& y, const A& a, std::size_t i0,
                               std::size_t full, int tail, const Lanes<Y, W>& ylast) {
    using T = typename Y::value_type;
    using P = Pack<T, W>;
    T m[Y::limbs][kGerRows];
    mult.template block<kGerRows>(i0, RR, m);
    Lanes<Y, W> av[RR];
#pragma GCC unroll 4
    for (int q = 0; q < RR; ++q) {
        for (int k = 0; k < Y::limbs; ++k) av[q].limb[k] = P::broadcast(m[k][q]);
    }
    const auto row = [&](int q) { return a.row(i0 + static_cast<std::size_t>(q)); };
    // Each step loads its RR packs of a before it stores any: rows 4 KiB
    // apart (a 256-wide Float64x2 matrix) would otherwise have each load
    // wait on the previous row's store at the same page offset.
    for (std::size_t j = 0; j < full; j += W) {
        const Lanes<Y, W> yv = y.template load<P>(j);
        Lanes<Y, W> cv[RR];
#pragma GCC unroll 4
        for (int q = 0; q < RR; ++q) cv[q] = row(q).template load<P>(j);
#pragma GCC unroll 4
        for (int q = 0; q < RR; ++q) row(q).store(j, add(mul(av[q], yv), cv[q]));
    }
    if (tail > 0) {
        Lanes<Y, W> cv[RR];
#pragma GCC unroll 4
        for (int q = 0; q < RR; ++q) cv[q] = row(q).template load_n<P>(full, tail);
#pragma GCC unroll 4
        for (int q = 0; q < RR; ++q) row(q).store_n(full, add(mul(av[q], ylast), cv[q]), tail);
    }
}

/// The last `rows` < kGerRows rows, each count its own unrolled block.
template <int W, int RR, typename M, typename Y, typename A>
MF_ALWAYS_INLINE void ger_rest(const M& mult, const Y& y, const A& a, std::size_t i0,
                               std::size_t rows, std::size_t full, int tail,
                               const Lanes<Y, W>& ylast) {
    if constexpr (RR > 0) {
        if (rows == RR) {
            ger_rows<W, RR>(mult, y, a, i0, full, tail, ylast);
        } else {
            ger_rest<W, RR - 1>(mult, y, a, i0, rows, full, tail, ylast);
        }
    }
}

}  // namespace detail

/// Rank-1 update a(i, j) = add(mul(m_i, y[j]), a(i, j)) for i in [0, rows),
/// j in [0, cols): the per-element network of axpy(m_i, y, row i), so the
/// bits are those of one kernels::axpy per row. `mult` gives the m_i
/// (Scaled, Column), `a` is a Matrix accessor (row(i)). The rows run in
/// blocks of kGerRows: a block forms its multipliers at once, loads each y
/// pack once for all its rows, and the masked last y pack is loaded once
/// per call. y must not overlap a.
template <int W, typename M, typename Y, typename A>
void ger(const M& mult, const Y& y, const A& a, std::size_t rows, std::size_t cols) {
    using P = Pack<typename Y::value_type, W>;
    const std::size_t full = cols - cols % W;
    const int tail = static_cast<int>(cols - full);
    Lanes<Y, W> ylast{};
    if (tail > 0) ylast = y.template load_n<P>(full, tail);
    std::size_t i0 = 0;
    for (; i0 + kGerRows <= rows; i0 += kGerRows) {
        detail::ger_rows<W, kGerRows>(mult, y, a, i0, full, tail, ylast);
    }
    detail::ger_rest<W, kGerRows - 1>(mult, y, a, i0, rows - i0, full, tail, ylast);
}

/// x[i] = x[i] * alpha for i in [0, n) (the operand order of blas::scal's
/// `x[i] *= alpha`).
template <int W, typename X>
void scal(const Element<X>& alpha, const X& x, std::size_t n) {
    using P = Pack<typename X::value_type, W>;
    const Lanes<X, W> av = broadcast<P>(alpha);
    std::size_t i = 0;
    for (; i + W <= n; i += W) x.store(i, mul(x.template load<P>(i), av));
    if (i < n) {
        const int c = static_cast<int>(n - i);
        x.store_n(i, mul(x.template load_n<P>(i, c), av), c);
    }
}

/// <x, y> over [0, n). Accumulator layout: BLK = max(8, W) independent
/// accumulator lanes held in BLK/W packs. For W <= 8 this reproduces the
/// seed planar::dot exactly -- eight accumulators, lane j of each 8-block
/// feeding accumulator j, final merge in lane order then a scalar tail --
/// so the result is bit-identical to the pre-SIMD path.
template <int W, typename X, typename Y>
[[nodiscard]] Element<X> dot(const X& x, const Y& y, std::size_t n) {
    using T = typename X::value_type;
    using P = Pack<T, W>;
    constexpr std::size_t BLK = W > 8 ? W : 8;
    constexpr std::size_t A = BLK / W;
    Lanes<X, W> part[A];
    for (std::size_t blk = 0; blk + BLK <= n; blk += BLK) {
        for (std::size_t a = 0; a < A; ++a) {
            const std::size_t i = blk + a * W;
            const Lanes<X, W> xv = x.template load<P>(i);
            const Lanes<X, W> yv = y.template load<P>(i);
            part[a] = add(part[a], mul(xv, yv));
        }
    }
    Element<X> acc{};
    for (std::size_t j = 0; j < BLK; ++j) {
        acc = add(acc, lane<T, X::limbs>(part[j / W], static_cast<int>(j % W)));
    }
    for (std::size_t i = n - n % BLK; i < n; ++i) {
        acc = add(acc, mul(x.get(i), y.get(i)));
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
template <int W, typename X>
[[nodiscard]] std::size_t iamax(const X& x, std::size_t n) {
    using T = typename X::value_type;
    constexpr int N = X::limbs;
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
            const X p = x + (c0 + b * BLK);
#pragma GCC unroll 4
            for (int a = 0; a < A; ++a) {
                update(a, magnitude(p.template load<P>(a * W)), static_cast<T>(b));
            }
        }
        if (const std::size_t rem = len - full * BLK; rem > 0) {
            // Lanes past the end load as zero; -1 as their magnitude keeps
            // them from beating anything.
            const X p = x + (c0 + full * BLK);
            const P lane_no = [] {
                T l[W];
                for (int j = 0; j < W; ++j) l[j] = static_cast<T>(j);
                return P::load(l);
            }();
            for (int a = 0; a < A && static_cast<std::size_t>(a) * W < rem; ++a) {
                const int c = static_cast<int>(std::min<std::size_t>(W, rem - a * W));
                V av = magnitude(p.template load_n<P>(a * W, c));
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
            if (abs(x.get(best)) < abs(x.get(cand[w]))) best = cand[w];
        }
    }
    return best;
}

}  // namespace mf::simd::kernels
