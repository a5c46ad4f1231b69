#pragma once
// Pack-level FPAN kernels: the scalar accumulation networks of mf/add.hpp
// and mf/mul.hpp instantiated over MultiFloat<Pack<T, W>, N> -- W elements
// march through the SAME gate sequence in lock-step, one lane each. Every
// kernel processes the bulk in W-wide steps and finishes with an explicit
// scalar tail loop running the ordinary MultiFloat<T, N> network, so the
// result is bit-identical to the scalar kernel for every element, including
// the tail (tests/simd_kernel_test.cpp).
//
// Two memory layouts are served:
//  * planar (SoA) raw plane pointers, as used by mf::planar::Vector -- packs
//    load W consecutive elements of one limb with a single unaligned load;
//  * AoS spans of MultiFloat<T, N>, as used by mf::blas -- limbs are
//    interleaved, so W elements are N*W consecutive scalars, and
//    Pack::load_interleaved / store_interleaved transpose them in registers
//    (pack.hpp says why not through a lane buffer). At N = 2 the AoS kernels
//    run within about 1.2x of planar.

#include <cstddef>
#include <type_traits>

#include "../mf/add.hpp"
#include "../mf/mul.hpp"
#include "../telemetry/events.hpp"
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
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"add_range\"}", i1 - i0);
    using P = Pack<T, W>;
    std::size_t i = i0;
    for (; i + W <= i1; i += W) {
        const MultiFloat<P, N> x = load_planar<P, T, N>(xp, i);
        const MultiFloat<P, N> y = load_planar<P, T, N>(yp, i);
        store_planar<P, T, N>(add(x, y), zp, i);
    }
    for (; i < i1; ++i) {  // scalar tail: same network, one lane
        MultiFloat<T, N> x;
        MultiFloat<T, N> y;
        for (int k = 0; k < N; ++k) {
            x.limb[k] = xp[k][i];
            y.limb[k] = yp[k][i];
        }
        const MultiFloat<T, N> z = add(x, y);
        for (int k = 0; k < N; ++k) zp[k][i] = z.limb[k];
    }
}

/// y[i] = alpha * x[i] + y[i] over planes, for i in [i0, i1).
template <std::floating_point T, int N, int W>
void fma_range(const MultiFloat<T, N>& alpha, const T* const* xp, T* const* yp,
               std::size_t i0, std::size_t i1) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"fma_range\"}", i1 - i0);
    using P = Pack<T, W>;
    const MultiFloat<P, N> av = broadcast<P, T, N>(alpha);
    std::size_t i = i0;
    for (; i + W <= i1; i += W) {
        const MultiFloat<P, N> x = load_planar<P, T, N>(xp, i);
        const MultiFloat<P, N> y = load_planar<P, T, N>(yp, i);
        store_planar<P, T, N>(add(mul(av, x), y), yp, i);
    }
    for (; i < i1; ++i) {
        MultiFloat<T, N> x;
        MultiFloat<T, N> y;
        for (int k = 0; k < N; ++k) {
            x.limb[k] = xp[k][i];
            y.limb[k] = yp[k][i];
        }
        const MultiFloat<T, N> z = add(mul(alpha, x), y);
        for (int k = 0; k < N; ++k) yp[k][i] = z.limb[k];
    }
}

/// <x, y> over planes. Accumulator layout: BLK = max(8, W) independent
/// accumulator lanes held in BLK/W packs. For W <= 8 this reproduces the
/// seed planar::dot exactly -- eight accumulators, lane j of each 8-block
/// feeding accumulator j, final merge in lane order then a scalar tail --
/// so the result is bit-identical to the pre-SIMD path.
template <std::floating_point T, int N, int W>
[[nodiscard]] MultiFloat<T, N> dot(const T* const* xp, const T* const* yp, std::size_t n) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"dot\"}", n);
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
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"axpy_aos\"}", n);
    using P = Pack<T, W>;
    const MultiFloat<P, N> av = broadcast<P, T, N>(alpha);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const MultiFloat<P, N> xv = load_aos<P, T, N>(x + i);
        const MultiFloat<P, N> yv = load_aos<P, T, N>(y + i);
        store_aos<P, T, N>(add(mul(av, xv), yv), y + i);
    }
    for (; i < n; ++i) y[i] = add(mul(alpha, x[i]), y[i]);
}

/// <x, y> over AoS arrays; same BLK-accumulator discipline as planar dot.
template <std::floating_point T, int N, int W>
[[nodiscard]] MultiFloat<T, N> dot_aos(const MultiFloat<T, N>* x,
                                       const MultiFloat<T, N>* y, std::size_t n) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"dot_aos\"}", n);
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

}  // namespace mf::simd::kernels
