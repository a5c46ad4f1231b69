#pragma once
// Layout accessors for the packed GEMM engine (DESIGN.md §11).
//
// The engine touches its operands in exactly three places: pack_a/pack_b
// copy A and B blocks into planar panels, and the micro-kernel loads and
// stores its C micro-tile. Everything in between runs on the packed panels
// and is layout-free. An accessor is the small object those three places go
// through, so one packed loop nest serves both storage layouts:
//
//   PlanarAccess  planar (SoA) matrices, planar::MatrixView: limb p of
//                 element (i, j) at planes[p][i * stride + j]; a C tile row
//                 loads with one unit-stride Pack load per limb;
//   AosAccess     interleaved MultiFloat matrices, blas::MatrixView: element
//                 (i, j) at data[i * stride + j]; a C tile row loads with N
//                 unit-stride Pack loads and an in-register transpose
//                 (simd::kernels::load_aos -> Pack::load_interleaved).
//
// Both expose the same surface:
//
//   rows, cols             the matrix shape
//   limb(p, i, j)          reference to limb p of element (i, j)
//   load<P>(i, j)          elements (i, j .. j+W) as a MultiFloat<P, N>
//   store<P>(i, j, v)      the inverse (mutable accessors only)
//
// Neither layout is ever converted wholesale: packing reads the source in
// place, and C is read and written tile by tile where it lives.

#include <cstddef>
#include <type_traits>

#include "../../mf/multifloat.hpp"
#include "../../simd/kernels.hpp"
#include "../planar.hpp"
#include "../views.hpp"

namespace mf::blas::engine {

/// Planar operand. `L` is the limb type, const-qualified for inputs.
template <typename L, int N>
struct PlanarAccess {
    using value_type = std::remove_const_t<L>;
    static constexpr int limbs = N;

    L* planes[N];
    std::size_t rows;
    std::size_t cols;
    std::size_t stride;

    [[nodiscard]] L& limb(int p, std::size_t i, std::size_t j) const noexcept {
        return planes[p][i * stride + j];
    }
    template <typename P>
    [[nodiscard]] MultiFloat<P, N> load(std::size_t i, std::size_t j) const noexcept {
        MultiFloat<P, N> v;
        for (int p = 0; p < N; ++p) v.limb[p] = P::load(&limb(p, i, j));
        return v;
    }
    template <typename P>
    void store(std::size_t i, std::size_t j, const MultiFloat<P, N>& v) const noexcept {
        for (int p = 0; p < N; ++p) v.limb[p].store(&limb(p, i, j));
    }
};

/// Interleaved (AoS) operand. `E` is MultiFloat<T, N>, const-qualified for
/// inputs.
template <typename E>
struct AosAccess {
    using value_type = typename std::remove_const_t<E>::value_type;
    static constexpr int limbs = std::remove_const_t<E>::num_limbs;

    E* data;
    std::size_t rows;
    std::size_t cols;
    std::size_t stride;

    [[nodiscard]] auto& limb(int p, std::size_t i, std::size_t j) const noexcept {
        return data[i * stride + j].limb[p];
    }
    template <typename P>
    [[nodiscard]] MultiFloat<P, limbs> load(std::size_t i, std::size_t j) const noexcept {
        return simd::kernels::load_aos<P, value_type, limbs>(data + i * stride + j);
    }
    template <typename P>
    void store(std::size_t i, std::size_t j, const MultiFloat<P, limbs>& v) const noexcept {
        simd::kernels::store_aos<P, value_type, limbs>(v, data + i * stride + j);
    }
};

// --- factories: one per view type the engine accepts ----------------------

template <FloatingPoint T, int N>
[[nodiscard]] PlanarAccess<const T, N> access(const planar::ConstMatrixView<T, N>& v) noexcept {
    PlanarAccess<const T, N> a{{}, v.rows, v.cols, v.stride};
    for (int p = 0; p < N; ++p) a.planes[p] = v.planes[p];
    return a;
}
template <FloatingPoint T, int N>
[[nodiscard]] PlanarAccess<T, N> access(const planar::MatrixView<T, N>& v) noexcept {
    PlanarAccess<T, N> a{{}, v.rows, v.cols, v.stride};
    for (int p = 0; p < N; ++p) a.planes[p] = v.planes[p];
    return a;
}
template <FloatingPoint T, int N>
[[nodiscard]] AosAccess<const MultiFloat<T, N>> access(
    const ConstMatrixView<MultiFloat<T, N>>& v) noexcept {
    return {v.data, v.rows, v.cols, v.stride};
}
template <FloatingPoint T, int N>
[[nodiscard]] AosAccess<MultiFloat<T, N>> access(
    const MatrixView<MultiFloat<T, N>>& v) noexcept {
    return {v.data, v.rows, v.cols, v.stride};
}

}  // namespace mf::blas::engine
