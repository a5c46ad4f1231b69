#pragma once
// The GEMM engine's operands as layout accessors (DESIGN.md §11).
//
// The engine touches its operands in exactly three places: pack_a/pack_b
// copy A and B blocks into planar panels, and the micro-kernel loads and
// stores its C micro-tile. Everything in between runs on the packed panels
// and is layout-free. Those three places go through simd::Matrix<Row>
// (simd/layout.hpp), whose row(i) is a simd::Planar or simd::Aos row, so
// one packed loop nest serves both storage layouts. The factories below
// are the only layout knowledge here: one per view type the engine accepts.
//
// Neither layout is ever converted wholesale: packing reads the source in
// place, and C is read and written tile by tile where it lives.

#include "../../simd/layout.hpp"
#include "../planar.hpp"
#include "../views.hpp"

namespace mf::blas::engine {

template <FloatingPoint T, int N>
[[nodiscard]] simd::Matrix<simd::Planar<const T, N>> access(
    const planar::ConstMatrixView<T, N>& v) noexcept {
    return {simd::planar(v.planes), v.rows, v.cols, v.stride};
}
template <FloatingPoint T, int N>
[[nodiscard]] simd::Matrix<simd::Planar<T, N>> access(
    const planar::MatrixView<T, N>& v) noexcept {
    return {simd::planar(v.planes), v.rows, v.cols, v.stride};
}
template <FloatingPoint T, int N>
[[nodiscard]] simd::Matrix<simd::Aos<const T, N>> access(
    const ConstMatrixView<MultiFloat<T, N>>& v) noexcept {
    return {simd::aos(v.data), v.rows, v.cols, v.stride};
}
template <FloatingPoint T, int N>
[[nodiscard]] simd::Matrix<simd::Aos<T, N>> access(
    const MatrixView<MultiFloat<T, N>>& v) noexcept {
    return {simd::aos(v.data), v.rows, v.cols, v.stride};
}

}  // namespace mf::blas::engine
