#pragma once
// The scalar GEMM reference every GEMM check compares against.
//
// C = A B with one scalar, kk-ascending c = add(mul(a_ik, b_kj), c) chain per
// element, starting from zero. It touches neither the SIMD dispatch layer nor
// the packed engine's layout accessors, so a bug in either cannot hide in
// the reference too. The packed engine (blas::gemm_packed, blas::gemm)
// applies the identical FPAN update sequence in the identical order, so its
// result must match this one bit for bit (DESIGN.md §11).

#include <cstddef>
#include <vector>

#include "../blas/planar.hpp"
#include "../blas/views.hpp"
#include "../mf/multifloats.hpp"

namespace mf::check {

/// C = A B, one scalar kk-ascending add(mul(a, b), c) chain per element.
template <typename T, int N>
void reference_gemm(blas::ConstMatrixView<MultiFloat<T, N>> a,
                    blas::ConstMatrixView<MultiFloat<T, N>> b,
                    blas::MatrixView<MultiFloat<T, N>> c) {
    for (std::size_t i = 0; i < c.rows; ++i) {
        for (std::size_t j = 0; j < c.cols; ++j) {
            MultiFloat<T, N> acc{};
            for (std::size_t kk = 0; kk < a.cols; ++kk) {
                acc = mf::add(mf::mul(a(i, kk), b(kk, j)), acc);
            }
            c(i, j) = acc;
        }
    }
}

/// reference_gemm on contiguous planar operands (A n x k, B k x m): the
/// limbs are gathered into interleaved storage, multiplied by the reference
/// above, and returned as a planar n x m product.
template <typename T, int N>
[[nodiscard]] planar::Vector<T, N> reference_gemm_planar(const planar::Vector<T, N>& a,
                                                         const planar::Vector<T, N>& b,
                                                         std::size_t n, std::size_t k,
                                                         std::size_t m) {
    using V = MultiFloat<T, N>;
    std::vector<V> aa(n * k), ba(k * m), ca(n * m);
    for (std::size_t i = 0; i < n * k; ++i) aa[i] = a.get(i);
    for (std::size_t i = 0; i < k * m; ++i) ba[i] = b.get(i);
    reference_gemm<T, N>(blas::ConstMatrixView<V>(aa.data(), n, k),
                         blas::ConstMatrixView<V>(ba.data(), k, m),
                         blas::MatrixView<V>(ca.data(), n, m));
    planar::Vector<T, N> c(n * m);
    for (std::size_t i = 0; i < n * m; ++i) c.set(i, ca[i]);
    return c;
}

}  // namespace mf::check
