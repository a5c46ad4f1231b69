#pragma once
// Layout accessors: the one place that knows how the limbs of an expansion
// sit in memory (DESIGN.md §11). The pack kernels (kernels.hpp) and the GEMM
// engine (blas/engine/) are written once over these types; the network they
// run does not care where the limbs live, only how W elements reach a pack.
//
//   Planar<L, N>  a planar (SoA) row, as mf::planar::Vector stores it: limb
//                 k of element j at planes[k][j], so W consecutive elements
//                 of one limb load with a single unaligned Pack load;
//   Aos<L, N>     an interleaved row of MultiFloat<T, N>, as mf::blas views
//                 it: element j at data[j], its limbs adjacent, so W
//                 elements are N*W consecutive scalars that
//                 Pack::load_interleaved / store_interleaved transpose in
//                 registers (pack.hpp says why not through a lane buffer).
//                 At N = 2 AoS kernels run within about 1.2x of planar.
//
// L is the limb type, const-qualified for inputs. Both rows expose
//
//   load<P>(j)         elements [j, j+W) as a MultiFloat<P, N>
//   load_n<P>(j, c)    elements [j, j+c), c < W; the other lanes are zero,
//                      and nothing past element j+c-1 is read
//   store(j, v)        the inverse of load (mutable rows only)
//   store_n(j, v, c)   the inverse of load_n; nothing past j+c-1 is written
//   get(j), set(j, x)  one element as a scalar expansion
//   row + j            the row that starts at element j
//
// and Matrix<Row> adds the shape and a row stride: row(i) is the accessor of
// row i. Neither layout is ever converted wholesale.

#include <cstddef>
#include <type_traits>

#include "../mf/multifloat.hpp"
#include "pack.hpp"

namespace mf::simd {

/// Planar row: limb k of element j at planes[k][j].
template <typename L, int N>
struct Planar {
    using value_type = std::remove_const_t<L>;
    static constexpr int limbs = N;
    static constexpr bool interleaved = false;

    L* planes[N];

    template <typename P>
    [[nodiscard]] MF_ALWAYS_INLINE MultiFloat<P, N> load(std::size_t j) const noexcept {
        MultiFloat<P, N> v;
        for (int k = 0; k < N; ++k) v.limb[k] = P::load(planes[k] + j);
        return v;
    }
    template <typename P>
    [[nodiscard]] MF_ALWAYS_INLINE MultiFloat<P, N> load_n(std::size_t j,
                                                           int c) const noexcept {
        MultiFloat<P, N> v;
        for (int k = 0; k < N; ++k) v.limb[k] = P::load_n(planes[k] + j, c);
        return v;
    }
    template <typename P>
    MF_ALWAYS_INLINE void store(std::size_t j, const MultiFloat<P, N>& v) const noexcept {
        for (int k = 0; k < N; ++k) v.limb[k].store(planes[k] + j);
    }
    template <typename P>
    MF_ALWAYS_INLINE void store_n(std::size_t j, const MultiFloat<P, N>& v,
                                  int c) const noexcept {
        for (int k = 0; k < N; ++k) v.limb[k].store_n(planes[k] + j, c);
    }
    [[nodiscard]] MF_ALWAYS_INLINE MultiFloat<value_type, N> get(std::size_t j) const noexcept {
        MultiFloat<value_type, N> x;
        for (int k = 0; k < N; ++k) x.limb[k] = planes[k][j];
        return x;
    }
    MF_ALWAYS_INLINE void set(std::size_t j, const MultiFloat<value_type, N>& x) const noexcept {
        for (int k = 0; k < N; ++k) planes[k][j] = x.limb[k];
    }
    [[nodiscard]] MF_ALWAYS_INLINE Planar operator+(std::size_t j) const noexcept {
        Planar r;
        for (int k = 0; k < N; ++k) r.planes[k] = planes[k] + j;
        return r;
    }
};

/// Interleaved (AoS) row: element j at data[j].
template <typename L, int N>
struct Aos {
    using value_type = std::remove_const_t<L>;
    using Record = std::conditional_t<std::is_const_v<L>, const MultiFloat<value_type, N>,
                                      MultiFloat<value_type, N>>;
    static constexpr int limbs = N;
    static constexpr bool interleaved = true;
    static_assert(sizeof(MultiFloat<value_type, N>) == N * sizeof(value_type) &&
                  std::is_standard_layout_v<MultiFloat<value_type, N>>);

    Record* data;

    template <typename P>
    [[nodiscard]] MF_ALWAYS_INLINE MultiFloat<P, N> load(std::size_t j) const noexcept {
        return MultiFloat<P, N>(P::template load_interleaved<N>(scalars(j)));
    }
    template <typename P>
    [[nodiscard]] MF_ALWAYS_INLINE MultiFloat<P, N> load_n(std::size_t j,
                                                           int c) const noexcept {
        return MultiFloat<P, N>(P::template load_interleaved_n<N>(scalars(j), c));
    }
    template <typename P>
    MF_ALWAYS_INLINE void store(std::size_t j, const MultiFloat<P, N>& v) const noexcept {
        P::template store_interleaved<N>(v.limb, scalars(j));
    }
    template <typename P>
    MF_ALWAYS_INLINE void store_n(std::size_t j, const MultiFloat<P, N>& v,
                                  int c) const noexcept {
        P::template store_interleaved_n<N>(v.limb, scalars(j), c);
    }
    [[nodiscard]] MF_ALWAYS_INLINE MultiFloat<value_type, N> get(std::size_t j) const noexcept {
        return data[j];
    }
    MF_ALWAYS_INLINE void set(std::size_t j, const MultiFloat<value_type, N>& x) const noexcept {
        data[j] = x;
    }
    [[nodiscard]] MF_ALWAYS_INLINE Aos operator+(std::size_t j) const noexcept {
        return {data + j};
    }

private:
    /// The scalars from element j on, in memory order: limb k of element
    /// j + i at [i * N + k], the record layout of P::load_interleaved.
    [[nodiscard]] MF_ALWAYS_INLINE L* scalars(std::size_t j) const noexcept {
        return reinterpret_cast<L*>(data + j);
    }
};

/// Planar row over an array of plane pointers.
template <typename L, int N>
[[nodiscard]] MF_ALWAYS_INLINE Planar<L, N> planar(L* const (&planes)[N]) noexcept {
    Planar<L, N> r;
    for (int k = 0; k < N; ++k) r.planes[k] = planes[k];
    return r;
}

/// AoS row over a MultiFloat array.
template <std::floating_point T, int N>
[[nodiscard]] MF_ALWAYS_INLINE Aos<const T, N> aos(const MultiFloat<T, N>* p) noexcept {
    return {p};
}
template <std::floating_point T, int N>
[[nodiscard]] MF_ALWAYS_INLINE Aos<T, N> aos(MultiFloat<T, N>* p) noexcept {
    return {p};
}

/// Row-major matrix of Row accessors: row i starts `stride` elements after
/// row i - 1.
template <typename Row>
struct Matrix {
    using value_type = typename Row::value_type;
    static constexpr int limbs = Row::limbs;

    Row base;  ///< row 0
    std::size_t rows;
    std::size_t cols;
    std::size_t stride;

    [[nodiscard]] MF_ALWAYS_INLINE Row row(std::size_t i) const noexcept {
        return base + i * stride;
    }
};

}  // namespace mf::simd
