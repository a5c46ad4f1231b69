#pragma once
// Branch-free addition and subtraction of nonoverlapping floating-point
// expansions (paper §4.1, Figures 2-4).
//
// The networks are constexpr gate tables in fpan/gates.hpp, the objects the
// FPAN checker verifies; this file loads the operands onto their wires, runs
// the table and reads the result. Each begins with TwoSum(x_i, y_i), so the
// sum is bit-identical under swapping x and y. N = 2 is Figure 2's 6-gate
// network (relative error <= 2^-(2p-1) |x + y|); N >= 3 are the pairing
// layer plus the distill/renorm sweep, reconstructed from the paper's
// description, whose bounds 2^-(3p-3), 2^-(4p-4) the test suite enforces
// against an exact BigFloat oracle (DESIGN.md §2).

#include <cstddef>
#include <utility>

#include "../fpan/gates.hpp"
#include "eft.hpp"
#include "multifloat.hpp"

namespace mf {

namespace detail {

template <auto Table, FloatingPoint T, std::size_t... O>
MF_ALWAYS_INLINE constexpr MultiFloat<T, sizeof...(O)> gather(
    const T (&w)[Table.num_wires], std::index_sequence<O...>) noexcept {
    return MultiFloat<T, sizeof...(O)>({w[Table.outputs[O]]...});
}

/// Run the shipped FPAN `Table` in place over the wires `w` and return its
/// outputs. Straight-line gates only: nothing here counts or branches.
template <auto Table, FloatingPoint T>
MF_ALWAYS_INLINE constexpr auto run_fpan(T (&w)[Table.num_wires]) noexcept {
    fpan::run<Table>(w);
    return gather<Table>(w, std::make_index_sequence<Table.outputs.size()>{});
}

/// x + y on the wires [x0, y0, x1, y1, ...] of fpan::add_table<N>.
template <FloatingPoint T, int N, std::size_t... I>
MF_ALWAYS_INLINE constexpr MultiFloat<T, N> add(const MultiFloat<T, N>& x,
                                                const MultiFloat<T, N>& y,
                                                std::index_sequence<I...>) noexcept {
    T w[] = {(I % 2 == 0 ? x.limb[I / 2] : y.limb[I / 2])...};
    return run_fpan<fpan::add_table<N>>(w);
}

/// x + y on the wires [x0, ..., x_{N-1}, y] of fpan::add_scalar_table<N>.
template <FloatingPoint T, int N, std::size_t... I>
MF_ALWAYS_INLINE constexpr MultiFloat<T, N> add(const MultiFloat<T, N>& x, T y,
                                                std::index_sequence<I...>) noexcept {
    T w[] = {x.limb[I]..., y};
    return run_fpan<fpan::add_scalar_table<N>>(w);
}

}  // namespace detail

/// Expansion addition.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> add(const MultiFloat<T, N>& x,
                                             const MultiFloat<T, N>& y) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(x.limb[0] + y.limb[0]);
    } else {
        return detail::add(x, y, std::make_index_sequence<2 * N>{});
    }
}

/// Expansion subtraction: x + (-y) (the sign flip is exact).
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> sub(const MultiFloat<T, N>& x,
                                             const MultiFloat<T, N>& y) noexcept {
    return add(x, -y);
}

/// Mixed expansion-scalar addition: cheaper than widening the scalar and
/// running the full network (the scalar contributes a single input wire).
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> add(const MultiFloat<T, N>& x, T y) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(x.limb[0] + y);
    } else {
        return detail::add(x, y, std::make_index_sequence<N>{});
    }
}

template <FloatingPoint T, int N>
[[nodiscard]] constexpr MultiFloat<T, N> operator+(const MultiFloat<T, N>& x,
                                                   const MultiFloat<T, N>& y) noexcept {
    return add(x, y);
}

template <FloatingPoint T, int N>
[[nodiscard]] constexpr MultiFloat<T, N> operator-(const MultiFloat<T, N>& x,
                                                   const MultiFloat<T, N>& y) noexcept {
    return sub(x, y);
}

template <FloatingPoint T, int N>
[[nodiscard]] constexpr MultiFloat<T, N> operator+(const MultiFloat<T, N>& x, T y) noexcept {
    return add(x, y);
}

template <FloatingPoint T, int N>
[[nodiscard]] constexpr MultiFloat<T, N> operator+(T x, const MultiFloat<T, N>& y) noexcept {
    return add(y, x);
}

template <FloatingPoint T, int N>
[[nodiscard]] constexpr MultiFloat<T, N> operator-(const MultiFloat<T, N>& x, T y) noexcept {
    return add(x, -y);
}

template <FloatingPoint T, int N>
[[nodiscard]] constexpr MultiFloat<T, N> operator-(T x, const MultiFloat<T, N>& y) noexcept {
    return add(-y, x);
}

template <FloatingPoint T, int N>
constexpr MultiFloat<T, N>& operator+=(MultiFloat<T, N>& x, const MultiFloat<T, N>& y) noexcept {
    x = add(x, y);
    return x;
}

template <FloatingPoint T, int N>
constexpr MultiFloat<T, N>& operator-=(MultiFloat<T, N>& x, const MultiFloat<T, N>& y) noexcept {
    x = sub(x, y);
    return x;
}

template <FloatingPoint T, int N>
constexpr MultiFloat<T, N>& operator+=(MultiFloat<T, N>& x, T y) noexcept {
    x = add(x, y);
    return x;
}

template <FloatingPoint T, int N>
constexpr MultiFloat<T, N>& operator-=(MultiFloat<T, N>& x, T y) noexcept {
    x = add(x, -y);
    return x;
}

}  // namespace mf
