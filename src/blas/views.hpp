#pragma once
// Typed views for the mf::blas public API: a (pointer, extent) pair for
// vectors and a (pointer, rows, cols, stride) quadruple for row-major
// matrices, in const and mutable flavors.
//
// Rationale (DESIGN.md §11): a view carries its own shape, so call sites do
// not restate positional sizes and a transposed (n, m) swap is caught by the
// MF_BOUNDS_CHECK shape checks; it supports row strides (sub-matrix blocks without copying),
// and gives gemm/gemv a self-describing signature:
//
//   blas::gemm(blas::view(a, n, k), blas::view(b, k, m), blas::view(c, n, m));
//
// Mutable views convert implicitly to const views, so explicit-template-arg
// call sites (`blas::dot<V>(x, y)`) accept either. Deduced call sites pass
// ConstVectorView / ConstMatrixView (or the `view()` factory on a const
// container) for inputs.

#include <cstddef>
#include <vector>

#if defined(MF_BOUNDS_CHECK) && MF_BOUNDS_CHECK
#include <cstdio>
#include <cstdlib>
#endif

namespace mf::blas {

#if defined(MF_BOUNDS_CHECK) && MF_BOUNDS_CHECK

namespace detail {
/// Debug-build shape/stride violation: print which entry point rejected
/// which invariant, then abort (death-testable, sanitizer-friendly).
[[noreturn]] inline void bounds_fail(const char* site, const char* what) noexcept {
    std::fprintf(stderr, "mf::blas bounds check failed: %s: %s\n", site, what);
    std::abort();
}
}  // namespace detail

/// Shape/stride validation at blas:: entry points. Compiled in only under
/// the MF_BOUNDS_CHECK CMake option (a debugging configuration): the checks
/// sit outside the kernels' hot loops, but release builds keep the historic
/// zero-validation contract.
#define MF_BLAS_REQUIRE(cond, site, what) \
    ((cond) ? (void)0 : ::mf::blas::detail::bounds_fail(site, what))

#else

#define MF_BLAS_REQUIRE(cond, site, what) ((void)0)

#endif  // MF_BOUNDS_CHECK

/// Mutable contiguous vector view.
template <typename V>
struct VectorView {
    V* data = nullptr;
    std::size_t size = 0;

    constexpr VectorView() = default;
    constexpr VectorView(V* d, std::size_t n) noexcept : data(d), size(n) {}

    [[nodiscard]] constexpr V& operator[](std::size_t i) const noexcept {
        return data[i];
    }
    [[nodiscard]] constexpr bool empty() const noexcept { return size == 0; }
};

/// Read-only contiguous vector view; implicitly constructible from the
/// mutable view.
template <typename V>
struct ConstVectorView {
    const V* data = nullptr;
    std::size_t size = 0;

    constexpr ConstVectorView() = default;
    constexpr ConstVectorView(const V* d, std::size_t n) noexcept
        : data(d), size(n) {}
    constexpr ConstVectorView(VectorView<V> v) noexcept
        : data(v.data), size(v.size) {}

    [[nodiscard]] constexpr const V& operator[](std::size_t i) const noexcept {
        return data[i];
    }
    [[nodiscard]] constexpr bool empty() const noexcept { return size == 0; }
};

/// Mutable row-major matrix view. `stride` is the element distance between
/// consecutive row starts (>= cols; defaults to cols, i.e. contiguous).
template <typename V>
struct MatrixView {
    V* data = nullptr;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t stride = 0;

    constexpr MatrixView() = default;
    constexpr MatrixView(V* d, std::size_t r, std::size_t c,
                         std::size_t ld = 0) noexcept
        : data(d), rows(r), cols(c), stride(ld ? ld : c) {}

    [[nodiscard]] constexpr V* row(std::size_t i) const noexcept {
        return data + i * stride;
    }
    [[nodiscard]] constexpr V& operator()(std::size_t i, std::size_t j) const noexcept {
        return data[i * stride + j];
    }
    /// Row-major contiguous (a span over rows*cols elements is valid)?
    [[nodiscard]] constexpr bool contiguous() const noexcept {
        return stride == cols;
    }
};

/// Read-only row-major matrix view; implicitly constructible from the
/// mutable view.
template <typename V>
struct ConstMatrixView {
    const V* data = nullptr;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t stride = 0;

    constexpr ConstMatrixView() = default;
    constexpr ConstMatrixView(const V* d, std::size_t r, std::size_t c,
                              std::size_t ld = 0) noexcept
        : data(d), rows(r), cols(c), stride(ld ? ld : c) {}
    constexpr ConstMatrixView(MatrixView<V> v) noexcept
        : data(v.data), rows(v.rows), cols(v.cols), stride(v.stride) {}

    [[nodiscard]] constexpr const V* row(std::size_t i) const noexcept {
        return data + i * stride;
    }
    [[nodiscard]] constexpr const V& operator()(std::size_t i,
                                                std::size_t j) const noexcept {
        return data[i * stride + j];
    }
    [[nodiscard]] constexpr bool contiguous() const noexcept {
        return stride == cols;
    }
};

// --- factories: the idiomatic way to view std::vector-backed storage -------

template <typename V>
[[nodiscard]] constexpr VectorView<V> view(std::vector<V>& v) noexcept {
    return {v.data(), v.size()};
}
template <typename V>
[[nodiscard]] constexpr ConstVectorView<V> view(const std::vector<V>& v) noexcept {
    return {v.data(), v.size()};
}
template <typename V>
[[nodiscard]] constexpr MatrixView<V> view(std::vector<V>& v, std::size_t rows,
                                           std::size_t cols,
                                           std::size_t stride = 0) noexcept {
    return {v.data(), rows, cols, stride};
}
template <typename V>
[[nodiscard]] constexpr ConstMatrixView<V> view(const std::vector<V>& v,
                                                std::size_t rows, std::size_t cols,
                                                std::size_t stride = 0) noexcept {
    return {v.data(), rows, cols, stride};
}

}  // namespace mf::blas
