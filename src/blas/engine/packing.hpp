#pragma once
// Panel packing for the BLIS-style GEMM engine (DESIGN.md §11).
//
// gemm_packed copies the A and B blocks a macro-iteration will touch into
// contiguous 64-byte-aligned buffers before the micro-kernel sweeps them:
// each work item packs its own A block, and the region's workers pack the
// shared B block together, a slice of kk rows each.
// The payoff is the classical one: the micro-kernel then streams both
// operands at unit stride from small, cache-resident, conflict-free panels
// instead of striding through the full matrices.
//
// Panel layout: per-limb planes STAY planar inside the panel -- plane p of
// the packed block occupies one contiguous slab, exactly like a shrunken
// planar::Vector:
//
//   packed A (mc x kc):  buf[p * mc*kc + r * kc + kk]   (row-major rows)
//   packed B (kc x nc):  buf[p * kc*nc + kk * nc + j]   (row-major rows)
//
// so the dispatched Pack<T, W> FPAN kernels run stride-1 loads over packed B
// rows and packed C rows, and the per-(row, kk) A broadcast reads one scalar
// per plane. The source is read through a layout accessor (layout.hpp),
// one element at a time along each row, and written through a planar one:
// packing is a row copy between layouts. It costs O(block),
// amortized over O(block * panel) flops, and it is the only place the
// engine reads A or B.

#include <cstddef>
#include <cstdint>
#include <new>

#include "../../guard/inject.hpp"
#include "../../simd/layout.hpp"
#include "../../telemetry/events.hpp"

namespace mf::blas::engine {

/// 64-byte-aligned uninitialized scratch, grow-only (reallocation keeps no
/// contents: packing always overwrites the block it is about to use).
///
/// The block is a plain allocation of n elements plus one alignment's slack,
/// aligned by hand. An aligned operator new (glibc memalign) needs a free
/// chunk larger than the request, so it cannot reuse the hole its own
/// previous same-size block left behind.
template <typename T>
class AlignedBuffer {
public:
    AlignedBuffer() = default;
    ~AlignedBuffer() { release(); }
    AlignedBuffer(const AlignedBuffer&) = delete;
    AlignedBuffer& operator=(const AlignedBuffer&) = delete;

    static constexpr std::size_t alignment = 64;

    /// Ensure capacity for n elements; returns the (aligned) base pointer.
    /// Throws std::bad_alloc on exhaustion (real or injected) -- callers that
    /// must not fail mid-computation reserve their worst case up front (the
    /// packed GEMM does). Each reservation is one fault-injection point,
    /// whether or not it has to allocate.
    T* ensure(std::size_t n) {
        if (guard::inject::should_fail_alloc()) throw std::bad_alloc{};
        if (n > cap_) {
            release();
            raw_ = ::operator new(n * sizeof(T) + alignment);
            const auto addr = reinterpret_cast<std::uintptr_t>(raw_);
            p_ = reinterpret_cast<T*>((addr + alignment - 1) & ~(alignment - 1));
            cap_ = n;
        }
        return p_;
    }

    [[nodiscard]] T* data() const noexcept { return p_; }

private:
    void release() noexcept {
        ::operator delete(raw_);
        raw_ = nullptr;
        p_ = nullptr;
        cap_ = 0;
    }

    void* raw_ = nullptr;
    T* p_ = nullptr;
    std::size_t cap_ = 0;
};

/// The calling thread's pack scratch for base type T, kept across calls.
/// Allocating and freeing a block of a few hundred KiB per GEMM call left
/// it open to whatever small allocation landed in or just above the freed
/// block, after which the next call had to extend the heap: the resident
/// set then depended on allocation order (EXPERIMENTS.md, "BLAS entry at
/// arithmetic cost"). The block is bounded by the cache-block shape, not
/// the problem size, and is freed when the thread exits.
template <typename T>
AlignedBuffer<T>& thread_scratch() {
    thread_local AlignedBuffer<T> buf;
    return buf;
}

/// dst[j] = src[j] for j in [0, n): one row from a layout accessor into a
/// planar panel row.
template <typename Row, typename T, int N>
void copy_row(const Row& src, const simd::Planar<T, N>& dst, std::size_t n) {
    for (std::size_t j = 0; j < n; ++j) dst.set(j, src.get(j));
}

/// Pack the (mcb x kcb) block of A at (i0, k0) into `dst` (N * mcb * kcb
/// limbs), plane-major. `a` is a layout accessor (layout.hpp). On return
/// planes[p] points at packed plane p (row stride kcb).
template <typename Access, typename T = typename Access::value_type,
          int N = Access::limbs>
void pack_a(const Access& a, std::size_t i0, std::size_t k0, std::size_t mcb,
            std::size_t kcb, T* dst, const T* (&planes)[N]) {
    simd::Planar<T, N> panel;
    for (int p = 0; p < N; ++p) {
        panel.planes[p] = dst + static_cast<std::size_t>(p) * mcb * kcb;
        planes[p] = panel.planes[p];
    }
    for (std::size_t r = 0; r < mcb; ++r) copy_row(a.row(i0 + r) + k0, panel + r * kcb, kcb);
    MF_TELEM_COUNT_N("mf_gemm_pack_bytes_total{panel=\"a\"}",
                     static_cast<std::size_t>(N) * mcb * kcb * sizeof(T));
}

/// Pack rows [r0, r1) of the (kcb x ncb) block of B at (k0, j0) into the
/// block's buffer `dst` (N * kcb * ncb limbs, plane p at dst + p*kcb*ncb,
/// row stride ncb). `b` is a layout accessor (layout.hpp). Disjoint row
/// ranges write disjoint limbs, so the workers of one region can pack one
/// block together, each a slice of rows.
template <typename Access, typename T = typename Access::value_type,
          int N = Access::limbs>
void pack_b(const Access& b, std::size_t k0, std::size_t j0, std::size_t kcb,
            std::size_t ncb, std::size_t r0, std::size_t r1, T* dst) {
    simd::Planar<T, N> panel;
    for (int p = 0; p < N; ++p) panel.planes[p] = dst + static_cast<std::size_t>(p) * kcb * ncb;
    for (std::size_t kk = r0; kk < r1; ++kk) {
        copy_row(b.row(k0 + kk) + j0, panel + kk * ncb, ncb);
    }
    MF_TELEM_COUNT_N("mf_gemm_pack_bytes_total{panel=\"b\"}",
                     static_cast<std::size_t>(N) * (r1 - r0) * ncb * sizeof(T));
}

}  // namespace mf::blas::engine
