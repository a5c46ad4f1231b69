#pragma once
// Cross-backend differential checker: the scalar FPAN kernels are the
// reference semantics; every compiled SIMD backend, every pack width, and
// every parallel schedule must reproduce them bit-for-bit (DESIGN.md §8's
// bit-exactness rationale, checked here over the same structure-aware corpus
// the conformance runner fuzzes with).
//
// Three surfaces are diffed:
//   * the elementwise kernels (add, and axpy on planar and on AoS operands:
//     records add_range, fma_range, axpy_aos) dispatched per runtime backend
//     vs. the width-1 planar kernel, and the rank-1 kernel kernels::ger on
//     AoS rows (record ger_aos) at each backend's width vs. its width-1
//     instantiation;
//   * the dot reduction on both layouts (dot, dot_aos), which additionally
//     pins the historical eight-accumulator merge order for widths <= 8;
//   * gemm_packed (the blas/engine packed cache-blocked GEMM) vs. the scalar
//     check::reference_gemm across every available backend and worker
//     count, including deliberately tiny cache blocks so pack edges are
//     exercised, plus runs nested inside a region (nesting guard) and from
//     concurrent callers while a region holds the team (busy guard).
//
// Comparison is raw bit identity per limb, except that any-NaN == any-NaN:
// lanes that produce NaN must agree on NaN-ness, not on payload bits.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "../blas/engine/gemm_packed.hpp"
#include "../blas/planar.hpp"
#include "../simd/simd.hpp"
#include "generators.hpp"
#include "reference.hpp"

namespace mf::check {

/// One diffed (kernel, backend/schedule) combination.
struct DiffRecord {
    std::string kernel;   ///< "add_range" | "fma_range" | "axpy_aos" | "ger_aos" |
                          ///< "dot" | "dot_aos" | "gemm_packed"
    std::string type;     ///< "double" | "float"
    int limbs = 0;
    std::string backend;  ///< backend name; gemm adds "/threads=K", or is
                          ///< "nested" | "concurrent"
    int width = 0;        ///< pack lanes of the backend under test
    std::uint64_t elements = 0;
    std::uint64_t mismatches = 0;
};

namespace detail {

template <typename T>
using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

/// Bit identity with NaN-payload tolerance.
template <typename T>
[[nodiscard]] inline bool same_bits(T a, T b) noexcept {
    if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
    return std::bit_cast<Bits<T>>(a) == std::bit_cast<Bits<T>>(b);
}

/// RAII backend save/restore.
class BackendGuard {
public:
    BackendGuard() : saved_(simd::active_backend()) {}
    ~BackendGuard() { simd::set_backend(saved_); }
    BackendGuard(const BackendGuard&) = delete;
    BackendGuard& operator=(const BackendGuard&) = delete;

private:
    simd::Backend saved_;
};

template <std::floating_point T, int N>
void fill_vectors(std::mt19937_64& rng, std::size_t n, const GenConfig& cfg,
                  planar::Vector<T, N>& v) {
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Category cat = pick_category(rng, cfg);
        v.set(i, gen<T, N>(rng, cat == Category::cancellation ? Category::ladder : cat, cfg));
    }
}

/// Do a and b agree limb by limb (NaN-payload tolerant)?
template <std::floating_point T, int N>
[[nodiscard]] bool same_bits(const MultiFloat<T, N>& a, const MultiFloat<T, N>& b) noexcept {
    for (int k = 0; k < N; ++k) {
        if (!same_bits(a.limb[k], b.limb[k])) return false;
    }
    return true;
}

/// Elements of [0, n) on which two layout accessors differ.
template <typename A, typename B>
[[nodiscard]] std::uint64_t count_mismatches(const A& a, const B& b, std::size_t n) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) bad += same_bits(a.get(i), b.get(i)) ? 0 : 1;
    return bad;
}

template <std::floating_point T, int N>
[[nodiscard]] std::uint64_t count_mismatches(const planar::Vector<T, N>& a,
                                             const planar::Vector<T, N>& b,
                                             std::size_t n) {
    return count_mismatches(planar::access(a), planar::access(b), n);
}

}  // namespace detail

/// Diff every available backend's elementwise kernels and dot reduction,
/// on planar and on AoS operands, against the scalar width-1 planar
/// reference over `rounds` corpora of `n` elements each (sizes are
/// perturbed per round to exercise tails). A non-empty `only` restricts the
/// sweep to that one backend by name.
template <std::floating_point T, int N>
[[nodiscard]] std::vector<DiffRecord> diff_backends(std::uint64_t seed, std::size_t n,
                                                    int rounds, const GenConfig& cfg = {},
                                                    std::string_view only = {}) {
    const char* type = sizeof(T) == 8 ? "double" : "float";
    std::vector<DiffRecord> out;
    detail::BackendGuard guard;
    for (simd::Backend b : {simd::Backend::scalar, simd::Backend::sse2,
                            simd::Backend::avx2, simd::Backend::avx512,
                            simd::Backend::neon}) {
        if (!simd::backend_available(b)) continue;
        if (!only.empty() && only != simd::backend_name(b)) continue;
        const auto record = [&](const char* kernel) {
            return DiffRecord{kernel, type, N, simd::backend_name(b),
                              simd::backend_width<T>(b), 0, 0};
        };
        DiffRecord add_rec = record("add_range");
        DiffRecord fma_rec = record("fma_range");
        DiffRecord axpy_aos_rec = record("axpy_aos");
        DiffRecord ger_aos_rec = record("ger_aos");
        DiffRecord dot_rec = record("dot");
        DiffRecord dot_aos_rec = record("dot_aos");
        // The eight-accumulator merge order is pinned for widths <= 8;
        // wider backends legitimately reassociate the reduction.
        const bool pinned_dot = simd::backend_width<T>(b) <= 8;
        std::mt19937_64 rng(seed);  // same corpus for every backend
        for (int r = 0; r < rounds; ++r) {
            const std::size_t len = n + static_cast<std::size_t>(rng() % 17);
            planar::Vector<T, N> x, y, z_ref, z_got;
            detail::fill_vectors(rng, len, cfg, x);
            detail::fill_vectors(rng, len, cfg, y);
            const MultiFloat<T, N> alpha =
                gen<T, N>(rng, Category::ladder, cfg);
            z_ref.resize(len);
            z_got.resize(len);
            const auto xp = planar::access(x);
            const auto yp = planar::access(y);
            // The same operands in the mf::blas layout.
            std::vector<MultiFloat<T, N>> xa(len), ya(len);
            for (std::size_t i = 0; i < len; ++i) {
                xa[i] = x.get(i);
                ya[i] = y.get(i);
            }

            // Reference: explicit width-1 scalar kernels.
            simd::kernels::add<1>(xp, yp, planar::access(z_ref), len);
            const MultiFloat<T, N> dot_ref = simd::kernels::dot<1>(xp, yp, len);
            planar::Vector<T, N> fma_ref = y;
            simd::kernels::axpy<1>(alpha, xp, planar::access(fma_ref), len);

            // Under test: the dispatched path on backend b.
            simd::set_backend(b);
            simd::add(xp, yp, planar::access(z_got), len);
            add_rec.elements += len;
            add_rec.mismatches += detail::count_mismatches(z_ref, z_got, len);

            planar::Vector<T, N> y2 = y;
            simd::axpy(alpha, xp, planar::access(y2), len);
            fma_rec.elements += len;
            fma_rec.mismatches += detail::count_mismatches(fma_ref, y2, len);

            const MultiFloat<T, N> dot_got = simd::dot(xp, yp, len);
            ++dot_rec.elements;
            if (pinned_dot && !detail::same_bits(dot_got, dot_ref)) ++dot_rec.mismatches;

            // The AoS dot runs the same width and order as the planar one,
            // so it matches it (and the reference where that is pinned).
            const MultiFloat<T, N> dot_aos_got =
                simd::dot(simd::aos(xa.data()), simd::aos(ya.data()), len);
            ++dot_aos_rec.elements;
            if (!detail::same_bits(dot_aos_got, pinned_dot ? dot_ref : dot_got)) {
                ++dot_aos_rec.mismatches;
            }

            // ger_aos: rows 2R+1 (two row blocks and a partial one) by len,
            // its matrix drawn from a generator of its own, so the records
            // above see the corpus they always saw.
            {
                constexpr std::size_t rows = 2 * simd::kernels::kGerRows + 1;
                std::mt19937_64 grng(seed + 0x9e3779b97f4a7c15ull * (r + 1));
                planar::Vector<T, N> a0;
                detail::fill_vectors(grng, rows * len, cfg, a0);
                std::vector<MultiFloat<T, N>> a_ref(rows * len), a_got;
                for (std::size_t i = 0; i < a_ref.size(); ++i) a_ref[i] = a0.get(i);
                a_got = a_ref;
                const auto mult = simd::kernels::scaled(alpha, simd::aos(std::as_const(xa).data()));
                const auto yr = simd::aos(std::as_const(ya).data());
                using M = simd::Matrix<simd::Aos<T, N>>;
                simd::kernels::ger<1>(mult, yr, M{simd::aos(a_ref.data()), rows, len, len}, rows,
                                      len);
                simd::with_active_width<T>([&](auto w) {
                    simd::kernels::ger<w()>(mult, yr, M{simd::aos(a_got.data()), rows, len, len},
                                            rows, len);
                });
                ger_aos_rec.elements += rows * len;
                ger_aos_rec.mismatches += detail::count_mismatches(
                    simd::aos(std::as_const(a_ref).data()), simd::aos(std::as_const(a_got).data()),
                    rows * len);
            }

            simd::axpy(alpha, simd::aos(xa.data()), simd::aos(ya.data()), len);
            axpy_aos_rec.elements += len;
            axpy_aos_rec.mismatches += detail::count_mismatches(
                planar::access(fma_ref), simd::aos(ya.data()), len);
        }
        out.push_back(std::move(add_rec));
        out.push_back(std::move(fma_rec));
        out.push_back(std::move(axpy_aos_rec));
        out.push_back(std::move(ger_aos_rec));
        out.push_back(std::move(dot_rec));
        out.push_back(std::move(dot_aos_rec));
    }
    return out;
}

/// Diff gemm_packed against check::reference_gemm across every available
/// backend x worker count. `blocks` pins the cache blocks -- pass
/// deliberately tiny ones (e.g. {8, 8, 16}) to force many pack edges and
/// remainder micro-tiles; the default auto-selects per backend. Two more
/// records run at the default worker count while one two-worker region
/// holds the team: "nested" has the region's worker and its caller's own
/// share each issue a GEMM, which the engine must run serially instead of
/// nesting; "concurrent" has two other threads issue theirs meanwhile,
/// which must run serially instead of waiting for the busy team.
template <std::floating_point T, int N>
[[nodiscard]] std::vector<DiffRecord> diff_gemm_packed(
    std::uint64_t seed, std::size_t n, std::size_t k, std::size_t m,
    const std::vector<int>& thread_counts, const GenConfig& cfg = {},
    blas::BlockShape blocks = {}) {
    const char* type = sizeof(T) == 8 ? "double" : "float";
    std::mt19937_64 rng(seed);
    planar::Vector<T, N> a, b;
    detail::fill_vectors(rng, n * k, cfg, a);
    detail::fill_vectors(rng, k * m, cfg, b);
    const planar::Vector<T, N> want = reference_gemm_planar(a, b, n, k, m);

    std::vector<DiffRecord> out;
    blas::GemmConfig pcfg;
    pcfg.blocks = blocks;
    const auto run = [&](planar::Vector<T, N>& c) {
        blas::gemm_packed(planar::matrix_view(a, n, k), planar::matrix_view(b, k, m),
                          planar::matrix_view(c, n, m), pcfg);
    };
    {
        detail::BackendGuard guard;
        for (simd::Backend bk : {simd::Backend::scalar, simd::Backend::sse2,
                                 simd::Backend::avx2, simd::Backend::avx512,
                                 simd::Backend::neon}) {
            if (!simd::backend_available(bk)) continue;
            simd::set_backend(bk);
            for (int t : thread_counts) {
                planar::Vector<T, N> c(n * m);
                pcfg.max_threads = static_cast<unsigned>(t);
                run(c);
                out.push_back({"gemm_packed", type, N,
                               std::string(simd::backend_name(bk)) + "/threads=" +
                                   std::to_string(t),
                               simd::backend_width<T>(bk), n * m,
                               detail::count_mismatches(c, want, n * m)});
            }
        }
    }
    pcfg.max_threads = 0;
    std::vector<planar::Vector<T, N>> cs(4, planar::Vector<T, N>(n * m));
    blas::engine::parallel_blocks_slots(
        2,
        [&](std::size_t blk, unsigned) {
            run(cs[blk]);
            if (blk != 0) return;  // block 0 is the caller's own share
            std::thread callers[2] = {std::thread([&] { run(cs[2]); }),
                                      std::thread([&] { run(cs[3]); })};
            for (std::thread& t : callers) t.join();
        },
        2);
    for (std::size_t r = 0; r < 2; ++r) {
        DiffRecord rec{"gemm_packed", type, N, r == 0 ? "nested" : "concurrent",
                       simd::active_width<T>(), 2 * n * m, 0};
        for (std::size_t i = 2 * r; i < 2 * r + 2; ++i) {
            rec.mismatches += detail::count_mismatches(cs[i], want, n * m);
        }
        out.push_back(std::move(rec));
    }
    return out;
}

}  // namespace mf::check
