#pragma once
// Pack<T, W>: a fixed-width SIMD vector of W lanes of the IEEE scalar T.
//
// This is the value type the explicit-SIMD FPAN path is built on. A Pack
// behaves exactly like a scalar under +, -, unary -, * and fma() -- each lane
// performs the identical correctly rounded IEEE operation -- so the existing
// accumulation networks in mf/add.hpp and mf/mul.hpp instantiate over packs
// unchanged (Pack opts into the mf::FloatingPoint concept below) and produce
// bit-for-bit the same limbs per lane as the scalar kernels. That is the
// whole correctness story: no separate "vectorized algorithm" exists to
// diverge from the scalar one.
//
// The primary template is a portable scalar-loop fallback that works for any
// (T, W) and is what the compiler sees when no SIMD ISA is enabled (or when
// MF_SIMD_FORCE_SCALAR is defined); it is also the reference the tests
// compare every other pack against. On x86 one partial specialization
// covers every (T, W) that fills a register the build compiles for (16
// bytes with SSE2, 32 with AVX2, 64 with AVX-512): it holds a GCC
// vector-extension value, and its lane arithmetic, compare, blend and
// shuffles are the extension's generic operators. Only what GCC has no
// generic form for is written per ISA: the fused multiply-add (TwoProd
// requires one; per-lane std::fma where the build has no FMA instruction),
// the AVX2 / AVX-512 masked partial moves, and the shuffle span of a
// 32-byte pack without AVX-512VL. NEON keeps intrinsic specializations of
// its two 16-byte packs.
//
// Every pack also converts W interleaved records of N scalars -- W elements
// of an AoS MultiFloat array -- into N packs and back: load_interleaved and
// store_interleaved. The x86 packs do it with register shuffles.
//
// Partial packs end a kernel's sweep: load_n / store_n move the first
// `count` < W lanes of one pack and load_interleaved_n /
// store_interleaved_n the first `count` records, touching nothing past
// them. AVX2 and AVX-512 use masked moves; 16-byte packs and the primary
// template copy lane by lane. A lane compare and a bit select, cmp_lt and
// select, let a kernel pick per lane without a branch.

#include <array>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <utility>

#include "../mf/eft.hpp"

#if !defined(MF_SIMD_FORCE_SCALAR)
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <immintrin.h>
#define MF_SIMD_X86 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define MF_SIMD_ARM 1
#endif
#endif

// Which native packs exist in this translation unit. These feed the
// backend_compiled() predicate in backend.hpp; runtime dispatch never
// routes to a backend whose packs were not compiled in.
#if defined(MF_SIMD_X86) && defined(__SSE2__)
#define MF_SIMD_HAVE_SSE2 1
#else
#define MF_SIMD_HAVE_SSE2 0
#endif
#if defined(MF_SIMD_X86) && defined(__AVX__) && defined(__AVX2__)
#define MF_SIMD_HAVE_AVX2 1
#else
#define MF_SIMD_HAVE_AVX2 0
#endif
#if defined(MF_SIMD_X86) && defined(__AVX512F__)
#define MF_SIMD_HAVE_AVX512 1
#else
#define MF_SIMD_HAVE_AVX512 0
#endif
#if defined(MF_SIMD_ARM) && defined(__aarch64__)
#define MF_SIMD_HAVE_NEON 1
#else
#define MF_SIMD_HAVE_NEON 0
#endif

namespace mf::simd {

namespace detail {

/// Lane counts a Pack may have. A named concept, so that native_pack
/// subsumes it and the vector-extension Pack below is more constrained than
/// the primary template.
template <int W>
concept lane_count = W >= 1;

/// (T, W) fills one x86 register this build compiles for: 16 bytes with
/// SSE2, 32 with AVX2, 64 with AVX-512.
template <typename T, int W>
concept native_pack =
    lane_count<W> && ((sizeof(T) * W == 16 && MF_SIMD_HAVE_SSE2 != 0) ||
                      (sizeof(T) * W == 32 && MF_SIMD_HAVE_AVX2 != 0) ||
                      (sizeof(T) * W == 64 && MF_SIMD_HAVE_AVX512 != 0));

}  // namespace detail

/// Portable scalar-loop pack: correct for any width, on any target. The
/// small fixed-trip loops are unrolled by pragma, so the lanes stay scalar
/// registers: left to the loop vectorizer, a few of them became vector ops
/// fed and drained through the stack, and a Complex<double, 3> multiply over
/// Pack<double, 4> ran 5x slower. With vector ISAs disabled this is also the
/// reference implementation the x86 and NEON packs must agree with
/// bit-for-bit (tests/simd_pack_test.cpp).
template <std::floating_point T, int W>
    requires detail::lane_count<W>
struct Pack {
    using value_type = T;
    static constexpr int width = W;

    T lane[W];

    MF_ALWAYS_INLINE constexpr Pack() noexcept : lane{} {}

    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(T v) noexcept {
        Pack r;
#pragma GCC unroll 16
        for (int i = 0; i < W; ++i) r.lane[i] = v;
        return r;
    }
    /// Unaligned load of W consecutive lanes.
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const T* p) noexcept {
        Pack r;
#pragma GCC unroll 16
        for (int i = 0; i < W; ++i) r.lane[i] = p[i];
        return r;
    }
    MF_ALWAYS_INLINE void store(T* p) const noexcept {
#pragma GCC unroll 16
        for (int i = 0; i < W; ++i) p[i] = lane[i];
    }
    [[nodiscard]] MF_ALWAYS_INLINE T operator[](int i) const noexcept { return lane[i]; }

    /// Pack from a lane list: lane i is the i-th argument.
    template <std::same_as<T>... L>
        requires(sizeof...(L) == W)
    [[nodiscard]] static MF_ALWAYS_INLINE Pack setr(L... x) noexcept {
        Pack r;
        int i = 0;
        ((r.lane[i++] = x), ...);
        return r;
    }
    /// The low lanes [0, W/2) and the high lanes [W/2, W) as two packs.
    [[nodiscard]] MF_ALWAYS_INLINE auto halves() const noexcept
        requires(W % 2 == 0)
    {
        return std::array{Pack<T, W / 2>::load(lane), Pack<T, W / 2>::load(lane + W / 2)};
    }

    /// Deinterleave W consecutive records of N scalars: lane j of pack k is
    /// p[j * N + k]. This is the AoS -> pack transpose of simd/kernels.hpp;
    /// the loop here is the reference every other pack must match.
    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<Pack, N> load_interleaved(
        const T* p) noexcept {
        std::array<Pack, N> r;
        for (int k = 0; k < N; ++k) {
            for (int j = 0; j < W; ++j) r[k].lane[j] = p[j * N + k];
        }
        return r;
    }
    /// The inverse: p[j * N + k] = lane j of v[k].
    template <int N>
    static MF_ALWAYS_INLINE void store_interleaved(const std::array<Pack, N>& v,
                                                   T* p) noexcept {
        for (int k = 0; k < N; ++k) {
            for (int j = 0; j < W; ++j) p[j * N + k] = v[k].lane[j];
        }
    }

    /// Lanes [0, count) from p[0, count), the others zero (0 <= count <= W).
    /// Nothing at or past p[count] is read.
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load_n(const T* p, int count) noexcept {
        Pack r;
        for (int i = 0; i < count; ++i) r.lane[i] = p[i];
        return r;
    }
    /// Lanes [0, count) to p[0, count); nothing at or past p[count] is written.
    MF_ALWAYS_INLINE void store_n(T* p, int count) const noexcept {
        for (int i = 0; i < count; ++i) p[i] = lane[i];
    }
    /// load_interleaved of the first `count` records (0 <= count <= W): lanes
    /// [count, W) are zero and nothing at or past p[count * N] is read.
    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<Pack, N> load_interleaved_n(
        const T* p, int count) noexcept {
        std::array<Pack, N> r;
        for (int k = 0; k < N; ++k) {
            for (int j = 0; j < count; ++j) r[k].lane[j] = p[j * N + k];
        }
        return r;
    }
    /// store_interleaved of lanes [0, count): nothing at or past p[count * N]
    /// is written.
    template <int N>
    static MF_ALWAYS_INLINE void store_interleaved_n(const std::array<Pack, N>& v, T* p,
                                                     int count) noexcept {
        for (int k = 0; k < N; ++k) {
            for (int j = 0; j < count; ++j) p[j * N + k] = v[k].lane[j];
        }
    }

    /// Per-lane truth values of cmp_lt, consumed by select.
    using Mask = std::array<bool, W>;
    /// Lane-wise a < b; false where either lane is NaN (an ordered compare).
    [[nodiscard]] friend MF_ALWAYS_INLINE Mask cmp_lt(Pack a, Pack b) noexcept {
        Mask m;
#pragma GCC unroll 16
        for (int i = 0; i < W; ++i) m[i] = a.lane[i] < b.lane[i];
        return m;
    }
    /// Lane-wise m ? x : y, a bit copy: NaN payloads and zero signs survive.
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack select(Mask m, Pack x, Pack y) noexcept {
        Pack r;
#pragma GCC unroll 16
        for (int i = 0; i < W; ++i) r.lane[i] = m[i] ? x.lane[i] : y.lane[i];
        return r;
    }

    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        Pack r;
#pragma GCC unroll 16
        for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] + b.lane[i];
        return r;
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        Pack r;
#pragma GCC unroll 16
        for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] - b.lane[i];
        return r;
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        Pack r;
#pragma GCC unroll 16
        for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i];
        return r;
    }
    /// Lane-wise IEEE negation (sign-bit flip, exact for -0.0 and NaN too).
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        Pack r;
#pragma GCC unroll 16
        for (int i = 0; i < W; ++i) r.lane[i] = -a.lane[i];
        return r;
    }
    /// Fused multiply-add, correctly rounded per lane (required by TwoProd).
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        Pack r;
#pragma GCC unroll 16
        for (int i = 0; i < W; ++i) r.lane[i] = std::fma(a.lane[i], b.lane[i], c.lane[i]);
        return r;
    }
};

// ---------------------------------------------------------------------------
// x86 packs: one template over GCC's vector extension for every (T, W) that
// fills a register the build compiles for (detail::native_pack). The lane
// arithmetic, compare and blend are the extension's operators, and the
// compiler picks the instruction for the register width. Unary minus folds
// into a consuming FMA, so two_prod's fma(a, b, -p) becomes one vfmsub; the
// sign flip is exact, so no non-NaN result changes.
//
// Record transposes (load_interleaved / store_interleaved) stay in
// registers. A lane buffer written W scalars at a time and then reloaded as
// one pack stalls on store forwarding, which made the AoS kernels 7-8x
// slower than planar (EXPERIMENTS.md, "AoS kernels at planar speed"). They
// are built on two shuffles,
//
//   unzip(a, b, even, odd)  split the 2W scalars a:b into their even- and
//                           odd-indexed halves;
//   zip(even, odd, lo, hi)  the inverse;
//
// N = 2 is one unzip. N = 4 is two rounds of it: the first separates limbs
// {0, 2} from {1, 3}, the second splits each pair. Any other N builds each
// limb from the scalars p[j * N + k] (a lane literal) and stores it lane by
// lane; that direction is cheap, because scalar reads of one wide store do
// forward. The partial forms move the N chunks of W scalars with load_n /
// store_n instead of whole-pack moves, so they read and write nothing past
// the last record; N = 3 goes through a zero-padded lane buffer.
//
// What stays per ISA is what GCC has no generic form for:
//   * fma: the fused instruction where the build has one (detail::fmadd),
//     per-lane std::fma otherwise (SSE2-era parts);
//   * load_n / store_n: AVX2 and AVX-512 masked moves (detail::masked_load,
//     masked_store); 16-byte packs copy lane by lane;
//   * the shuffle span: a 32-byte pack without AVX-512VL has no two-source
//     permute, so unzip / zip shuffle within 16-byte halves and swap the
//     middle 64-bit pairs (vpermpd 0xD8), the form GCC lowers to the fewest
//     instructions there.
// cmp_lt is `a < b`, which GCC emits with the signaling LT_OS predicate
// (cmpltpd, or a compare into a k register on AVX-512). Its lanes equal the
// quiet LT_OQ compare's; only the sticky invalid flag differs on a quiet
// NaN, and the guard sentinels compare control bits, not flags
// (guard::kEnvControlMask).
// ---------------------------------------------------------------------------

#if MF_SIMD_HAVE_SSE2

namespace detail {

// A register type with no overload below picks these, so Pack's requires
// test fails and it takes the generic form.
void fmadd(...) = delete;
void masked_load(...) = delete;
void masked_store(...) = delete;

#if defined(__FMA__)
MF_ALWAYS_INLINE __m128 fmadd(__m128 a, __m128 b, __m128 c) noexcept {
    return _mm_fmadd_ps(a, b, c);
}
MF_ALWAYS_INLINE __m128d fmadd(__m128d a, __m128d b, __m128d c) noexcept {
    return _mm_fmadd_pd(a, b, c);
}
#if MF_SIMD_HAVE_AVX2
MF_ALWAYS_INLINE __m256 fmadd(__m256 a, __m256 b, __m256 c) noexcept {
    return _mm256_fmadd_ps(a, b, c);
}
MF_ALWAYS_INLINE __m256d fmadd(__m256d a, __m256d b, __m256d c) noexcept {
    return _mm256_fmadd_pd(a, b, c);
}
#endif
#endif  // __FMA__

#if MF_SIMD_HAVE_AVX2
/// Masked moves: lanes [0, count) of the 32-bit (live32) or 64-bit (live64)
/// lanes are live.
MF_ALWAYS_INLINE __m256i live32(int count) noexcept {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(count), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
MF_ALWAYS_INLINE __m256i live64(int count) noexcept {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(count), _mm256_setr_epi64x(0, 1, 2, 3));
}
MF_ALWAYS_INLINE void masked_load(const float* p, int count, __m256& r) noexcept {
    r = _mm256_maskload_ps(p, live32(count));
}
MF_ALWAYS_INLINE void masked_load(const double* p, int count, __m256d& r) noexcept {
    r = _mm256_maskload_pd(p, live64(count));
}
MF_ALWAYS_INLINE void masked_store(float* p, int count, __m256 v) noexcept {
    _mm256_maskstore_ps(p, live32(count), v);
}
MF_ALWAYS_INLINE void masked_store(double* p, int count, __m256d v) noexcept {
    _mm256_maskstore_pd(p, live64(count), v);
}
#endif  // MF_SIMD_HAVE_AVX2

#if MF_SIMD_HAVE_AVX512
MF_ALWAYS_INLINE __m512 fmadd(__m512 a, __m512 b, __m512 c) noexcept {
    return _mm512_fmadd_ps(a, b, c);
}
MF_ALWAYS_INLINE __m512d fmadd(__m512d a, __m512d b, __m512d c) noexcept {
    return _mm512_fmadd_pd(a, b, c);
}
/// Masked moves: the low `count` bits of the mask are live.
MF_ALWAYS_INLINE void masked_load(const float* p, int count, __m512& r) noexcept {
    r = _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << count) - 1u), p);
}
MF_ALWAYS_INLINE void masked_load(const double* p, int count, __m512d& r) noexcept {
    r = _mm512_maskz_loadu_pd(static_cast<__mmask8>((1u << count) - 1u), p);
}
MF_ALWAYS_INLINE void masked_store(float* p, int count, __m512 v) noexcept {
    _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << count) - 1u), v);
}
MF_ALWAYS_INLINE void masked_store(double* p, int count, __m512d v) noexcept {
    _mm512_mask_storeu_pd(p, static_cast<__mmask8>((1u << count) - 1u), v);
}
#endif  // MF_SIMD_HAVE_AVX512

/// Bytes one unzip / zip shuffle of a 32-byte pack spans (see above).
#if defined(__AVX512VL__)
inline constexpr int kYmmShuffleBytes = 32;
#else
inline constexpr int kYmmShuffleBytes = 16;
#endif

}  // namespace detail

template <std::floating_point T, int W>
    requires detail::native_pack<T, W>
struct Pack<T, W> {
    using value_type = T;
    static constexpr int width = W;
    // A member typedef: GCC 12 drops vector_size from a dependent alias
    // template.
    typedef T V __attribute__((vector_size(sizeof(T) * W)));
    // What load and store move through: V at T's alignment, allowed to alias
    // T, as GCC's own _mm*_loadu / _mm*_storeu are written. (A memcpy store
    // let GCC fuse the four chunk stores of store_interleaved<4> into one
    // memcpy from a stack copy.)
    typedef T Unaligned
        __attribute__((vector_size(sizeof(T) * W), aligned(alignof(T)), may_alias));
    /// Per-lane truth values of cmp_lt: all-ones or zero integer lanes.
    using Mask = decltype(V{} < V{});

    V v;

    MF_ALWAYS_INLINE Pack() noexcept : v{} {}
    MF_ALWAYS_INLINE explicit Pack(V x) noexcept : v(x) {}

    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(T x) noexcept {
        return splat(x, std::make_index_sequence<W>{});
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const T* p) noexcept {
        return Pack(*reinterpret_cast<const Unaligned*>(p));
    }
    MF_ALWAYS_INLINE void store(T* p) const noexcept { *reinterpret_cast<Unaligned*>(p) = v; }
    // Through a stored copy, not v[i]: a variable index into v keeps v in
    // memory, and dot's lane merge then reloads every lane from the stack.
    // From the copy, GCC extracts the lanes in registers once unrolling has
    // made the index constant.
    [[nodiscard]] MF_ALWAYS_INLINE T operator[](int i) const noexcept {
        T t[W];
        store(t);
        return t[i];
    }

    template <std::same_as<T>... L>
        requires(sizeof...(L) == W)
    [[nodiscard]] static MF_ALWAYS_INLINE Pack setr(L... x) noexcept {
        return Pack(V{x...});
    }
    [[nodiscard]] MF_ALWAYS_INLINE auto halves() const noexcept {
        return halves(std::make_index_sequence<W / 2>{});
    }

    /// Lanes [0, count) from p[0, count), the others zero; nothing at or
    /// past p[count] is read.
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load_n(const T* p, int count) noexcept {
        Pack r;
        if constexpr (requires { detail::masked_load(p, count, r.v); }) {
            detail::masked_load(p, count, r.v);
        } else {
            T buf[W] = {};
            for (int j = 0; j < count; ++j) buf[j] = p[j];
            r = load(buf);
        }
        return r;
    }
    /// Lanes [0, count) to p[0, count); nothing at or past p[count] is written.
    MF_ALWAYS_INLINE void store_n(T* p, int count) const noexcept {
        if constexpr (requires { detail::masked_store(p, count, v); }) {
            detail::masked_store(p, count, v);
        } else {
            T buf[W];
            store(buf);
            for (int j = 0; j < count; ++j) p[j] = buf[j];
        }
    }

    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<Pack, N> load_interleaved(
        const T* p) noexcept {
        if constexpr (N == 1 || N == 2 || N == 4) {
            std::array<Pack, N> c;
            for (int i = 0; i < N; ++i) c[i] = load(p + i * W);
            return unzip_chunks<N>(c);
        } else {
            std::array<Pack, N> r;
            for (int k = 0; k < N; ++k) r[k] = strided<N>(p + k, std::make_index_sequence<W>{});
            return r;
        }
    }
    template <int N>
    static MF_ALWAYS_INLINE void store_interleaved(const std::array<Pack, N>& v,
                                                   T* p) noexcept {
        if constexpr (N == 1 || N == 2 || N == 4) {
            const std::array<Pack, N> c = zip_chunks<N>(v);
            for (int i = 0; i < N; ++i) c[i].store(p + i * W);
        } else {
            for (int k = 0; k < N; ++k) {
                for (int j = 0; j < W; ++j) p[j * N + k] = v[k][j];
            }
        }
    }
    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<Pack, N> load_interleaved_n(
        const T* p, int count) noexcept {
        if constexpr (N == 1 || N == 2 || N == 4) {
            std::array<Pack, N> c;
            for (int i = 0; i < N; ++i) c[i] = load_n(p + i * W, chunk_count<N>(i, count));
            return unzip_chunks<N>(c);
        } else {
            T buf[N * W] = {};
            for (int i = 0; i < N * count; ++i) buf[i] = p[i];
            return load_interleaved<N>(buf);
        }
    }
    template <int N>
    static MF_ALWAYS_INLINE void store_interleaved_n(const std::array<Pack, N>& v, T* p,
                                                     int count) noexcept {
        if constexpr (N == 1 || N == 2 || N == 4) {
            const std::array<Pack, N> c = zip_chunks<N>(v);
            for (int i = 0; i < N; ++i) c[i].store_n(p + i * W, chunk_count<N>(i, count));
        } else {
            for (int k = 0; k < N; ++k) {
                for (int j = 0; j < count; ++j) p[j * N + k] = v[k][j];
            }
        }
    }

    [[nodiscard]] friend MF_ALWAYS_INLINE Mask cmp_lt(Pack a, Pack b) noexcept {
        return a.v < b.v;
    }
    /// Lane-wise m ? x : y, a bit copy: NaN payloads and zero signs survive.
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack select(Mask m, Pack x, Pack y) noexcept {
        return Pack(m ? x.v : y.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(a.v + b.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(a.v - b.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(a.v * b.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept { return Pack(-a.v); }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        if constexpr (requires { detail::fmadd(a.v, b.v, c.v); }) {
            return Pack(detail::fmadd(a.v, b.v, c.v));
        } else {
            Pack r;
            for (int i = 0; i < W; ++i) r.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
            return r;
        }
    }

private:
    /// Split the 2W scalars a:b into their even- and odd-indexed halves.
    static MF_ALWAYS_INLINE void unzip(Pack a, Pack b, Pack& even, Pack& odd) noexcept {
        even = Pack(shuffle<unzip_lanes(0)>(a.v, b.v));
        odd = Pack(shuffle<unzip_lanes(1)>(a.v, b.v));
        if constexpr (kSpan < W) {
            even = Pack(swap_mid_pairs(even.v));
            odd = Pack(swap_mid_pairs(odd.v));
        }
    }
    /// The inverse of unzip.
    static MF_ALWAYS_INLINE void zip(Pack even, Pack odd, Pack& lo, Pack& hi) noexcept {
        if constexpr (kSpan < W) {
            even = Pack(swap_mid_pairs(even.v));
            odd = Pack(swap_mid_pairs(odd.v));
        }
        lo = Pack(shuffle<zip_lanes(0)>(even.v, odd.v));
        hi = Pack(shuffle<zip_lanes(1)>(even.v, odd.v));
    }

    /// Lanes one unzip / zip shuffle spans.
    static constexpr int kSpan =
        (sizeof(V) == 32 ? detail::kYmmShuffleBytes : static_cast<int>(sizeof(V))) /
        static_cast<int>(sizeof(T));

    // Shuffle indices into a:b (b's lanes are W..2W-1), per span of kSpan
    // lanes: unzip takes the even (parity 0) or odd (1) lanes of a's span,
    // then of b's; zip interleaves the low (half 0) or high (1) halves of
    // the two spans. With kSpan = W these are the whole-register unzip and
    // zip; with kSpan = W / 2 they are shufps / unpck per 16-byte half, and
    // swap_mid_pairs puts the 64-bit pairs in place.
    static constexpr std::array<int, W> unzip_lanes(int parity) {
        std::array<int, W> r{};
        for (int i = 0; i < W; ++i) {
            const int s = i % kSpan, h = kSpan / 2;
            r[i] = (s < h ? 0 : W) + (i - s) + 2 * (s % h) + parity;
        }
        return r;
    }
    static constexpr std::array<int, W> zip_lanes(int half) {
        std::array<int, W> r{};
        for (int i = 0; i < W; ++i) {
            const int s = i % kSpan;
            r[i] = (s % 2) * W + (i - s) + half * (kSpan / 2) + s / 2;
        }
        return r;
    }
    /// The 64-bit pairs of a 32-byte x in the order 0 2 1 3 (vpermpd 0xD8).
    [[nodiscard]] static MF_ALWAYS_INLINE V swap_mid_pairs(V x) noexcept {
        typedef double D __attribute__((vector_size(32)));
        const D d = reinterpret_cast<D>(x);
        return reinterpret_cast<V>(__builtin_shufflevector(d, d, 0, 2, 1, 3));
    }
    template <auto I, std::size_t... J>
    [[nodiscard]] static MF_ALWAYS_INLINE V shuffle(V a, V b,
                                                   std::index_sequence<J...>) noexcept {
        return __builtin_shufflevector(a, b, I[J]...);
    }
    template <auto I>
    [[nodiscard]] static MF_ALWAYS_INLINE V shuffle(V a, V b) noexcept {
        return shuffle<I>(a, b, std::make_index_sequence<W>{});
    }

    template <std::size_t... J>
    [[nodiscard]] static MF_ALWAYS_INLINE Pack splat(T x, std::index_sequence<J...>) noexcept {
        return Pack(V{(static_cast<void>(J), x)...});
    }
    /// The pack of the scalars p[j * S], j < W, built in register.
    template <int S, std::size_t... J>
    [[nodiscard]] static MF_ALWAYS_INLINE Pack strided(const T* p,
                                                       std::index_sequence<J...>) noexcept {
        return Pack(V{p[J * S]...});
    }
    template <std::size_t... J>
    [[nodiscard]] MF_ALWAYS_INLINE auto halves(std::index_sequence<J...>) const noexcept {
        using H = Pack<T, W / 2>;
        if constexpr (detail::native_pack<T, W / 2>) {
            return std::array{H(__builtin_shufflevector(v, v, J...)),
                              H(__builtin_shufflevector(v, v, (J + W / 2)...))};
        } else {
            return std::array{H::setr(v[J]...), H::setr(v[J + W / 2]...)};
        }
    }

    /// Chunks c[i] = scalars [i * W, (i + 1) * W) of N records -> N limb
    /// packs, for N = 1, 2, 4.
    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<Pack, N> unzip_chunks(
        const std::array<Pack, N>& c) noexcept {
        if constexpr (N == 1) {
            return c;
        } else if constexpr (N == 2) {
            std::array<Pack, N> r;
            unzip(c[0], c[1], r[0], r[1]);
            return r;
        } else {
            static_assert(N == 4);
            std::array<Pack, N> r;
            Pack e0, o0, e1, o1;
            unzip(c[0], c[1], e0, o0);
            unzip(c[2], c[3], e1, o1);
            unzip(e0, e1, r[0], r[2]);
            unzip(o0, o1, r[1], r[3]);
            return r;
        }
    }
    /// The inverse of unzip_chunks.
    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<Pack, N> zip_chunks(
        const std::array<Pack, N>& v) noexcept {
        if constexpr (N == 1) {
            return v;
        } else if constexpr (N == 2) {
            std::array<Pack, N> c;
            zip(v[0], v[1], c[0], c[1]);
            return c;
        } else {
            static_assert(N == 4);
            std::array<Pack, N> c;
            Pack e0, e1, o0, o1;
            zip(v[0], v[2], e0, e1);
            zip(v[1], v[3], o0, o1);
            zip(e0, o0, c[0], c[1]);
            zip(e1, o1, c[2], c[3]);
            return c;
        }
    }
    /// Scalars of chunk i among the first `count` records of N.
    template <int N>
    [[nodiscard]] static constexpr int chunk_count(int i, int count) noexcept {
        const int c = N * count - i * W;
        return c < 0 ? 0 : c > W ? W : c;
    }
};

#endif  // MF_SIMD_HAVE_SSE2

#if MF_SIMD_HAVE_NEON

namespace detail {

/// Lane-by-lane partial moves (see the primary template's load_n/store_n).
template <typename P, typename T>
struct LaneCopyPartials {
    [[nodiscard]] static MF_ALWAYS_INLINE P load_n(const T* p, int count) noexcept {
        T buf[P::width] = {};
        for (int j = 0; j < count; ++j) buf[j] = p[j];
        return P::load(buf);
    }
    MF_ALWAYS_INLINE void store_n(T* p, int count) const noexcept {
        T buf[P::width];
        static_cast<const P&>(*this).store(buf);
        for (int j = 0; j < count; ++j) p[j] = buf[j];
    }
};

/// NEON's load_interleaved / store_interleaved (full and partial), setr and
/// halves: the portable forms through a lane buffer, which pay the store-forwarding
/// stall the x86 packs avoid. vld2q/vld3q/vld4q, vcombine and vget_low/high
/// would do them in register; they stay unwritten until they can be tested
/// on an Arm target.
template <typename P, typename T>
struct BufferTransposes : LaneCopyPartials<P, T> {
    template <std::same_as<T>... L>
        requires(sizeof...(L) == P::width)
    [[nodiscard]] static MF_ALWAYS_INLINE P setr(L... x) noexcept {
        const T buf[] = {x...};
        return P::load(buf);
    }
    [[nodiscard]] MF_ALWAYS_INLINE std::array<Pack<T, P::width / 2>, 2> halves()
        const noexcept {
        T buf[P::width];
        static_cast<const P&>(*this).store(buf);
        return {Pack<T, P::width / 2>::load(buf), Pack<T, P::width / 2>::load(buf + P::width / 2)};
    }
    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<P, N> load_interleaved(
        const T* p) noexcept {
        std::array<P, N> r;
        T buf[P::width];
        for (int k = 0; k < N; ++k) {
            for (int j = 0; j < P::width; ++j) buf[j] = p[j * N + k];
            r[k] = P::load(buf);
        }
        return r;
    }
    template <int N>
    static MF_ALWAYS_INLINE void store_interleaved(const std::array<P, N>& v,
                                                   T* p) noexcept {
        T buf[P::width];
        for (int k = 0; k < N; ++k) {
            v[k].store(buf);
            for (int j = 0; j < P::width; ++j) p[j * N + k] = buf[j];
        }
    }
    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<P, N> load_interleaved_n(
        const T* p, int count) noexcept {
        std::array<P, N> r;
        T buf[P::width];
        for (int k = 0; k < N; ++k) {
            for (int j = 0; j < P::width; ++j) buf[j] = j < count ? p[j * N + k] : T(0);
            r[k] = P::load(buf);
        }
        return r;
    }
    template <int N>
    static MF_ALWAYS_INLINE void store_interleaved_n(const std::array<P, N>& v, T* p,
                                                     int count) noexcept {
        T buf[P::width];
        for (int k = 0; k < N; ++k) {
            v[k].store(buf);
            for (int j = 0; j < count; ++j) p[j * N + k] = buf[j];
        }
    }
};

}  // namespace detail

template <>
struct Pack<float, 4> : detail::BufferTransposes<Pack<float, 4>, float> {
    using value_type = float;
    static constexpr int width = 4;
    float32x4_t v;
    MF_ALWAYS_INLINE Pack() noexcept : v(vdupq_n_f32(0.0f)) {}
    MF_ALWAYS_INLINE explicit Pack(float32x4_t x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(float x) noexcept {
        return Pack(vdupq_n_f32(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const float* p) noexcept {
        return Pack(vld1q_f32(p));
    }
    MF_ALWAYS_INLINE void store(float* p) const noexcept { vst1q_f32(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE float operator[](int i) const noexcept {
        float t[4];
        vst1q_f32(t, v);
        return t[i];
    }
    using Mask = uint32x4_t;
    [[nodiscard]] friend MF_ALWAYS_INLINE Mask cmp_lt(Pack a, Pack b) noexcept {
        return vcltq_f32(a.v, b.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack select(Mask m, Pack x, Pack y) noexcept {
        return Pack(vbslq_f32(m, x.v, y.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(vaddq_f32(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(vsubq_f32(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(vmulq_f32(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(vnegq_f32(a.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        return Pack(vfmaq_f32(c.v, a.v, b.v));  // c + a*b, fused
    }
};

template <>
struct Pack<double, 2> : detail::BufferTransposes<Pack<double, 2>, double> {
    using value_type = double;
    static constexpr int width = 2;
    float64x2_t v;
    MF_ALWAYS_INLINE Pack() noexcept : v(vdupq_n_f64(0.0)) {}
    MF_ALWAYS_INLINE explicit Pack(float64x2_t x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(double x) noexcept {
        return Pack(vdupq_n_f64(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const double* p) noexcept {
        return Pack(vld1q_f64(p));
    }
    MF_ALWAYS_INLINE void store(double* p) const noexcept { vst1q_f64(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE double operator[](int i) const noexcept {
        double t[2];
        vst1q_f64(t, v);
        return t[i];
    }
    using Mask = uint64x2_t;
    [[nodiscard]] friend MF_ALWAYS_INLINE Mask cmp_lt(Pack a, Pack b) noexcept {
        return vcltq_f64(a.v, b.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack select(Mask m, Pack x, Pack y) noexcept {
        return Pack(vbslq_f64(m, x.v, y.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(vaddq_f64(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(vsubq_f64(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(vmulq_f64(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(vnegq_f64(a.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        return Pack(vfmaq_f64(c.v, a.v, b.v));  // c + a*b, fused
    }
};

#endif  // MF_SIMD_HAVE_NEON

}  // namespace mf::simd

namespace mf {

/// Packs are valid FPAN wire values: every gate in eft.hpp applies the
/// identical IEEE operation to each lane independently.
template <std::floating_point T, int W>
inline constexpr bool is_fpan_value_v<simd::Pack<T, W>> = true;

}  // namespace mf
