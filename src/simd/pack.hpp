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
// MF_SIMD_FORCE_SCALAR is defined). Specializations map the natural widths
// onto SSE2, AVX/AVX2, AVX-512 and NEON intrinsics when the translation unit
// is compiled for those ISAs. TwoProd requires a *fused* multiply-add: every
// specialization uses the hardware FMA instruction when the ISA provides one
// and falls back to the (correct, slower) per-lane std::fma otherwise.
//
// Every pack also converts W interleaved records of N scalars -- W elements
// of an AoS MultiFloat array -- into N packs and back: load_interleaved and
// store_interleaved. The x86 packs do it with register shuffles.
//
// Partial packs end a kernel's sweep: load_n / store_n move the first
// `count` < W lanes of one pack and load_interleaved_n /
// store_interleaved_n the first `count` records, touching nothing past
// them. AVX2 and AVX-512 use masked moves; SSE2, NEON and the primary
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

// Which intrinsic specializations exist in this translation unit. These feed
// the backend_compiled() predicate in backend.hpp; runtime dispatch never
// routes to a backend whose specializations were not compiled in.
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

/// Portable scalar-loop pack: correct for any width, on any target. The
/// small fixed-trip loops are unrolled by pragma, so the lanes stay scalar
/// registers: left to the loop vectorizer, a few of them became vector ops
/// fed and drained through the stack, and a Complex<double, 3> multiply over
/// Pack<double, 4> ran 5x slower. With vector ISAs disabled this is also the
/// reference implementation the intrinsic specializations must agree with
/// bit-for-bit (tests/simd_pack_test.cpp).
template <std::floating_point T, int W>
    requires(W >= 1)
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
    /// the loop here is the reference every specialization must match.
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
// Record transposes for the x86 packs: the load_interleaved /
// store_interleaved primitive every specialization below inherits. Nothing
// here goes through memory. A lane buffer written W scalars at a time and
// then reloaded as one pack stalls on store forwarding, which made the AoS
// kernels 7-8x slower than planar (EXPERIMENTS.md, "AoS kernels at planar
// speed"). Each x86 pack instead supplies two in-register shuffles,
//
//   unzip(a, b, even, odd)  split the 2W scalars a:b into their even- and
//                           odd-indexed halves;
//   zip(even, odd, lo, hi)  the inverse;
//
// and a lane-list constructor, setr. N = 2 is one unzip. N = 4 is two rounds
// of it: the first separates limbs {0, 2} from {1, 3}, the second splits each
// pair. Any other N builds each limb with setr from the scalars p[j * N + k]
// (load_strided) and stores it lane by lane; that direction is cheap,
// because scalar reads of one wide store do forward.
//
// The partial forms move the N chunks of W scalars with load_n / store_n
// instead of whole-pack moves, so they read and write nothing past the last
// record and share the shuffles above. AVX2 and AVX-512 packs override
// load_n / store_n with masked moves; the defaults here copy lane by lane
// (SSE2 has no masked load). N = 3 goes through a zero-padded lane buffer.
// ---------------------------------------------------------------------------

namespace detail {

/// Lane-by-lane partial moves (see the primary template's load_n/store_n)
/// for the specializations without masked moves: SSE2 and NEON.
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

/// Base of every x86 specialization P (scalar type T): its load_interleaved
/// and store_interleaved, built on P's shuffles as described above.
template <typename P, typename T>
struct ShuffleTransposes : LaneCopyPartials<P, T> {
    /// The pack of the scalars p[j * S], j < W, built in register.
    template <int S>
    [[nodiscard]] static MF_ALWAYS_INLINE P load_strided(const T* p) noexcept {
        return strided<S>(p, std::make_index_sequence<P::width>{});
    }
    template <int S, std::size_t... J>
    [[nodiscard]] static MF_ALWAYS_INLINE P strided(const T* p,
                                                    std::index_sequence<J...>) noexcept {
        return P::setr(p[J * S]...);
    }

    /// Chunks c[i] = scalars [i * W, (i + 1) * W) of N records -> N limb
    /// packs, for N = 1, 2, 4.
    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<P, N> unzip_chunks(
        const std::array<P, N>& c) noexcept {
        if constexpr (N == 1) {
            return c;
        } else if constexpr (N == 2) {
            std::array<P, N> r;
            P::unzip(c[0], c[1], r[0], r[1]);
            return r;
        } else {
            static_assert(N == 4);
            std::array<P, N> r;
            P e0, o0, e1, o1;
            P::unzip(c[0], c[1], e0, o0);
            P::unzip(c[2], c[3], e1, o1);
            P::unzip(e0, e1, r[0], r[2]);
            P::unzip(o0, o1, r[1], r[3]);
            return r;
        }
    }
    /// The inverse of unzip_chunks.
    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<P, N> zip_chunks(
        const std::array<P, N>& v) noexcept {
        if constexpr (N == 1) {
            return v;
        } else if constexpr (N == 2) {
            std::array<P, N> c;
            P::zip(v[0], v[1], c[0], c[1]);
            return c;
        } else {
            static_assert(N == 4);
            std::array<P, N> c;
            P e0, e1, o0, o1;
            P::zip(v[0], v[2], e0, e1);
            P::zip(v[1], v[3], o0, o1);
            P::zip(e0, o0, c[0], c[1]);
            P::zip(e1, o1, c[2], c[3]);
            return c;
        }
    }
    /// Scalars of chunk i among the first `count` records of N.
    template <int N>
    [[nodiscard]] static constexpr int chunk_count(int i, int count) noexcept {
        const int c = N * count - i * P::width;
        return c < 0 ? 0 : c > P::width ? P::width : c;
    }

    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<P, N> load_interleaved(
        const T* p) noexcept {
        if constexpr (N == 1 || N == 2 || N == 4) {
            std::array<P, N> c;
            for (int i = 0; i < N; ++i) c[i] = P::load(p + i * P::width);
            return unzip_chunks<N>(c);
        } else {
            std::array<P, N> r;
            for (int k = 0; k < N; ++k) r[k] = P::template load_strided<N>(p + k);
            return r;
        }
    }

    template <int N>
    static MF_ALWAYS_INLINE void store_interleaved(const std::array<P, N>& v,
                                                   T* p) noexcept {
        if constexpr (N == 1 || N == 2 || N == 4) {
            const std::array<P, N> c = zip_chunks<N>(v);
            for (int i = 0; i < N; ++i) c[i].store(p + i * P::width);
        } else {
            for (int k = 0; k < N; ++k) {
                for (int j = 0; j < P::width; ++j) p[j * N + k] = v[k][j];
            }
        }
    }

    template <int N>
    [[nodiscard]] static MF_ALWAYS_INLINE std::array<P, N> load_interleaved_n(
        const T* p, int count) noexcept {
        if constexpr (N == 1 || N == 2 || N == 4) {
            std::array<P, N> c;
            for (int i = 0; i < N; ++i) {
                c[i] = P::load_n(p + i * P::width, chunk_count<N>(i, count));
            }
            return unzip_chunks<N>(c);
        } else {
            T buf[N * P::width] = {};
            for (int i = 0; i < N * count; ++i) buf[i] = p[i];
            return load_interleaved<N>(buf);
        }
    }

    template <int N>
    static MF_ALWAYS_INLINE void store_interleaved_n(const std::array<P, N>& v, T* p,
                                                     int count) noexcept {
        if constexpr (N == 1 || N == 2 || N == 4) {
            const std::array<P, N> c = zip_chunks<N>(v);
            for (int i = 0; i < N; ++i) {
                c[i].store_n(p + i * P::width, chunk_count<N>(i, count));
            }
        } else {
            for (int k = 0; k < N; ++k) {
                for (int j = 0; j < count; ++j) p[j * N + k] = v[k][j];
            }
        }
    }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// x86 specializations. Each one is the same five operations + load/store on
// the ISA's natural register, plus the unzip / zip / setr that the record
// transposes above are built on, and halves(), the split into two packs of
// half the width (mf/complex.hpp builds and splits its lanes with these two).
// cmp_lt is the ordered (_CMP_LT_OQ) compare into the ISA's mask -- a k
// register on AVX-512, an all-ones lane vector below it -- and select the
// matching blend. AVX2 and AVX-512 add masked load_n / store_n.
// fma() uses the fused instruction when compiled with FMA support and
// per-lane std::fma otherwise (SSE2-era parts).
// Unary minus is the vector-extension negation, not an xor intrinsic: GCC
// folds it into a consuming FMA, so two_prod's fma(a, b, -p) becomes one
// vfmsub. The sign flip is exact, so no non-NaN result changes; the NaN
// of an invalid a*b keeps its sign through vfmsub instead of flipping.
// ---------------------------------------------------------------------------

#if MF_SIMD_HAVE_SSE2

template <>
struct Pack<float, 4> : detail::ShuffleTransposes<Pack<float, 4>, float> {
    using value_type = float;
    static constexpr int width = 4;
    __m128 v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm_setzero_ps()) {}
    MF_ALWAYS_INLINE explicit Pack(__m128 x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(float x) noexcept {
        return Pack(_mm_set1_ps(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const float* p) noexcept {
        return Pack(_mm_loadu_ps(p));
    }
    MF_ALWAYS_INLINE void store(float* p) const noexcept { _mm_storeu_ps(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE float operator[](int i) const noexcept {
        float t[4];
        _mm_storeu_ps(t, v);
        return t[i];
    }
    static MF_ALWAYS_INLINE void unzip(Pack a, Pack b, Pack& even, Pack& odd) noexcept {
        even = Pack(_mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(2, 0, 2, 0)));
        odd = Pack(_mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(3, 1, 3, 1)));
    }
    static MF_ALWAYS_INLINE void zip(Pack even, Pack odd, Pack& lo, Pack& hi) noexcept {
        lo = Pack(_mm_unpacklo_ps(even.v, odd.v));
        hi = Pack(_mm_unpackhi_ps(even.v, odd.v));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack setr(float a, float b,
                                                    float c, float d) noexcept {
        return Pack(_mm_setr_ps(a, b, c, d));
    }
    /// Lanes {0, 1} and {2, 3} as two portable packs.
    [[nodiscard]] MF_ALWAYS_INLINE std::array<Pack<float, 2>, 2> halves() const noexcept {
        const __m128 hi = _mm_movehl_ps(v, v);
        return {Pack<float, 2>::setr(_mm_cvtss_f32(v),
                                     _mm_cvtss_f32(_mm_shuffle_ps(v, v, 1))),
                Pack<float, 2>::setr(_mm_cvtss_f32(hi),
                                     _mm_cvtss_f32(_mm_shuffle_ps(hi, hi, 1)))};
    }
    using Mask = __m128;
    [[nodiscard]] friend MF_ALWAYS_INLINE Mask cmp_lt(Pack a, Pack b) noexcept {
        return _mm_cmplt_ps(a.v, b.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack select(Mask m, Pack x, Pack y) noexcept {
        return Pack(_mm_or_ps(_mm_and_ps(m, x.v), _mm_andnot_ps(m, y.v)));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm_add_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm_sub_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm_mul_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(-a.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
#if defined(__FMA__)
        return Pack(_mm_fmadd_ps(a.v, b.v, c.v));
#else
        float x[4], y[4], z[4];
        a.store(x);
        b.store(y);
        c.store(z);
        for (int i = 0; i < 4; ++i) x[i] = std::fma(x[i], y[i], z[i]);
        return load(x);
#endif
    }
};

template <>
struct Pack<double, 2> : detail::ShuffleTransposes<Pack<double, 2>, double> {
    using value_type = double;
    static constexpr int width = 2;
    __m128d v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm_setzero_pd()) {}
    MF_ALWAYS_INLINE explicit Pack(__m128d x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(double x) noexcept {
        return Pack(_mm_set1_pd(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const double* p) noexcept {
        return Pack(_mm_loadu_pd(p));
    }
    MF_ALWAYS_INLINE void store(double* p) const noexcept { _mm_storeu_pd(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE double operator[](int i) const noexcept {
        double t[2];
        _mm_storeu_pd(t, v);
        return t[i];
    }
    static MF_ALWAYS_INLINE void unzip(Pack a, Pack b, Pack& even, Pack& odd) noexcept {
        even = Pack(_mm_unpacklo_pd(a.v, b.v));
        odd = Pack(_mm_unpackhi_pd(a.v, b.v));
    }
    static MF_ALWAYS_INLINE void zip(Pack even, Pack odd, Pack& lo, Pack& hi) noexcept {
        unzip(even, odd, lo, hi);  // a 2 x 2 transpose is its own inverse
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack setr(double a, double b) noexcept {
        return Pack(_mm_setr_pd(a, b));
    }
    /// Lane 0 and lane 1 as two portable one-lane packs.
    [[nodiscard]] MF_ALWAYS_INLINE std::array<Pack<double, 1>, 2> halves() const noexcept {
        return {Pack<double, 1>::setr(_mm_cvtsd_f64(v)),
                Pack<double, 1>::setr(_mm_cvtsd_f64(_mm_unpackhi_pd(v, v)))};
    }
    using Mask = __m128d;
    [[nodiscard]] friend MF_ALWAYS_INLINE Mask cmp_lt(Pack a, Pack b) noexcept {
        return _mm_cmplt_pd(a.v, b.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack select(Mask m, Pack x, Pack y) noexcept {
        return Pack(_mm_or_pd(_mm_and_pd(m, x.v), _mm_andnot_pd(m, y.v)));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm_add_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm_sub_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm_mul_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(-a.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
#if defined(__FMA__)
        return Pack(_mm_fmadd_pd(a.v, b.v, c.v));
#else
        double x[2], y[2], z[2];
        a.store(x);
        b.store(y);
        c.store(z);
        for (int i = 0; i < 2; ++i) x[i] = std::fma(x[i], y[i], z[i]);
        return load(x);
#endif
    }
};

#endif  // MF_SIMD_HAVE_SSE2

#if MF_SIMD_HAVE_AVX2

template <>
struct Pack<float, 8> : detail::ShuffleTransposes<Pack<float, 8>, float> {
    using value_type = float;
    static constexpr int width = 8;
    __m256 v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm256_setzero_ps()) {}
    MF_ALWAYS_INLINE explicit Pack(__m256 x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(float x) noexcept {
        return Pack(_mm256_set1_ps(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const float* p) noexcept {
        return Pack(_mm256_loadu_ps(p));
    }
    MF_ALWAYS_INLINE void store(float* p) const noexcept { _mm256_storeu_ps(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE float operator[](int i) const noexcept {
        float t[8];
        _mm256_storeu_ps(t, v);
        return t[i];
    }
    // The in-lane shuffles leave 64-bit pairs in 0 2 1 3 order across the
    // two 128-bit halves; permute4x64 (0xD8) swaps the middle two.
    [[nodiscard]] static MF_ALWAYS_INLINE __m256 swap_mid_pairs(__m256 x) noexcept {
        return _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(x), 0xD8));
    }
    static MF_ALWAYS_INLINE void unzip(Pack a, Pack b, Pack& even, Pack& odd) noexcept {
        even = Pack(swap_mid_pairs(_mm256_shuffle_ps(a.v, b.v, _MM_SHUFFLE(2, 0, 2, 0))));
        odd = Pack(swap_mid_pairs(_mm256_shuffle_ps(a.v, b.v, _MM_SHUFFLE(3, 1, 3, 1))));
    }
    static MF_ALWAYS_INLINE void zip(Pack even, Pack odd, Pack& lo, Pack& hi) noexcept {
        const __m256 e = swap_mid_pairs(even.v);
        const __m256 o = swap_mid_pairs(odd.v);
        lo = Pack(_mm256_unpacklo_ps(e, o));
        hi = Pack(_mm256_unpackhi_ps(e, o));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack setr(float a, float b, float c, float d,
                                                    float e, float f, float g,
                                                    float h) noexcept {
        return Pack(_mm256_setr_ps(a, b, c, d, e, f, g, h));
    }
    [[nodiscard]] MF_ALWAYS_INLINE std::array<Pack<float, 4>, 2> halves() const noexcept {
        return {Pack<float, 4>(_mm256_castps256_ps128(v)),
                Pack<float, 4>(_mm256_extractf128_ps(v, 1))};
    }
    /// Masked partial moves: lanes [0, count) of the vector are live.
    [[nodiscard]] static MF_ALWAYS_INLINE __m256i live(int count) noexcept {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(count),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load_n(const float* p, int count) noexcept {
        return Pack(_mm256_maskload_ps(p, live(count)));
    }
    MF_ALWAYS_INLINE void store_n(float* p, int count) const noexcept {
        _mm256_maskstore_ps(p, live(count), v);
    }
    using Mask = __m256;
    [[nodiscard]] friend MF_ALWAYS_INLINE Mask cmp_lt(Pack a, Pack b) noexcept {
        return _mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack select(Mask m, Pack x, Pack y) noexcept {
        return Pack(_mm256_blendv_ps(y.v, x.v, m));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm256_add_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm256_sub_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm256_mul_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(-a.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
#if defined(__FMA__)
        return Pack(_mm256_fmadd_ps(a.v, b.v, c.v));
#else
        float x[8], y[8], z[8];
        a.store(x);
        b.store(y);
        c.store(z);
        for (int i = 0; i < 8; ++i) x[i] = std::fma(x[i], y[i], z[i]);
        return load(x);
#endif
    }
};

template <>
struct Pack<double, 4> : detail::ShuffleTransposes<Pack<double, 4>, double> {
    using value_type = double;
    static constexpr int width = 4;
    __m256d v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm256_setzero_pd()) {}
    MF_ALWAYS_INLINE explicit Pack(__m256d x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(double x) noexcept {
        return Pack(_mm256_set1_pd(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const double* p) noexcept {
        return Pack(_mm256_loadu_pd(p));
    }
    MF_ALWAYS_INLINE void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE double operator[](int i) const noexcept {
        double t[4];
        _mm256_storeu_pd(t, v);
        return t[i];
    }
    // The in-lane unpacks leave lanes in 0 2 1 3 order across the two
    // 128-bit halves; permute4x64 (0xD8) swaps the middle two.
    static MF_ALWAYS_INLINE void unzip(Pack a, Pack b, Pack& even, Pack& odd) noexcept {
        even = Pack(_mm256_permute4x64_pd(_mm256_unpacklo_pd(a.v, b.v), 0xD8));
        odd = Pack(_mm256_permute4x64_pd(_mm256_unpackhi_pd(a.v, b.v), 0xD8));
    }
    static MF_ALWAYS_INLINE void zip(Pack even, Pack odd, Pack& lo, Pack& hi) noexcept {
        const __m256d e = _mm256_permute4x64_pd(even.v, 0xD8);
        const __m256d o = _mm256_permute4x64_pd(odd.v, 0xD8);
        lo = Pack(_mm256_unpacklo_pd(e, o));
        hi = Pack(_mm256_unpackhi_pd(e, o));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack setr(double a, double b,
                                                    double c, double d) noexcept {
        return Pack(_mm256_setr_pd(a, b, c, d));
    }
    [[nodiscard]] MF_ALWAYS_INLINE std::array<Pack<double, 2>, 2> halves() const noexcept {
        return {Pack<double, 2>(_mm256_castpd256_pd128(v)),
                Pack<double, 2>(_mm256_extractf128_pd(v, 1))};
    }
    /// Masked partial moves: lanes [0, count) of the vector are live.
    [[nodiscard]] static MF_ALWAYS_INLINE __m256i live(int count) noexcept {
        return _mm256_cmpgt_epi64(_mm256_set1_epi64x(count), _mm256_setr_epi64x(0, 1, 2, 3));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load_n(const double* p, int count) noexcept {
        return Pack(_mm256_maskload_pd(p, live(count)));
    }
    MF_ALWAYS_INLINE void store_n(double* p, int count) const noexcept {
        _mm256_maskstore_pd(p, live(count), v);
    }
    using Mask = __m256d;
    [[nodiscard]] friend MF_ALWAYS_INLINE Mask cmp_lt(Pack a, Pack b) noexcept {
        return _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack select(Mask m, Pack x, Pack y) noexcept {
        return Pack(_mm256_blendv_pd(y.v, x.v, m));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm256_add_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm256_sub_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm256_mul_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(-a.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
#if defined(__FMA__)
        return Pack(_mm256_fmadd_pd(a.v, b.v, c.v));
#else
        double x[4], y[4], z[4];
        a.store(x);
        b.store(y);
        c.store(z);
        for (int i = 0; i < 4; ++i) x[i] = std::fma(x[i], y[i], z[i]);
        return load(x);
#endif
    }
};

#endif  // MF_SIMD_HAVE_AVX2

#if MF_SIMD_HAVE_AVX512

template <>
struct Pack<float, 16> : detail::ShuffleTransposes<Pack<float, 16>, float> {
    using value_type = float;
    static constexpr int width = 16;
    __m512 v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm512_setzero_ps()) {}
    MF_ALWAYS_INLINE explicit Pack(__m512 x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(float x) noexcept {
        return Pack(_mm512_set1_ps(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const float* p) noexcept {
        return Pack(_mm512_loadu_ps(p));
    }
    MF_ALWAYS_INLINE void store(float* p) const noexcept { _mm512_storeu_ps(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE float operator[](int i) const noexcept {
        float t[16];
        _mm512_storeu_ps(t, v);
        return t[i];
    }
    static MF_ALWAYS_INLINE void unzip(Pack a, Pack b, Pack& even, Pack& odd) noexcept {
        const __m512i ie = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22,
                                             24, 26, 28, 30);
        even = Pack(_mm512_permutex2var_ps(a.v, ie, b.v));
        odd = Pack(_mm512_permutex2var_ps(a.v, _mm512_add_epi32(ie, _mm512_set1_epi32(1)),
                                          b.v));
    }
    static MF_ALWAYS_INLINE void zip(Pack even, Pack odd, Pack& lo, Pack& hi) noexcept {
        const __m512i il = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6,
                                             22, 7, 23);
        lo = Pack(_mm512_permutex2var_ps(even.v, il, odd.v));
        hi = Pack(_mm512_permutex2var_ps(even.v, _mm512_add_epi32(il, _mm512_set1_epi32(8)),
                                         odd.v));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack setr(float a, float b, float c, float d,
                                                    float e, float f, float g, float h,
                                                    float i, float j, float k, float l,
                                                    float m, float n, float o,
                                                    float p) noexcept {
        return Pack(_mm512_setr_ps(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p));
    }
    // The 512-bit cast and extract intrinsics trip GCC 12's
    // -Wmaybe-uninitialized (their masked forms start from an undefined
    // vector); the generic shuffle is the same vextractf32x8.
    [[nodiscard]] MF_ALWAYS_INLINE std::array<Pack<float, 8>, 2> halves() const noexcept {
        return {Pack<float, 8>(__builtin_shufflevector(v, v, 0, 1, 2, 3, 4, 5, 6, 7)),
                Pack<float, 8>(__builtin_shufflevector(v, v, 8, 9, 10, 11, 12, 13, 14, 15))};
    }
    /// Masked partial moves: the low `count` bits of the mask are live.
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load_n(const float* p, int count) noexcept {
        return Pack(_mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << count) - 1u), p));
    }
    MF_ALWAYS_INLINE void store_n(float* p, int count) const noexcept {
        _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << count) - 1u), v);
    }
    using Mask = __mmask16;
    [[nodiscard]] friend MF_ALWAYS_INLINE Mask cmp_lt(Pack a, Pack b) noexcept {
        return _mm512_cmp_ps_mask(a.v, b.v, _CMP_LT_OQ);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack select(Mask m, Pack x, Pack y) noexcept {
        return Pack(_mm512_mask_blend_ps(m, y.v, x.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm512_add_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm512_sub_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm512_mul_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(-a.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        return Pack(_mm512_fmadd_ps(a.v, b.v, c.v));
    }
};

template <>
struct Pack<double, 8> : detail::ShuffleTransposes<Pack<double, 8>, double> {
    using value_type = double;
    static constexpr int width = 8;
    __m512d v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm512_setzero_pd()) {}
    MF_ALWAYS_INLINE explicit Pack(__m512d x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(double x) noexcept {
        return Pack(_mm512_set1_pd(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const double* p) noexcept {
        return Pack(_mm512_loadu_pd(p));
    }
    MF_ALWAYS_INLINE void store(double* p) const noexcept { _mm512_storeu_pd(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE double operator[](int i) const noexcept {
        double t[8];
        _mm512_storeu_pd(t, v);
        return t[i];
    }
    static MF_ALWAYS_INLINE void unzip(Pack a, Pack b, Pack& even, Pack& odd) noexcept {
        even = Pack(_mm512_permutex2var_pd(a.v, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
                                           b.v));
        odd = Pack(_mm512_permutex2var_pd(a.v, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15),
                                          b.v));
    }
    static MF_ALWAYS_INLINE void zip(Pack even, Pack odd, Pack& lo, Pack& hi) noexcept {
        lo = Pack(_mm512_permutex2var_pd(even.v, _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11),
                                         odd.v));
        hi = Pack(_mm512_permutex2var_pd(even.v, _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15),
                                         odd.v));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack setr(double a, double b, double c, double d,
                                                    double e, double f, double g,
                                                    double h) noexcept {
        return Pack(_mm512_setr_pd(a, b, c, d, e, f, g, h));
    }
    // Shuffles, not _mm512_castpd512_pd256 / _mm512_extractf64x4_pd: see
    // Pack<float, 16>::halves.
    [[nodiscard]] MF_ALWAYS_INLINE std::array<Pack<double, 4>, 2> halves() const noexcept {
        return {Pack<double, 4>(__builtin_shufflevector(v, v, 0, 1, 2, 3)),
                Pack<double, 4>(__builtin_shufflevector(v, v, 4, 5, 6, 7))};
    }
    /// Masked partial moves: the low `count` bits of the mask are live.
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load_n(const double* p, int count) noexcept {
        return Pack(_mm512_maskz_loadu_pd(static_cast<__mmask8>((1u << count) - 1u), p));
    }
    MF_ALWAYS_INLINE void store_n(double* p, int count) const noexcept {
        _mm512_mask_storeu_pd(p, static_cast<__mmask8>((1u << count) - 1u), v);
    }
    using Mask = __mmask8;
    [[nodiscard]] friend MF_ALWAYS_INLINE Mask cmp_lt(Pack a, Pack b) noexcept {
        return _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack select(Mask m, Pack x, Pack y) noexcept {
        return Pack(_mm512_mask_blend_pd(m, y.v, x.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm512_add_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm512_sub_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm512_mul_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(-a.v);
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        return Pack(_mm512_fmadd_pd(a.v, b.v, c.v));
    }
};

#endif  // MF_SIMD_HAVE_AVX512

#if MF_SIMD_HAVE_NEON

namespace detail {

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
