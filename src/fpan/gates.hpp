#pragma once
// Every FPAN the library ships, written once, as constexpr gate tables.
// mf::add / mf::mul unroll a table with run<table>(w) for scalars and
// simd::Pack alike; make_add_network / make_mul_network (library.hpp) convert
// the same table into the runtime Network the checker verifies, so the
// verified network is the shipped one. sweep() is the one place the
// distill/renorm structure is written, apply() the one place gate semantics
// are (the interpreter calls it too).

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "../mf/eft.hpp"

namespace mf::fpan {

/// The three FPAN gates on a wire pair (a, b):
///   Add:         w[a] <- w[a] (+) w[b]; the rounding error is DISCARDED and
///                wire b goes dead.
///   TwoSum:      (w[a], w[b]) <- TwoSum(w[a], w[b])        (error-free)
///   FastTwoSum:  (w[a], w[b]) <- FastTwoSum(w[a], w[b])    (error-free,
///                requires exponent(w[a]) >= exponent(w[b]) or either zero)
enum class GateKind : std::uint8_t { Add, TwoSum, FastTwoSum };

struct Gate {
    GateKind kind;
    int a;  ///< first wire (receives the sum)
    int b;  ///< second wire (receives the error; dead after an Add gate)

    friend constexpr bool operator==(const Gate&, const Gate&) = default;
};

/// Apply one gate to its wire pair. After an Add, wire b is dead and keeps
/// a stale value (the runtime interpreter zeroes it).
template <GateKind K, FloatingPoint V>
MF_ALWAYS_INLINE constexpr void apply(V& a, V& b) noexcept {
    if constexpr (K == GateKind::Add) {
        a = a + b;
    } else if constexpr (K == GateKind::TwoSum) {
        const auto [s, e] = two_sum(a, b);
        a = s;
        b = e;
    } else {
        const auto [s, e] = fast_two_sum(a, b);
        a = s;
        b = e;
    }
}

/// Longest gate chain from any input to any output (the paper's "depth").
/// `d` must hold one zero per wire.
template <typename Gates, typename Depths>
constexpr int chain_depth(const Gates& gates, Depths& d) noexcept {
    int best = 0;
    for (const Gate& g : gates) {
        const int nd = (d[g.a] > d[g.b] ? d[g.a] : d[g.b]) + 1;
        d[g.a] = nd;
        d[g.b] = nd;
        best = nd > best ? nd : best;
    }
    return best;
}

/// A fixed FPAN over W wires: G gates in execution order and the O wires
/// holding the result, most significant first.
template <std::size_t W, std::size_t G, std::size_t O>
struct Table {
    static constexpr std::size_t num_wires = W;
    std::array<Gate, G> gates;
    std::array<int, O> outputs;

    [[nodiscard]] constexpr int size() const noexcept { return static_cast<int>(G); }
    [[nodiscard]] constexpr int depth() const noexcept {
        std::array<int, W> d{};
        return chain_depth(gates, d);
    }
    /// Native flops: TwoSum `two_sum_ops` (6 in Knuth's form, 5 as the
    /// ordered FastTwoSum of AVX-512DQ packs), FastTwoSum 3, Add 1 (eft.hpp).
    [[nodiscard]] constexpr int flops(int two_sum_ops = 6) const noexcept {
        int f = 0;
        for (const Gate& g : gates) {
            f += g.kind == GateKind::TwoSum ? two_sum_ops : g.kind == GateKind::Add ? 1 : 3;
        }
        return f;
    }
};

template <auto Table, FloatingPoint V, std::size_t... I>
MF_ALWAYS_INLINE constexpr void run_gates([[maybe_unused]] V (&w)[Table.num_wires],
                                           std::index_sequence<I...>) noexcept {
    (apply<Table.gates[I].kind>(w[Table.gates[I].a], w[Table.gates[I].b]), ...);
}

/// Run every gate of `Table` in place over the wires `w`. The gate loop is
/// unrolled at compile time, so a call inlines to the same straight-line,
/// branch-free code as writing the gates out by hand. The wires are a plain
/// array so that, once inlined, they become registers.
template <auto Table, FloatingPoint V>
MF_ALWAYS_INLINE constexpr void run(V (&w)[Table.num_wires]) noexcept {
    run_gates<Table>(w, std::make_index_sequence<Table.gates.size()>{});
}

/// The table on W wires that runs `head`, then the accumulation sweep over
/// the K wires `perm` lists in expected magnitude order, and outputs
/// perm[0..N-1]. The sweep is N bottom-up TwoSum passes (pass j leaves the
/// rounded sum of perm[j..K-1] on perm[j] and redistributes the rounding
/// errors below it), then RENORMS top-down FastTwoSum passes over the leading
/// min(N, K-1) + 1 wires, relying on the domination distillation established.
///
/// RENORMS = 1 is the verified default: with zero renorm passes the
/// exhaustive small-p checker finds rare 1-bit nonoverlap violations for
/// n = 3 (invisible to 400k randomized double-precision trials), while one
/// pass survives 37M+ exhaustive cases; see tests/fpan_verify_test.cpp.
/// add4, mul4 and the scalar tables ship a sweep; add3 and mul3 ship the
/// smaller tables greedy_trim cut from one, checked over the same windows.
template <std::size_t W, int N, int RENORMS, std::size_t H, std::size_t K>
constexpr auto sweep(const std::array<Gate, H>& head, const std::array<int, K>& perm) noexcept {
    constexpr int k = static_cast<int>(K);
    constexpr int m = N < k - 1 ? N : k - 1;
    // Pass j < m emits k-1-j TwoSums; each renorm pass emits m FastTwoSums.
    constexpr auto S = static_cast<std::size_t>(m * (2 * k - 1 - m) / 2 + RENORMS * m);
    Table<W, H + S, static_cast<std::size_t>(N)> t{};
    std::size_t at = 0;
    for (const Gate& g : head) t.gates[at++] = g;
    for (int pass = 0; pass < N; ++pass) {
        for (int i = k - 2; i >= pass; --i) {
            t.gates[at++] = {GateKind::TwoSum, perm[i], perm[i + 1]};
        }
    }
    for (int r = 0; r < RENORMS; ++r) {
        for (int i = 0; i < m; ++i) {
            t.gates[at++] = {GateKind::FastTwoSum, perm[i], perm[i + 1]};
        }
    }
    for (int i = 0; i < N; ++i) t.outputs[i] = perm[i];
    return t;
}

/// The wires 0..K-1 in order.
template <std::size_t K>
constexpr std::array<int, K> iota() noexcept {
    std::array<int, K> perm{};
    for (std::size_t i = 0; i < K; ++i) perm[i] = static_cast<int>(i);
    return perm;
}

/// A bare sweep over K wires already in magnitude order.
template <std::size_t K, int N, int RENORMS = 1>
constexpr auto sweep_table() noexcept {
    return sweep<K, N, RENORMS>(std::array<Gate, 0>{}, iota<K>());
}

// Addition (paper §4.1). Wires: the interleaved operands [x0, y0, x1, y1, ...].

/// Pairing layer TwoSum(x_i, y_i), then the sweep over the 2N partial terms
/// in expected magnitude order [s0, s1, e0, s2, e1, ..., s_{N-1}, e_{N-2},
/// e_{N-1}]: the shipped network for N >= 3, for N = 3, 4 a reconstruction
/// from the paper's description (DESIGN.md §2).
template <int N, int RENORMS = 1>
constexpr auto sweep_add_table() noexcept {
    std::array<Gate, static_cast<std::size_t>(N)> pairs{};
    std::array<int, static_cast<std::size_t>(2 * N)> perm{};
    for (int i = 0; i < N; ++i) pairs[i] = {GateKind::TwoSum, 2 * i, 2 * i + 1};
    perm[0] = 0;  // s0
    for (int i = 1; i < N; ++i) {
        perm[2 * i - 1] = 2 * i;  // s_i
        perm[2 * i] = 2 * i - 1;  // e_{i-1}
    }
    perm[2 * N - 1] = 2 * N - 1;  // e_{N-1}
    return sweep<2 * N, N, RENORMS>(pairs, perm);
}

template <int N>
constexpr auto make_add_table() noexcept {
    using enum GateKind;
    if constexpr (N == 2) {
        // Figure 2's size 6, realized as the AccurateDWPlusDW gate sequence:
        // depth 5, relative error <= 2^-(2p-1) |x + y|. The paper's depth-4
        // optimum is what the annealing search (search.hpp) finds; its
        // realizations spend more TwoSum (higher-flop) gates.
        return Table<4, 6, 2>{{{
                                  {TwoSum, 0, 1},      // (s0, e0) = TwoSum(x0, y0)
                                  {TwoSum, 2, 3},      // (s1, e1) = TwoSum(x1, y1)
                                  {Add, 2, 1},         // c = s1 + e0
                                  {FastTwoSum, 0, 2},  // (v0, v1) = FastTwoSum(s0, c)
                                  {Add, 3, 2},         // w = e1 + v1
                                  {FastTwoSum, 0, 3},  // (z0, z1) = FastTwoSum(v0, w)
                              }},
                              {0, 3}};
    } else if constexpr (N == 3) {
        // Figure 3's size 14 plus two gates: the sweep_add_table<3>() network
        // trimmed by fpan::greedy_trim with the p = 3 (2,2) exhaustive window
        // in the loop. Size 16, depth 8; the pairing layer comes first, so
        // add(x, y) and add(y, x) give the same bits. The 14-gate trim of a
        // narrower window fails the (2,2) one (tests/fpan_verify_test.cpp).
        return Table<6, 16, 3>{{{
                                   {TwoSum, 0, 1},      // (s0, e0) = TwoSum(x0, y0)
                                   {TwoSum, 2, 3},      // (s1, e1) = TwoSum(x1, y1)
                                   {TwoSum, 4, 5},      // (s2, e2) = TwoSum(x2, y2)
                                   {TwoSum, 4, 3},
                                   {FastTwoSum, 1, 4},
                                   {TwoSum, 2, 1},
                                   {FastTwoSum, 0, 2},
                                   {FastTwoSum, 3, 5},
                                   {FastTwoSum, 4, 3},
                                   {FastTwoSum, 1, 4},
                                   {FastTwoSum, 2, 1},
                                   {Add, 3, 5},
                                   {Add, 4, 3},
                                   {Add, 1, 4},
                                   {FastTwoSum, 0, 2},  // renormalize z0 | z1 | z2
                                   {FastTwoSum, 2, 1},
                               }},
                               {0, 2, 1}};
    } else {
        return sweep_add_table<N>();
    }
}

/// The shipped N-term addition network.
template <int N>
inline constexpr auto add_table = make_add_table<N>();

/// Expansion-plus-scalar addition. Wires [x0, ..., x_{N-1}, y]: a TwoSum
/// chain carries y down the limbs on wire N, then the sweep over all wires.
template <int N>
constexpr auto make_add_scalar_table() noexcept {
    std::array<Gate, static_cast<std::size_t>(N)> chain{};
    for (int i = 0; i < N; ++i) chain[i] = {GateKind::TwoSum, i, N};
    return sweep<N + 1, N, 1>(chain, iota<N + 1>());
}

template <int N>
inline constexpr auto add_scalar_table = make_add_scalar_table<N>();

// Multiplication (paper §4.2). The expansion step in mf/mul.hpp lays the
// products the discard rule keeps out on the wires, as mul_network_labels
// names them; a commutativity layer pairs symmetric terms, level pooling
// feeds the sweep.

template <int N>
constexpr auto make_mul_table() noexcept {
    using enum GateKind;
    if constexpr (N == 2) {
        // Figure 5: size 3, depth 3. Wires p00 e00 p01 p10.
        return Table<4, 3, 2>{{{
                                  {Add, 2, 3},         // t = p01 + p10
                                  {Add, 2, 1},         // s = t + e00
                                  {FastTwoSum, 0, 2},  // (z0, z1) = FastTwoSum(p00, s)
                              }},
                              {0, 2}};
    } else if constexpr (N == 3) {
        // Wires p00 e00 p01 p10 e01 e10 p02 p20 p11. The commutative head,
        // then one FastTwoSum pass over the outputs: fpan::greedy_trim's cut
        // of the head's 5-gate sweep<9, 3, 1> tail. Size 10, depth 6.
        return Table<9, 10, 3>{{{
                                   {TwoSum, 2, 3},      // (t1, u1) = TwoSum(p01, p10)
                                   {Add, 4, 5},         // f1 = e01 + e10
                                   {Add, 6, 7},         // g1 = p02 + p20
                                   {TwoSum, 2, 1},      // (w1, c1) = TwoSum(t1, e00)
                                   {Add, 3, 4},         // h = u1 + f1
                                   {Add, 3, 6},         // h += g1
                                   {Add, 3, 8},         // h += p11
                                   {Add, 3, 1},         // h += c1
                                   {FastTwoSum, 0, 2},  // (z0, r) = FastTwoSum(p00, w1)
                                   {FastTwoSum, 2, 3},  // (z1, z2) = FastTwoSum(r, h)
                               }},
                               {0, 2, 3}};
    } else {
        static_assert(N == 4, "mul: expansion lengths 1-4 are supported");
        // Wires p00 e00 p01 p10 e01 e10 p02 p20 e02 e20 p11 e11 p03 p30 p12 p21.
        constexpr std::array<Gate, 20> head{{
            {TwoSum, 2, 3},  // (t1, u1) = TwoSum(p01, p10); u1 -> level 2
            {TwoSum, 6, 7},  // (t2, u2) = TwoSum(p02, p20); u2 -> level 3
            {TwoSum, 4, 5},  // (f1, g1) = TwoSum(e01, e10); g1 -> level 3
            {Add, 12, 13},   // q1 = p03 + p30 (level 3: errors discardable)
            {Add, 14, 15},   // q2 = p12 + p21
            {Add, 8, 9},     // q3 = e02 + e20
            {TwoSum, 2, 1},  // (w1, c1) = TwoSum(t1, e00); c1 -> level 2
            // Level 2 pool {t2, f1, p11, u1, c1}: every rounding error lands
            // at level 3, still above the discard threshold for N = 4.
            {TwoSum, 6, 4},   // (a, d1) = TwoSum(t2, f1)
            {TwoSum, 6, 10},  // (a, d2) = TwoSum(a, p11)
            {TwoSum, 6, 3},   // (a, d3) = TwoSum(a, u1)
            {TwoSum, 6, 1},   // (a, d4) = TwoSum(a, c1)
            // Level 3 pool h = u2 + g1 + q1 + q2 + q3 + e11 + d1 + ... + d4:
            // plain sums, their rounding errors fall below the threshold.
            {Add, 7, 5}, {Add, 7, 12}, {Add, 7, 14}, {Add, 7, 8}, {Add, 7, 11},
            {Add, 7, 4}, {Add, 7, 10}, {Add, 7, 3}, {Add, 7, 1},
        }};
        return sweep<16, 4, 1>(head, std::array<int, 4>{0, 2, 6, 7});
    }
}

/// The shipped N-term multiplication network (N = 2, 3, 4).
template <int N>
inline constexpr auto mul_table = make_mul_table<N>();

/// Non-commutative 2-term multiplication (DWTimesDW-style), kept for the
/// §4.2 commutativity ablation. Wires [p00, e00, t], where the expansion
/// step forms t = fma(x0, y1, x1 * y0).
inline constexpr Table<3, 2, 2> mul2_fma_table = {
    {{{GateKind::Add, 2, 1}, {GateKind::FastTwoSum, 0, 2}}}, {0, 2}};

/// Expansion-times-scalar multiplication: the sweep over the 2N - 1 terms
/// [p0, p1, e0, p2, e1, ..., p_{N-1}, e_{N-2}] of (p_i, e_i) = TwoProd(x_i, y)
/// (the last error falls below the discard threshold and is never formed).
template <int N>
inline constexpr auto mul_scalar_table = sweep_table<2 * N - 1, N>();

/// Native flops of one multiply-add add(mul(x, y), z) on n-limb operands:
/// both shipped networks' gates plus the multiplication's expansion step,
/// which spends one flop per input wire (a plain product, or the fma of a
/// TwoProd whose product sits on another wire). Scales ns/op into a
/// native-FLOP-equivalent throughput; n = 1 is one native multiply and add.
/// `two_sum_ops` counts a TwoSum's instructions (Table::flops).
constexpr int madd_flops(int n, int two_sum_ops = 6) noexcept {
    const auto of = [two_sum_ops](const auto& add, const auto& mul) {
        return add.flops(two_sum_ops) + mul.flops(two_sum_ops) + static_cast<int>(mul.num_wires);
    };
    return n == 2 ? of(add_table<2>, mul_table<2>)
         : n == 3 ? of(add_table<3>, mul_table<3>)
         : n == 4 ? of(add_table<4>, mul_table<4>)
                  : 2;
}
static_assert(madd_flops(2) == 29 && madd_flops(3) == 90 && madd_flops(4) == 289,
              "the GFLOP-equiv/s columns of BENCH_*.json assume these counts");

}  // namespace mf::fpan
