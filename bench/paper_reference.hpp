#pragma once
// Reference numbers transcribed from the paper's Figures 8-11 so benchmark
// output is self-interpreting: we print our measured table next to the
// paper's, and compare SHAPE (who wins, by roughly what factor) rather than
// absolute GOp/s -- the paper measured a 16-core AMD Zen 5 and a 12-core
// Apple M3 Pro; this reproduction runs on whatever host it gets.

#include <array>
#include <string_view>

#include "suite.hpp"

namespace mf::bench::paper {

struct RefTable {
    std::string_view machine;
    std::string_view kernel;
    // rows: MultiFloats, GMP, MPFR, FLINT, Boost.MP, QD, CAMPARY, libquadmath
    // cols: 53 / 103 / 156 / 208 bit. -1 == N/A.
    std::array<std::array<double, 4>, 8> gops;
};

inline constexpr std::array<std::string_view, 8> kRefRows = {
    "MultiFloats (ours)", "GMP", "MPFR", "FLINT", "Boost.Multiprecision",
    "QD", "CAMPARY", "libquadmath"};

// Figure 9: AMD Zen 5 (Ryzen 9 9950X, 16 cores).
inline constexpr RefTable kZen5Axpy = {
    "AMD Zen 5",
    "AXPY",
    {{{135.22, 35.35, 11.32, 5.60},
      {0.67, 0.64, 0.63, 0.63},
      {1.45, 1.13, 0.75, 0.50},
      {1.39, 1.01, 0.86, 0.79},
      {1.33, 0.61, 0.36, 0.33},
      {-1, 24.13, -1, 0.50},
      {133.80, 32.44, 0.35, 0.24},
      {-1, 1.05, -1, -1}}}};

inline constexpr RefTable kZen5Dot = {
    "AMD Zen 5",
    "DOT",
    {{{117.35, 30.87, 11.75, 5.77},
      {0.65, 0.64, 0.64, 0.63},
      {1.44, 1.16, 0.78, 0.55},
      {1.62, 1.21, 1.00, 0.92},
      {1.40, 0.63, 0.34, 0.32},
      {-1, 4.66, -1, 0.51},
      {52.84, 5.40, 0.36, 0.25},
      {-1, 1.13, -1, -1}}}};

inline constexpr RefTable kZen5Gemv = {
    "AMD Zen 5",
    "GEMV",
    {{{225.18, 38.87, 12.14, 5.86},
      {0.66, 0.66, 0.66, 0.64},
      {1.51, 1.21, 0.79, 0.59},
      {1.63, 1.22, 0.98, 0.90},
      {1.34, 0.63, 0.38, 0.33},
      {-1, 4.68, -1, 0.51},
      {58.65, 5.32, 0.36, 0.25},
      {-1, 1.12, -1, -1}}}};

inline constexpr RefTable kZen5Gemm = {
    "AMD Zen 5",
    "GEMM",
    {{{328.98, 42.18, 12.34, 5.93},
      {0.62, 0.61, 0.61, 0.60},
      {1.50, 1.18, 0.79, 0.55},
      {1.61, 1.22, 1.01, 0.94},
      {1.30, 0.63, 0.37, 0.31},
      {-1, 26.47, -1, 0.51},
      {310.29, 37.42, 0.36, 0.25},
      {-1, 1.13, -1, -1}}}};

// Figure 10: Apple M3 Pro (12 cores).
inline constexpr RefTable kM3Axpy = {
    "Apple M3",
    "AXPY",
    {{{15.12, 4.60, 1.47, 0.29},
      {0.15, 0.16, 0.16, 0.16},
      {0.69, 0.56, 0.41, 0.24},
      {0.29, 0.22, 0.19, 0.18},
      {0.59, 0.33, 0.18, 0.15},
      {-1, 2.40, -1, 0.17},
      {14.93, 3.75, 0.27, 0.16},
      {-1, -1, -1, -1}}}};

inline constexpr RefTable kM3Dot = {
    "Apple M3",
    "DOT",
    {{{12.50, 1.19, 0.52, 0.31},
      {0.16, 0.16, 0.16, 0.16},
      {0.73, 0.66, 0.43, 0.25},
      {0.44, 0.30, 0.27, 0.23},
      {0.62, 0.34, 0.18, 0.15},
      {-1, 1.16, -1, 0.17},
      {6.81, 0.94, 0.24, 0.16},
      {-1, -1, -1, -1}}}};

inline constexpr RefTable kM3Gemv = {
    "Apple M3",
    "GEMV",
    {{{15.59, 1.26, 0.51, 0.34},
      {0.16, 0.16, 0.16, 0.16},
      {0.78, 0.68, 0.42, 0.25},
      {0.45, 0.32, 0.27, 0.23},
      {0.59, 0.33, 0.18, 0.15},
      {-1, 1.16, -1, 0.17},
      {8.95, 0.95, 0.25, 0.14},
      {-1, -1, -1, -1}}}};

inline constexpr RefTable kM3Gemm = {
    "Apple M3",
    "GEMM",
    {{{46.53, 6.78, 2.02, 0.98},
      {0.16, 0.16, 0.16, 0.16},
      {0.84, 0.69, 0.45, 0.25},
      {0.48, 0.32, 0.27, 0.25},
      {0.61, 0.32, 0.18, 0.14},
      {-1, 2.76, -1, 0.17},
      {41.10, 4.77, 0.27, 0.19},
      {-1, -1, -1, -1}}}};

// Figure 11: AMD RDNA3 GPU (RX 7900 XTX), T = float base type.
// rows: AXPY, DOT, GEMV, GEMM; cols: 1..4 terms.
inline constexpr std::array<std::array<double, 4>, 4> kRdna3 = {
    {{44.25, 21.63, 15.77, 9.71},
     {84.83, 56.72, 38.14, 28.44},
     {170.77, 92.37, 28.42, 31.92},
     {466.43, 277.37, 170.50, 81.11}}};

enum class Machine { Zen5, M3 };

/// The paper's table for kernel k on machine m (Figure 9: Zen 5, Figure 10:
/// M3).
[[nodiscard]] const RefTable& reference(Kernel k, Machine m);

/// Render a reference table in the same layout as our measured tables.
void print_ref(const RefTable& t);

/// Paper ratio of MultiFloats over the best competing library for a column.
[[nodiscard]] double ref_ratio(const RefTable& t, int col);

}  // namespace mf::bench::paper
