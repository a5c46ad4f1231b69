#pragma once
// The one-include public surface of this library. User code needs exactly
//
//   #include <mf/mf.hpp>
//
// and gets, in dependency order:
//
//   <mf/multifloats.hpp>       MultiFloat<T, N> arithmetic, comparisons,
//                              elementary functions, decimal I/O, complex,
//                              reductions, IEEE restoration layer
//   <blas/blas.hpp>            typed views + extended-precision BLAS
//                              (AXPY/DOT/GEMV/GEMM), planar layout, and the
//                              packed cache-blocked GEMM engine
//   <simd/simd.hpp>            Pack<T, W> backends, runtime dispatch, the
//                              width-templated FPAN kernels
//   <telemetry/telemetry.hpp>  counters/histograms/trace spans of the simd,
//                              blas and engine layers (per call, range or
//                              tile; the MultiFloat core counts nothing);
//                              every MF_TELEM_* macro compiles to nothing
//                              unless the build defines MF_TELEMETRY (CMake
//                              option of the same name)
//
// Finer-grained includes (<mf/multifloats.hpp> alone, <blas/planar.hpp>,
// ...) remain stable for code that wants a narrower dependency; README
// "Library layout" documents the surface.

#include "../blas/blas.hpp"
#include "../simd/simd.hpp"
#include "../telemetry/telemetry.hpp"
#include "multifloats.hpp"
