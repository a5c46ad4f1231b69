#pragma once
// Umbrella header for the mf::simd subsystem.
//
//   pack.hpp     Pack<T, W> vector value type (scalar fallback, one x86
//                vector-extension template, NEON specializations); opts
//                into mf::FloatingPoint so the FPAN networks instantiate
//                over packs unchanged.
//   backend.hpp  Backend enum, CPUID detection, MF_SIMD_BACKEND override,
//                active_backend()/set_backend().
//   layout.hpp   Planar and Aos row accessors and Matrix<Row>: the one place
//                that knows how limbs sit in memory.
//   kernels.hpp  Width-templated pack FPAN kernels, each written once over
//                the accessors; the elementwise ones end on one partial
//                (masked) pack.
//   dispatch.hpp Runtime dispatch from the active backend to the kernels,
//                one element count per call.
//
// GEMM lives in one place, the packed engine of mf::blas (blas/engine/).

#include "backend.hpp"
#include "dispatch.hpp"
#include "kernels.hpp"
#include "layout.hpp"
#include "pack.hpp"
