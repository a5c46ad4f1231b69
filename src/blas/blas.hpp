#pragma once
// Umbrella header for the mf::blas subsystem.
//
//   views.hpp               VectorView/MatrixView (const + mutable) -- the
//                           typed shapes the public signatures take.
//   kernels.hpp             AXPY/DOT/GEMV/GEMM (+ scal/asum/nrm2/iamax/ger),
//                           templated over the number type; MultiFloat views
//                           take the explicit-SIMD pack fast path.
//   planar.hpp              planar (SoA) Vector + matrix views and the
//                           planar axpy/dot/gemv kernels.
//   engine/gemm_packed.hpp  BLIS-style packed cache-blocked GEMM, the one
//                           GEMM engine behind gemm_packed (planar) and
//                           gemm (AoS MultiFloat); bit-identical to
//                           check::reference_gemm (DESIGN.md §11).

#include "engine/gemm_packed.hpp"
#include "kernels.hpp"
#include "planar.hpp"
#include "views.hpp"
