#pragma once
// Umbrella header for the MultiFloats library: branch-free extended-precision
// floating-point arithmetic on nonoverlapping expansions.
//
//   #include <mf/multifloats.hpp>
//
//   mf::Float64x4 x = ...;            // ~octuple precision on double hardware
//   mf::Float64x4 y = mf::sqrt(x * x + mf::Float64x4(1.0));
//
// See README.md for a tour and DESIGN.md for the paper reproduction map.

#include "add.hpp"
#include "compare.hpp"
#include "complex.hpp"
#include "convert.hpp"
#include "div_sqrt.hpp"
#include "eft.hpp"
#include "elementary.hpp"
#include "ieee.hpp"
#include "limits.hpp"
#include "math.hpp"
#include "mul.hpp"
#include "poly.hpp"
#include "multifloat.hpp"
#include "random.hpp"
#include "reduce.hpp"
