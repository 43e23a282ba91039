#pragma once
/// \file matrix_f.hpp
/// \brief The float members of the matrix family (matrix.hpp) for the
///        fp32 kernel lane.
///
/// fp32 operands exist only on the mixed-precision Gram path (narrow ->
/// gram -> allreduce -> widen).  A `MatrixF` stores its floats in whole
/// 8-byte words like every owning matrix, so `wire()` carries two floats
/// per word.

#include "cacqr/lin/matrix.hpp"

namespace cacqr::lin {

using ConstMatrixFView = BasicConstView<float>;
using MatrixFView = BasicView<float>;
using MatrixF = BasicMatrix<float>;

}  // namespace cacqr::lin
