#pragma once
/// \file blas_f.hpp
/// \brief The fp32 lane of the level-3 subset, plus the precision
///        conversions that bracket it.
///
/// Only what the mixed-precision Gram path needs: narrow the fp64 panel
/// to fp32, run the Gram (or its c > 1 gemm form) through the fp32
/// micro-kernel lane, ship the half-width payload through the runtime,
/// widen the agreed result back to fp64.  Everything downstream
/// (Cholesky, triangular solves, the correction sweep) stays fp64.  Each
/// entry point runs its fp64 twin's body (one template in gemm.cpp).
///
/// Flop accounting: the fp32 kernels charge the SAME closed-form flop
/// counts as their fp64 twins.  The gamma tally counts operations, not
/// seconds; the fact that an fp32 flop is cheaper is a machine property,
/// carried by the per-precision gamma rates in tune::MachineProfile, so
/// modeled costs stay comparable across precisions.

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/lin/matrix_f.hpp"

namespace cacqr::lin {

/// b = (float) a, elementwise (shapes must match).  Column-split across
/// the calling thread's worker budget under the one-owner rule: bitwise
/// deterministic at any budget (rounding is elementwise, order-free).
void narrow(ConstMatrixView a, MatrixFView b);

/// b = (double) a, elementwise (shapes must match; exact -- every float
/// is representable as a double).  Threaded like narrow().
void widen(ConstMatrixFView a, MatrixView b);

/// C = alpha * op(A) * op(B) + beta * C in fp32 through the packed
/// micro-kernel's fp32 lane.  Charges the fp64 gemm's 2mnk flops.
void gemm_f32(Trans ta, Trans tb, float alpha, ConstMatrixFView a,
              ConstMatrixFView b, float beta, MatrixFView c);

/// C = alpha * A^T A + beta * C in fp32, full symmetric result (lower
/// triangle computed through the fp32 kernel lane, then mirrored), the
/// fp32 twin of lin::gram.  Charges m*n*(n+1) flops like its fp64 twin.
void gram_f32(float alpha, ConstMatrixFView a, float beta, MatrixFView c);

}  // namespace cacqr::lin
