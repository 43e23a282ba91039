#pragma once
/// \file kernel.hpp
/// \brief Packed, register-tiled GEMM micro-kernel core (BLIS-style) with
///        runtime-dispatched SIMD micro-kernel variants.
///
/// Every level-3 kernel in cacqr::lin (gemm in all four transpose cases,
/// gram, syrk_nt, trmm, and the off-diagonal updates of the blocked trsm
/// recursion) funnels into the drivers declared here.  The accumulating
/// driver packs operand panels into contiguous, zero-padded buffers and
/// updates a fixed MR x NR register block over the K dimension, with
/// three-level MC/NC/KC cache blocking around it; trmm packs its triangle
/// into the same tile panels, and narrow Grams skip packing for dot-product
/// register blocks.  See DESIGN.md section 2
/// for the architecture, section 3 for the thread-parallel decomposition,
/// and section 7 for how to re-tune the block sizes.
///
/// The MR x NR register block itself is **multi-versioned**: one binary
/// carries a family of explicitly vectorized micro-kernels (AVX2 8x6 FMA,
/// AVX-512 16x14, NEON 8x6) next to the always-available generic kernel.
/// Each ISA is one translation unit, compiled with its own per-file ISA
/// flags, that instantiates the one register-tile template at double and
/// at float; an ISA states its fp64 geometry and the fp32 lane derives its
/// own from it (twice MR, MC and NC; the same NR and KC), so both lanes
/// hold the same number of registers and the same cache-block bytes.  A
/// one-time CPU probe (cpuid / architecture baseline) selects the variant
/// at first use -- overridable with CACQR_KERNEL -- and the only dynamic
/// indirection is one function pointer per MR x NR tile (or per narrow-
/// Gram register block): the MC/NC/KC blocking, cooperative packing,
/// arenas, and the one-owner threading rule are shared verbatim across
/// variants and precisions, parameterized by the variant's block geometry
/// (DESIGN.md sections 2 and 7).
///
/// The driver is thread-parallel: when the calling thread's worker budget
/// (lin/parallel.hpp, CACQR_THREADS) exceeds one and the product is large
/// enough, each (jc, pc) step packs the shared op(B) panel cooperatively
/// and splits the ic/jr tile space across the team.  Every C micro-tile has
/// exactly one owner and the pc reduction loop is never split, so results
/// are bitwise identical across thread counts -- per variant.  Different
/// variants may round differently (FMA contraction, block-size-dependent
/// accumulation splits); switching variants is a numerical event on the
/// order of the unit roundoff, never a correctness one.
///
/// Packing buffers are persistent per-thread arenas (grow-only, reused
/// across calls): steady-state kernel invocations of a given shape perform
/// no allocation.  A third arena per thread, `workspace()`, lends the same
/// reuse to code that stages whole panels (core/batched.hpp).
/// `arena_stats()` exposes process-wide counters over all three so tests
/// and benches can assert that.
///
/// Functions in this header perform NO flop accounting: the public BLAS
/// wrappers in blas.hpp charge closed-form flop counts (DESIGN.md section 1)
/// so the machine model's gamma tally is independent of blocking strategy,
/// of the thread count, and of the selected variant.

#include <cstddef>
#include <span>
#include <vector>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/lin/matrix_f.hpp"

namespace cacqr::lin::kernel {

// ------------------------------------------------------- kernel variants

/// The micro-kernel family.  `generic` is the portable baseline (GCC/Clang
/// vector extensions with a scalar fallback) and is always executable;
/// the SIMD variants are compiled into every binary (per-file ISA flags)
/// but only executable where the CPU probe says so.
enum class Variant { generic = 0, avx2 = 1, avx512 = 2, neon = 3 };

/// Every variant, in enumerator order (the tune:: plan parser's bound).
inline constexpr Variant kVariants[] = {Variant::generic, Variant::avx2,
                                        Variant::avx512, Variant::neon};

/// What a CACQR_KERNEL value asks for: a specific variant, automatic
/// selection, or nonsense (which the dispatcher refuses loudly rather
/// than silently falling back -- a forced kernel must never be guessed).
enum class VariantChoice { automatic, generic, avx2, avx512, neon, invalid };

/// Parses a kernel spec: "generic" | "avx2" | "avx512" | "neon" |
/// "auto" -> the matching choice; nullptr and "" -> automatic; anything
/// else -> invalid.  Exposed for testing; the process-wide dispatch below
/// parses the CACQR_KERNEL environment variable once with exactly this
/// rule.
[[nodiscard]] VariantChoice parse_kernel_variant(const char* spec) noexcept;

/// Stable lowercase name of a variant ("generic", "avx2", ...), matching
/// the CACQR_KERNEL spelling and the tune:: profile/plan serialization.
[[nodiscard]] const char* variant_name(Variant v) noexcept;

/// Whether `v` is executable on this host: its translation unit carries a
/// real micro-kernel for this architecture AND the CPU probe (cpuid on
/// x86, baseline ASIMD on AArch64) reports the required features.
/// `generic` is always supported.
[[nodiscard]] bool variant_supported(Variant v) noexcept;

/// Every executable variant, in the fixed order generic, avx2, avx512,
/// neon.  Never empty.
[[nodiscard]] std::vector<Variant> supported_variants();

/// The variant the driver currently dispatches to.  The first call
/// resolves CACQR_KERNEL: a forced variant that is unsupported on this
/// host (or a malformed value) throws cacqr::Error with the supported
/// list; `auto` (the default) picks the widest supported SIMD variant
/// (avx512 > avx2 > neon > generic).
[[nodiscard]] Variant active_variant();

/// Overrides the active variant process-wide and returns the previous
/// one; throws cacqr::Error when `v` is not supported on this host.  For
/// tests and the tune:: calibrator's per-variant sweeps -- do not call
/// while kernels are in flight on other threads (the switch is atomic,
/// but a factorization that changes variant mid-run mixes roundings).
Variant set_kernel_variant(Variant v);

/// Which MR x NR micro-tiles of C the driver computes.  `Lower` computes
/// every tile that intersects the lower triangle (i >= j), `Upper` every
/// tile that intersects the upper triangle (i <= j); tiles strictly on the
/// other side of the diagonal are skipped.  Entries of a diagonal-crossing
/// tile that lie outside the requested triangle receive well-defined but
/// meaningless accumulated values -- callers (gram/syrk_nt) overwrite them
/// by mirroring.  Used to compute only the touched triangle of a symmetric
/// product at micro-tile granularity.
enum class TileFilter { Full, Lower, Upper };

/// C += alpha * op(A) * op(B), all four transpose combinations, through the
/// packed micro-kernel.  C is NOT scaled by beta (callers pre-scale) and no
/// flops are charged.  Shapes must already be validated by the caller:
/// op(A) is c.rows x k, op(B) is k x c.cols.
///
/// The float overload is the fp32 lane of the same driver body, which
/// dispatches to the active variant's fp32 micro-kernel (every variant
/// carries one, executable exactly when the variant is).  Both lanes
/// share the per-thread packing arenas (they are byte pools) and the
/// one-owner determinism rule: results are bitwise identical across
/// thread budgets, per variant.
void gemm_accumulate(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                     ConstMatrixView b, MatrixView c,
                     TileFilter filter = TileFilter::Full);
void gemm_accumulate(Trans ta, Trans tb, float alpha, ConstMatrixFView a,
                     ConstMatrixFView b, MatrixFView c,
                     TileFilter filter = TileFilter::Full);

/// The lower triangle of C += alpha * A^T A (C is a.cols x a.cols; its
/// strict upper triangle may receive meaningless values, which gram
/// overwrites by mirroring).  Grams of at most 64 columns run as
/// packing-free register blocks of column-pair dot products with
/// fixed-order lane sums; wider ones run the packed driver with
/// TileFilter::Lower.  Either way each block of C has one owner that sums
/// all of A's rows, so results are bitwise identical across thread
/// budgets, per variant.  No flops are charged.  The float overload is
/// the fp32 lane, with the same width rule.
void gram_accumulate(double alpha, ConstMatrixView a, MatrixView c);
void gram_accumulate(float alpha, ConstMatrixFView a, MatrixFView c);

/// B = alpha * op(T) * B (Side::Left) or B = alpha * B * op(T)
/// (Side::Right) in place, through the register tile: op(T) is packed
/// once into tile panels clipped to its triangle, and every MR-row block
/// (right) or NR-column panel (left) of B is packed and multiplied by one
/// owner, so results are bitwise identical across thread budgets, per
/// variant.  The other triangle of T is never read.  alpha must be
/// nonzero (lin::trmm zeroes B itself) and shapes validated by the
/// caller; no flops are charged.
void trmm_packed(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
                 ConstMatrixView t, MatrixView b);

/// The calling thread's workspace: at least `count` doubles, 64-byte
/// aligned, holding whatever its last user left there.  It is a third
/// grow-only arena beside the two packing operands, counted by
/// arena_stats like them, so a thread that reuses it at a warm size
/// allocates nothing.  One user at a time: the next call on this thread
/// may move or overwrite it.
[[nodiscard]] std::span<double> workspace(std::size_t count);

/// Process-wide statistics over every thread's packing arenas.  Arenas are
/// thread-local and grow-only, so `allocations` advancing between two
/// same-shape kernel calls means the arena reuse contract broke.
struct ArenaStats {
  i64 allocations = 0;  ///< arena grow events since process start
  i64 bytes_in_use = 0;  ///< bytes currently held across all live arenas
  i64 high_water_bytes = 0;  ///< maximum of bytes_in_use ever observed
};

[[nodiscard]] ArenaStats arena_stats() noexcept;

}  // namespace cacqr::lin::kernel
