#pragma once
/// \file kernel.hpp
/// \brief Packed, register-tiled GEMM micro-kernel core (BLIS-style) with
///        runtime-dispatched SIMD micro-kernel variants.
///
/// Every level-3 kernel in cacqr::lin (gemm in all four transpose cases,
/// gram, syrk_nt, and the off-diagonal updates of the blocked trmm/trsm
/// recursions) funnels into the single accumulating driver declared here.
/// The driver packs operand panels into contiguous, zero-padded buffers and
/// updates a fixed MR x NR register block over the K dimension, with
/// three-level MC/NC/KC cache blocking around it.  See DESIGN.md section 2
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
/// indirection is one function pointer per MR x NR tile: the MC/NC/KC
/// blocking, cooperative packing, arenas, and the one-owner threading rule
/// are shared verbatim across variants and precisions, parameterized by
/// the variant's block geometry (DESIGN.md sections 2 and 7).
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
/// no allocation.  `arena_stats()` exposes process-wide counters so tests
/// and benches can assert that.
///
/// Functions in this header perform NO flop accounting: the public BLAS
/// wrappers in blas.hpp charge closed-form flop counts (DESIGN.md section 1)
/// so the machine model's gamma tally is independent of blocking strategy,
/// of the thread count, and of the selected variant.

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
void gemm_accumulate(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                     ConstMatrixView b, MatrixView c,
                     TileFilter filter = TileFilter::Full);

/// The fp32 lane of the same driver: identical packing/blocking/threading
/// machinery instantiated at float width, dispatching to the active
/// variant's fp32 micro-kernel (every variant carries one, executable
/// exactly when the variant is).  Shares the
/// per-thread packing arenas with the fp64 lane (they are byte pools) and
/// obeys the same one-owner determinism rule: results are bitwise
/// identical across thread budgets, per variant.
void gemm_accumulate_f32(Trans ta, Trans tb, float alpha, ConstMatrixFView a,
                         ConstMatrixFView b, MatrixFView c,
                         TileFilter filter = TileFilter::Full);

/// Process-wide statistics over every thread's packing arenas.  Arenas are
/// thread-local and grow-only, so `allocations` advancing between two
/// same-shape kernel calls means the arena reuse contract broke.
struct ArenaStats {
  i64 allocations = 0;  ///< arena grow events since process start
  i64 bytes_in_use = 0;  ///< bytes currently held across all live arenas
  i64 high_water_bytes = 0;  ///< maximum of bytes_in_use ever observed
};

[[nodiscard]] ArenaStats arena_stats() noexcept;

/// Statistics attributed to one task group (parallel::set_task_group):
/// each arena's capacity is charged to the group that last grew it --
/// including growth on pool workers, which adopt their owner's group per
/// region -- so when many drivers share the process (the serve/
/// scheduler), a lane's growth and footprint are visible in isolation.
/// `bytes_in_use`/`high_water_bytes` are per-group charges (summing the
/// per-group values over all groups equals the process-wide
/// bytes_in_use); `allocations` advancing for a warm group's repeated
/// same-shape jobs means the reuse contract broke for that lane.  An
/// unknown group reads as all zeros.
[[nodiscard]] ArenaStats arena_stats(int group) noexcept;

}  // namespace cacqr::lin::kernel
