/// \file kernel.cpp
/// \brief The packed GEMM driver and the micro-kernel variant dispatcher.
///
/// Everything above the MR x NR register tile lives here exactly once --
/// packing, MC/NC/KC cache blocking, the cooperative thread decomposition,
/// and the persistent arenas -- parameterized by the active variant's
/// MicroKernelImpl<T> descriptor (kernel_impl.hpp) at either precision.
/// The descriptor is read once per gemm_accumulate call, so a concurrent
/// set_kernel_variant can never mix two geometries inside one product.
///
/// Dispatch resolves once per process (std::call_once): CACQR_KERNEL is
/// parsed with parse_kernel_variant; a forced variant that this host cannot
/// execute throws rather than silently falling back; `auto` picks the
/// widest supported SIMD variant (avx512 > avx2 > neon > generic).  After
/// resolution the only per-tile cost is one function-pointer call.

#include "cacqr/lin/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <string>

#include "cacqr/lin/parallel.hpp"
#include "cacqr/obs/metrics.hpp"
#include "cacqr/obs/trace.hpp"
#include "cacqr/support/error.hpp"
#include "cacqr/support/math.hpp"
#include "kernel_impl.hpp"

namespace cacqr::lin::kernel {

using detail::MicroKernelImpl;

namespace {

// ----------------------------------------------------- variant dispatch

/// Descriptor lookup: nullptr when the variant's TU carries no code for
/// this architecture.  One TU and one architecture guard carry both
/// precisions, so the float descriptor is present exactly when the double
/// one is.
template <class T>
const MicroKernelImpl<T>* impl_for(Variant v) noexcept {
  switch (v) {
    case Variant::generic:
      return detail::generic_impl<T>();
    case Variant::avx2:
      return detail::avx2_impl<T>();
    case Variant::avx512:
      return detail::avx512_impl<T>();
    case Variant::neon:
      return detail::neon_impl<T>();
  }
  return nullptr;
}

/// Whether this host's CPU can execute the variant's instructions.  The
/// descriptor being present only means the code exists in the binary; on
/// x86 the cpuid probe decides executability.  NEON/ASIMD is part of the
/// AArch64 baseline, so descriptor presence is sufficient there.
bool cpu_can_run(Variant v) noexcept {
  switch (v) {
    case Variant::generic:
      return true;
    case Variant::avx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Variant::avx512:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
    case Variant::neon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

std::string supported_list() {
  std::string out;
  for (Variant v : supported_variants()) {
    if (!out.empty()) out += ", ";
    out += variant_name(v);
  }
  return out;
}

/// Resolves CACQR_KERNEL once; throwing from here propagates out of the
/// first active_variant() call (std::call_once does not latch on throw, so
/// a misconfigured environment fails every call, loudly).
const MicroKernelImpl<double>* resolve_from_env() {
  const VariantChoice choice =
      parse_kernel_variant(std::getenv("CACQR_KERNEL"));
  ensure(choice != VariantChoice::invalid,
         "CACQR_KERNEL: unrecognized kernel variant \"",
         std::getenv("CACQR_KERNEL") ? std::getenv("CACQR_KERNEL") : "",
         "\" (expected auto, generic, avx2, avx512, or neon)");
  if (choice == VariantChoice::automatic) {
    // Widest supported SIMD first; generic is the always-available floor.
    for (Variant v :
         {Variant::avx512, Variant::avx2, Variant::neon, Variant::generic}) {
      if (variant_supported(v)) return impl_for<double>(v);
    }
    return detail::generic_impl<double>();
  }
  const Variant forced = choice == VariantChoice::generic  ? Variant::generic
                         : choice == VariantChoice::avx2   ? Variant::avx2
                         : choice == VariantChoice::avx512 ? Variant::avx512
                                                           : Variant::neon;
  ensure(variant_supported(forced), "CACQR_KERNEL=", variant_name(forced),
         " is not executable on this host (supported: ", supported_list(),
         ")");
  return impl_for<double>(forced);
}

std::atomic<const MicroKernelImpl<double>*> g_active{nullptr};
std::once_flag g_active_once;

const MicroKernelImpl<double>* active_impl() {
  const MicroKernelImpl<double>* impl =
      g_active.load(std::memory_order_acquire);
  if (impl != nullptr) return impl;
  std::call_once(g_active_once, [] {
    g_active.store(resolve_from_env(), std::memory_order_release);
  });
  return g_active.load(std::memory_order_acquire);
}

// ------------------------------------------------------- packing arenas

std::atomic<i64> g_arena_allocations{0};
std::atomic<i64> g_arena_bytes{0};
std::atomic<i64> g_arena_high_water{0};

/// Per-task-group attribution (parallel::task_group()): each arena's
/// CAPACITY is charged to the group that last grew it, so when many
/// drivers share one process (the serving scheduler), arena_stats(group)
/// isolates one lane's growth and footprint.  Growth is rare (grow-only
/// arenas hit steady state after warmup), so a mutex-guarded map is
/// plenty; the hot path (get() without grow) never touches it.  Leaked:
/// thread_local arena destructors may run after static destructors.
struct GroupCounters {
  i64 allocations = 0;
  i64 bytes = 0;
  i64 high_water = 0;
};

std::mutex& group_mu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::map<int, GroupCounters>& group_map() {
  static auto* m = new std::map<int, GroupCounters>();
  return *m;
}

/// Moves an arena's capacity charge from `old_group` (its previous
/// grower) to `new_group`, recording one grow event.
void group_charge(int old_group, i64 old_cap, int new_group, i64 new_cap) {
  i64 group_high_water = 0;
  {
    const std::lock_guard<std::mutex> lock(group_mu());
    auto& m = group_map();
    if (old_cap > 0) m[old_group].bytes -= old_cap;
    GroupCounters& g = m[new_group];
    g.allocations += 1;
    g.bytes += new_cap;
    if (g.bytes > g.high_water) g.high_water = g.bytes;
    group_high_water = g.high_water;
  }
  obs::Registry::global()
      .gauge("lin.arena.group." + std::to_string(new_group) + ".high_water")
      .record_max(static_cast<double>(group_high_water));
}

void group_discharge(int group, i64 cap) {
  if (cap <= 0) return;
  const std::lock_guard<std::mutex> lock(group_mu());
  group_map()[group].bytes -= cap;
}

/// Grow-only aligned buffer, one per thread per operand.  Growth is the
/// only allocation the kernel layer ever performs; steady-state calls of a
/// given shape reuse the high-water buffer.  Capacity is tracked in BYTES
/// so the fp64 and fp32 kernel lanes share one pool per thread (their
/// cache-block geometries are chosen to occupy the same byte budget).
/// Stats are process-wide atomics so tests can assert the no-allocation
/// contract and benches can report the high-water footprint across worker
/// threads.
class PackArena {
 public:
  PackArena() = default;
  PackArena(const PackArena&) = delete;
  PackArena& operator=(const PackArena&) = delete;

  ~PackArena() {
    if (buf_ != nullptr) {
      std::free(buf_);
      g_arena_bytes.fetch_sub(static_cast<i64>(cap_),
                              std::memory_order_relaxed);
      group_discharge(group_, static_cast<i64>(cap_));
    }
  }

  template <class T>
  T* get(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    if (bytes > cap_) grow(bytes);
    return static_cast<T*>(buf_);
  }

 private:
  void grow(std::size_t want_bytes) {
    // Geometric growth bounds the number of grow events for ramping shapes;
    // 64-byte alignment keeps packed panels cache-line aligned.
    const std::size_t want = std::max(want_bytes, cap_ + cap_ / 2);
    const std::size_t bytes =
        static_cast<std::size_t>(round_up(static_cast<i64>(want), 64));
    void* fresh = std::aligned_alloc(64, bytes);
    if (fresh == nullptr) throw std::bad_alloc();
    std::free(buf_);
    buf_ = fresh;
    const i64 delta = static_cast<i64>(bytes) - static_cast<i64>(cap_);
    cap_ = bytes;
    g_arena_allocations.fetch_add(1, std::memory_order_relaxed);
    const i64 now =
        g_arena_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
    i64 hw = g_arena_high_water.load(std::memory_order_relaxed);
    while (now > hw && !g_arena_high_water.compare_exchange_weak(
                           hw, now, std::memory_order_relaxed)) {
    }
    const int owner = parallel::task_group();
    group_charge(group_, static_cast<i64>(cap_) - delta, owner,
                 static_cast<i64>(cap_));
    group_ = owner;
    // Growth is rare by design (geometric, reused at steady state), so
    // one instant per grow plus registry updates costs nothing on the
    // per-tile hot path.
    if (obs::trace_on()) {
      obs::instant("lin", "arena_grow",
                   {{"bytes", static_cast<double>(delta)},
                    {"cap", static_cast<double>(cap_)},
                    {"group", static_cast<double>(owner)}});
    }
    auto& reg = obs::Registry::global();
    reg.counter("lin.arena.allocations").add(1);
    reg.gauge("lin.arena.bytes").set(static_cast<double>(now));
  }

  void* buf_ = nullptr;
  std::size_t cap_ = 0;  // in bytes
  int group_ = 0;  ///< task group charged with the current capacity
};

PackArena& arena_a() {
  thread_local PackArena arena;
  return arena;
}

PackArena& arena_b() {
  thread_local PackArena arena;
  return arena;
}

// ------------------------------------------------------------- packing
//
// Packing, the tile sweep, and the driver body below are templates over
// the element type: instantiated at double they are token-for-token the
// pre-fp32 driver (same statements, same operation order, so the fp64
// lane stays bitwise identical), and at float they carry the fp32 lane
// through identical machinery.

/// Element of op(A) at (i, k) in the *operated* (post-transpose) index
/// space.
template <class View>
inline auto op_at(const View& a, Trans t, i64 i, i64 k) noexcept {
  return t == Trans::N ? a(i, k) : a(k, i);
}

/// Packs tmr-row panels [p_begin, p_end) of the mc x kc block of op(A)
/// starting at (i0, k0): panel p holds rows [p*tmr, p*tmr + tmr) stored
/// k-major, so the micro-kernel reads tmr contiguous elements per k step.
/// Rows beyond mc are zero-padded, which lets the micro-kernel always run
/// full tmr x tnr tiles.  The panel range lets a team pack one block
/// cooperatively (each panel has exactly one packer).  tmr is the active
/// variant's register-tile height.
template <class T, class View>
void pack_a(Trans ta, const View& a, i64 i0, i64 k0, i64 mc, i64 kc,
            i64 tmr, T* __restrict buf, i64 p_begin, i64 p_end) {
  for (i64 pi = p_begin; pi < p_end; ++pi) {
    const i64 p = pi * tmr;
    const i64 mr = std::min(tmr, mc - p);
    T* panel = buf + p * kc;
    if (ta == Trans::N && mr == tmr) {
      // Columns of A are contiguous: gather tmr strided rows per k.
      const T* base = a.data + (i0 + p) + k0 * a.ld;
      for (i64 k = 0; k < kc; ++k) {
        const T* col = base + k * a.ld;
        for (i64 i = 0; i < tmr; ++i) panel[k * tmr + i] = col[i];
      }
    } else if (ta == Trans::T && mr == tmr) {
      // op(A)(i, k) = A(k, i): each packed panel row i is a contiguous
      // column i0+p+i of A.
      for (i64 i = 0; i < tmr; ++i) {
        const T* col = a.data + k0 + (i0 + p + i) * a.ld;
        for (i64 k = 0; k < kc; ++k) panel[k * tmr + i] = col[k];
      }
    } else {
      for (i64 k = 0; k < kc; ++k) {
        for (i64 i = 0; i < tmr; ++i) {
          panel[k * tmr + i] =
              i < mr ? op_at(a, ta, i0 + p + i, k0 + k) : T(0);
        }
      }
    }
  }
}

/// Packs tnr-column panels [q_begin, q_end) of the kc x nc block of op(B)
/// starting at (k0, j0): panel q holds columns [q*tnr, q*tnr + tnr) stored
/// k-major, so the micro-kernel reads tnr contiguous elements (one per
/// register broadcast) per k step.  Columns beyond nc are zero-padded.
/// tnr is the active variant's register-tile width.
template <class T, class View>
void pack_b(Trans tb, const View& b, i64 k0, i64 j0, i64 kc, i64 nc,
            i64 tnr, T* __restrict buf, i64 q_begin, i64 q_end) {
  for (i64 qi = q_begin; qi < q_end; ++qi) {
    const i64 q = qi * tnr;
    const i64 nr = std::min(tnr, nc - q);
    T* panel = buf + q * kc;
    if (tb == Trans::N && nr == tnr) {
      // op(B)(k, j) = B(k, j): packed panel column j is a contiguous
      // column j0+q+j of B.
      for (i64 j = 0; j < tnr; ++j) {
        const T* col = b.data + k0 + (j0 + q + j) * b.ld;
        for (i64 k = 0; k < kc; ++k) panel[k * tnr + j] = col[k];
      }
    } else if (tb == Trans::T && nr == tnr) {
      const T* base = b.data + (j0 + q) + k0 * b.ld;
      for (i64 k = 0; k < kc; ++k) {
        const T* col = base + k * b.ld;
        for (i64 j = 0; j < tnr; ++j) panel[k * tnr + j] = col[j];
      }
    } else {
      // op(B)(k, j) = B(k, j) or B(j, k); columns beyond nc zero-pad.
      for (i64 k = 0; k < kc; ++k) {
        for (i64 j = 0; j < tnr; ++j) {
          panel[k * tnr + j] =
              j < nr ? (tb == Trans::N ? b(k0 + k, j0 + q + j)
                                       : b(j0 + q + j, k0 + k))
                     : T(0);
        }
      }
    }
  }
}

/// Whether the micro-tile with C-global origin (i, j) and extent mr x nr
/// participates under the filter.
inline bool tile_selected(TileFilter f, i64 i, i64 j, i64 mr, i64 nr) {
  switch (f) {
    case TileFilter::Full:
      return true;
    case TileFilter::Lower:
      // Intersects {(r, c) : r >= c} iff its bottom-left corner does.
      return i + mr - 1 >= j;
    case TileFilter::Upper:
      return i <= j + nr - 1;
  }
  return true;
}

/// The jr/ir micro-tile sweep over one packed (A block, B panel) pair,
/// restricted to tnr-panels [q_begin, q_end) of the jc step.  Each selected
/// micro-tile runs the variant's tile function and clip-writes `alpha *
/// acc` into its mr x nr rectangle of C.  Every tile is written by exactly
/// one caller, so parallel sweeps over disjoint panel (or ic block) ranges
/// stay race-free and bitwise deterministic.
template <class T, class CMView>
void sweep_tiles(const MicroKernelImpl<T>& ki, T alpha,
                 const T* __restrict abuf, const T* __restrict bbuf, CMView c,
                 TileFilter filter, i64 ic, i64 mc, i64 jc, i64 nc, i64 kc,
                 i64 q_begin, i64 q_end, T* __restrict acc) {
  const i64 tmr = ki.mr;
  const i64 tnr = ki.nr;
  for (i64 qi = q_begin; qi < q_end; ++qi) {
    const i64 jr = qi * tnr;
    const i64 nr = std::min(tnr, nc - jr);
    const T* bp = bbuf + jr * kc;
    for (i64 ir = 0; ir < mc; ir += tmr) {
      const i64 mr = std::min(tmr, mc - ir);
      if (!tile_selected(filter, ic + ir, jc + jr, mr, nr)) continue;
      ki.tile(kc, abuf + ir * kc, bp, acc);
      T* ct = c.data + (ic + ir) + (jc + jr) * c.ld;
      for (i64 j = 0; j < nr; ++j) {
        T* __restrict cc = ct + j * c.ld;
        const T* __restrict accj = acc + j * tmr;
        for (i64 i = 0; i < mr; ++i) cc[i] += alpha * accj[i];
      }
    }
  }
}

/// Minimum madd count before a product is worth a parallel region (~100us
/// of single-thread work); below it, dispatch overhead dominates.
constexpr double kParallelMaddThreshold = 1 << 20;

}  // namespace

VariantChoice parse_kernel_variant(const char* spec) noexcept {
  if (spec == nullptr) return VariantChoice::automatic;
  const std::string_view s(spec);
  if (s.empty() || s == "auto") return VariantChoice::automatic;
  if (s == "generic") return VariantChoice::generic;
  if (s == "avx2") return VariantChoice::avx2;
  if (s == "avx512") return VariantChoice::avx512;
  if (s == "neon") return VariantChoice::neon;
  return VariantChoice::invalid;
}

const char* variant_name(Variant v) noexcept {
  switch (v) {
    case Variant::generic:
      return "generic";
    case Variant::avx2:
      return "avx2";
    case Variant::avx512:
      return "avx512";
    case Variant::neon:
      return "neon";
  }
  return "generic";
}

bool variant_supported(Variant v) noexcept {
  return impl_for<double>(v) != nullptr && cpu_can_run(v);
}

std::vector<Variant> supported_variants() {
  std::vector<Variant> out;
  for (Variant v :
       {Variant::generic, Variant::avx2, Variant::avx512, Variant::neon}) {
    if (variant_supported(v)) out.push_back(v);
  }
  return out;
}

Variant active_variant() { return active_impl()->variant; }

Variant set_kernel_variant(Variant v) {
  ensure(variant_supported(v), "set_kernel_variant: ", variant_name(v),
         " is not executable on this host (supported: ", supported_list(),
         ")");
  active_impl();  // resolve the env default first so `prev` is meaningful
  const MicroKernelImpl<double>* prev =
      g_active.exchange(impl_for<double>(v), std::memory_order_acq_rel);
  return prev->variant;
}

namespace {

/// The driver body, shared verbatim by the fp64 and fp32 lanes (the
/// double instantiation is token-for-token the pre-fp32 driver, so
/// fp64 results stay bitwise identical).
template <class T, class CView, class MView>
void gemm_accumulate_body(const MicroKernelImpl<T>& ki, Trans ta, Trans tb,
                          T alpha, CView a, CView b, MView c,
                          TileFilter filter) {
  const i64 m = c.rows;
  const i64 n = c.cols;
  const i64 k = ta == Trans::N ? a.cols : a.rows;
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;

  const i64 TMR = ki.mr, TNR = ki.nr, TMC = ki.mc, TKC = ki.kc, TNC = ki.nc;

  const int budget = parallel::thread_budget();
  const bool threaded =
      budget > 1 && static_cast<double>(m) * static_cast<double>(n) *
                            static_cast<double>(k) >=
                        kParallelMaddThreshold;

  if (!threaded) {
    alignas(64) T acc[detail::kMaxTileBytes / sizeof(T)];
    for (i64 jc = 0; jc < n; jc += TNC) {
      const i64 nc = std::min(TNC, n - jc);
      const i64 nc_pad = round_up(nc, TNR);
      for (i64 pc = 0; pc < k; pc += TKC) {
        const i64 kc = std::min(TKC, k - pc);
        T* bbuf =
            arena_b().get<T>(static_cast<std::size_t>(nc_pad * kc));
        pack_b(tb, b, pc, jc, kc, nc, TNR, bbuf, 0, ceil_div(nc, TNR));
        for (i64 ic = 0; ic < m; ic += TMC) {
          const i64 mc = std::min(TMC, m - ic);
          const i64 mc_pad = round_up(mc, TMR);
          T* abuf =
              arena_a().get<T>(static_cast<std::size_t>(mc_pad * kc));
          pack_a(ta, a, ic, pc, mc, kc, TMR, abuf, 0, ceil_div(mc, TMR));
          sweep_tiles(ki, alpha, abuf, bbuf, c, filter, ic, mc, jc, nc, kc,
                      0, ceil_div(nc, TNR), acc);
        }
      }
    }
    return;
  }

  // Thread-parallel driver.  The jc/pc loops stay sequential (they define
  // each C tile's accumulation order); within a (jc, pc) step the team
  //   1. packs the shared op(B) panel cooperatively (one packer per
  //      NR-panel), barrier;
  //   2. splits the ic/jr tile space:
  //      - enough MC blocks: each thread owns whole ic blocks round-robin
  //        and packs its own op(A) into its thread-local arena;
  //      - few MC blocks (small m, e.g. Gram products): per block, the
  //        team packs a shared op(A) cooperatively, barriers, then splits
  //        the jr panels; a trailing barrier protects the shared pack
  //        buffer from the next block's repack.
  // Ownership of every C micro-tile is unique and the pc reduction is
  // never split, so the result is bitwise identical to the sequential
  // driver for every thread count -- per variant and per precision.
  for (i64 jc = 0; jc < n; jc += TNC) {
    const i64 nc = std::min(TNC, n - jc);
    const i64 nc_pad = round_up(nc, TNR);
    const i64 q_total = ceil_div(nc, TNR);
    for (i64 pc = 0; pc < k; pc += TKC) {
      const i64 kc = std::min(TKC, k - pc);
      T* bbuf = arena_b().get<T>(static_cast<std::size_t>(nc_pad * kc));
      const i64 ic_total = ceil_div(m, TMC);
      const int nt = static_cast<int>(
          std::min<i64>(budget, std::max(ic_total, q_total)));
      const bool split_ic = ic_total >= nt;
      T* shared_abuf = nullptr;
      if (!split_ic) {
        const i64 mc_max = std::min(TMC, m);
        shared_abuf = arena_a().get<T>(
            static_cast<std::size_t>(round_up(mc_max, TMR) * kc));
      }
      parallel::run(nt, [&](parallel::Team& team) {
        const parallel::Range bq = team.chunk(q_total, 1);
        pack_b(tb, b, pc, jc, kc, nc, TNR, bbuf, bq.begin, bq.end);
        team.barrier();
        alignas(64) T acc[detail::kMaxTileBytes / sizeof(T)];
        if (split_ic) {
          for (i64 blk = team.tid(); blk < ic_total; blk += team.size()) {
            const i64 ic = blk * TMC;
            const i64 mc = std::min(TMC, m - ic);
            const i64 mc_pad = round_up(mc, TMR);
            T* abuf =
                arena_a().get<T>(static_cast<std::size_t>(mc_pad * kc));
            pack_a(ta, a, ic, pc, mc, kc, TMR, abuf, 0, ceil_div(mc, TMR));
            sweep_tiles(ki, alpha, abuf, bbuf, c, filter, ic, mc, jc, nc,
                        kc, 0, q_total, acc);
          }
        } else {
          for (i64 blk = 0; blk < ic_total; ++blk) {
            const i64 ic = blk * TMC;
            const i64 mc = std::min(TMC, m - ic);
            const parallel::Range ap = team.chunk(ceil_div(mc, TMR), 1);
            pack_a(ta, a, ic, pc, mc, kc, TMR, shared_abuf, ap.begin,
                   ap.end);
            team.barrier();
            const parallel::Range qs = team.chunk(q_total, 1);
            sweep_tiles(ki, alpha, shared_abuf, bbuf, c, filter, ic, mc,
                        jc, nc, kc, qs.begin, qs.end, acc);
            team.barrier();
          }
        }
      });
    }
  }
}

}  // namespace

void gemm_accumulate(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                     ConstMatrixView b, MatrixView c, TileFilter filter) {
  // One descriptor read per product: geometry and tile function stay
  // coherent even if set_kernel_variant races with this call.
  const MicroKernelImpl<double> ki = *active_impl();
  gemm_accumulate_body(ki, ta, tb, alpha, a, b, c, filter);
}

void gemm_accumulate_f32(Trans ta, Trans tb, float alpha, ConstMatrixFView a,
                         ConstMatrixFView b, MatrixFView c,
                         TileFilter filter) {
  // The active variant's float descriptor: present whenever the variant
  // is, since one TU carries both precisions.
  const MicroKernelImpl<float> ki = *impl_for<float>(active_impl()->variant);
  gemm_accumulate_body(ki, ta, tb, alpha, a, b, c, filter);
}

ArenaStats arena_stats() noexcept {
  return {g_arena_allocations.load(std::memory_order_relaxed),
          g_arena_bytes.load(std::memory_order_relaxed),
          g_arena_high_water.load(std::memory_order_relaxed)};
}

ArenaStats arena_stats(int group) noexcept {
  const std::lock_guard<std::mutex> lock(group_mu());
  const auto& m = group_map();
  const auto it = m.find(group);
  if (it == m.end()) return {};
  return {it->second.allocations, it->second.bytes, it->second.high_water};
}

}  // namespace cacqr::lin::kernel
