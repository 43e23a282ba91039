#pragma once
/// \file kernel_impl.hpp
/// \brief Internal contract between the packed driver (kernel.cpp) and the
///        micro-kernel ISA translation units, and the one register-tile
///        template those units instantiate.
///
/// Each ISA TU (kernel_generic.cpp, kernel_avx2.cpp, kernel_avx512.cpp,
/// kernel_neon.cpp) is compiled with per-file ISA flags, defines a SIMD
/// traits struct for double and one for float in an anonymous namespace,
/// and exports a MicroKernelImpl<double> and a MicroKernelImpl<float>
/// descriptor: the register-tile geometry, the cache block sizes tuned for
/// it, and the tile<> instantiation.  Internal-linkage traits make every
/// tile instantiation internal too, so the linker can never fold an
/// ISA-flagged instantiation into a TU built for another ISA.  On
/// architectures where a variant cannot be compiled, its accessor returns
/// nullptr at both precisions and the dispatcher treats the variant as
/// absent.  Only the tile call is an indirect jump; everything above the
/// MR x NR tile (packing, blocking, threading, arenas) lives once in
/// kernel.cpp and is parameterized by the descriptor.

#include <cstddef>
#include <type_traits>
#include <utility>

#include "cacqr/lin/kernel.hpp"

namespace cacqr::lin::kernel::detail {

/// acc(mr x nr, column-major with leading dimension mr) = Ap(mr x kc) *
/// Bp(kc x nr) over zero-padded packed panels.  The function OVERWRITES
/// acc (no accumulation across calls); the driver clip-writes alpha * acc
/// into C.
template <class T>
using TileFn = void (*)(i64 kc, const T* __restrict ap,
                        const T* __restrict bp, T* __restrict acc);

template <class T>
struct MicroKernelImpl {
  Variant variant = Variant::generic;
  i64 mr = 0;  ///< register-tile rows (packing panel height)
  i64 nr = 0;  ///< register-tile columns (packing panel width)
  i64 mc = 0;  ///< L2 block rows, multiple of mr
  i64 kc = 0;  ///< L1/L2 contraction block
  i64 nc = 0;  ///< L3 panel columns, multiple of nr
  TileFn<T> tile = nullptr;
};

/// Variant descriptors, instantiated for double and float; nullptr when
/// the TU was compiled for an architecture that cannot carry the variant.
/// generic_impl<T>() is never nullptr.  CPU *capability* is the
/// dispatcher's problem, not these accessors': a non-null descriptor only
/// means the code exists in the binary.
template <class T>
[[nodiscard]] const MicroKernelImpl<T>* generic_impl() noexcept;
template <class T>
[[nodiscard]] const MicroKernelImpl<T>* avx2_impl() noexcept;
template <class T>
[[nodiscard]] const MicroKernelImpl<T>* avx512_impl() noexcept;
template <class T>
[[nodiscard]] const MicroKernelImpl<T>* neon_impl() noexcept;

/// Byte ceiling of the driver's per-call accumulator scratch: the largest
/// fp64 tile (avx512's 16 x 14).  The fp32 rule in lane() keeps a tile's
/// bytes, so the ceiling covers both precisions.
inline constexpr std::size_t kMaxTileBytes = 16 * 14 * sizeof(double);

/// An ISA's fp64 block geometry (DESIGN.md section 7).
struct Geometry {
  i64 mr, nr, mc, kc, nc;
};

/// The 8 x 6 geometry of the generic, avx2 and neon variants: 12
/// accumulators + 2 A loads + 1 broadcast fit the 16 ymm registers of AVX2
/// (and the 32 NEON q-registers with room to spare).
inline constexpr Geometry kGeometry8x6{8, 6, 144, 256, 3072};

/// Calls f(std::integral_constant<int, I>()) for I = 0, 1, ..., N - 1,
/// expanded at compile time.
template <int N, class F>
inline void unroll(F&& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) {
    (f(std::integral_constant<int, I>()), ...);
  }(std::make_integer_sequence<int, N>());
}

/// The register tile: acc(MR x NR) = Ap(MR x kc) * Bp(kc x NR) with MR =
/// MV * S::width.  The MV x NR accumulator vectors live in registers
/// across the k loop; each k step loads MV vectors of packed A, then per
/// column broadcasts one element of packed B into MV FMAs.  Everything
/// inside the k loop is unrolled at compile time, which is what keeps the
/// accumulators in named registers (GCC otherwise vectorizes across the
/// wrong axis and emits permutes in the k loop).
///
/// S supplies T (element), V (vector), width (elements per V) and
/// zero/load/store/bcast/fma, where fma(a, b, c) = c + a * b with b the
/// result of bcast.
template <class S, int MV, int NR>
void tile(i64 kc, const typename S::T* __restrict ap,
          const typename S::T* __restrict bp, typename S::T* __restrict acc) {
  constexpr int W = S::width;
  typename S::V c[NR][MV];
  unroll<NR * MV>([&](auto i) { c[i / MV][i % MV] = S::zero(); });
  for (i64 k = 0; k < kc; ++k) {
    typename S::V a[MV];
    unroll<MV>([&](auto v) { a[v] = S::load(ap + v * W); });
    unroll<NR>([&](auto j) {
      const auto b = S::bcast(bp + j);
      unroll<MV>([&](auto v) { c[j][v] = S::fma(a[v], b, c[j][v]); });
    });
    ap += MV * W;
    bp += NR;
  }
  // Column j of the tile starts at acc + j * MR = acc + j * MV * W.
  unroll<NR * MV>([&](auto i) { S::store(acc + i * W, c[i / MV][i % MV]); });
}

/// The descriptor of an ISA's lane with traits S, from its fp64 geometry
/// G.  The fp32 lane doubles mr, mc and nc and keeps nr and kc: the same
/// register count (each vector carries twice the elements) and the same
/// cache-block bytes, so both lanes share the packing arenas and the
/// working-set math of DESIGN.md section 7.
template <class S, Geometry G>
constexpr MicroKernelImpl<typename S::T> lane(Variant variant) {
  constexpr i64 s = sizeof(double) / sizeof(typename S::T);
  constexpr i64 mr = G.mr * s;
  static_assert(mr % S::width == 0, "tile rows must fill whole vectors");
  static_assert(G.mc % G.mr == 0 && G.nc % G.nr == 0,
                "block sizes must be multiples of the register tile");
  static_assert(G.mr * G.nr * sizeof(double) <= kMaxTileBytes,
                "geometry exceeds the driver's accumulator scratch");
  return {variant, mr,         G.nr,
          G.mc * s, G.kc,      G.nc * s,
          &tile<S, static_cast<int>(mr / S::width), static_cast<int>(G.nr)>};
}

}  // namespace cacqr::lin::kernel::detail
