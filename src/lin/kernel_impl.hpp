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
/// absent.  The descriptor also carries the narrow Gram's register block,
/// instantiated from the same traits.  Only the tile and Gram-block calls
/// are indirect jumps; everything above them (packing, blocking,
/// threading, arenas) lives once in kernel.cpp and is parameterized by the
/// descriptor.

#include <algorithm>
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

/// out(a, b) = A(:, a)^T A(:, b) for the gb columns at ai and the gb
/// columns at aj (column stride ld, m rows), stored column-major with
/// leading dimension gb.  Columns past ni (nj) repeat the last live one,
/// so the block never reads beyond its operand; their entries are
/// meaningless.  ai == aj (with ni == nj) computes only a >= b.
template <class T>
using GramFn = void (*)(i64 m, const T* ai, const T* aj, i64 ld, i64 ni,
                        i64 nj, T* __restrict out);

template <class T>
struct MicroKernelImpl {
  Variant variant = Variant::generic;
  i64 mr = 0;  ///< register-tile rows (packing panel height)
  i64 nr = 0;  ///< register-tile columns (packing panel width)
  i64 mc = 0;  ///< L2 block rows, multiple of mr
  i64 kc = 0;  ///< L1/L2 contraction block
  i64 nc = 0;  ///< L3 panel columns, multiple of nr
  i64 gb = 0;  ///< narrow-Gram register block: gb x gb dot products
  TileFn<T> tile = nullptr;
  GramFn<T> gram = nullptr;
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

/// Ceiling of a Gram register block's side: the driver's block scratch.
inline constexpr int kMaxGramBlock = 6;

/// An ISA's fp64 block geometry (DESIGN.md section 7).
struct Geometry {
  i64 mr, nr, mc, kc, nc, gb;
};

/// The 8 x 6 geometry of the generic, avx2 and neon variants: 12
/// accumulators + 2 A loads + 1 broadcast fit the 16 ymm registers of AVX2
/// (and the 32 NEON q-registers with room to spare).  Its 3 x 3 Gram block
/// holds 9 accumulators and 6 column loads in the same 16.
inline constexpr Geometry kGeometry8x6{8, 6, 144, 256, 3072, 3};

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

/// The lanes of v summed in a fixed pairwise order (width is a power of
/// two), so a dot product's bits depend only on its data and the ISA.
template <class S>
typename S::T lane_sum(typename S::V v) {
  typename S::T lane[S::width];
  S::store(lane, v);
  for (int h = S::width / 2; h >= 1; h /= 2) {
    for (int i = 0; i < h; ++i) lane[i] += lane[i + h];
  }
  return lane[0];
}

/// The narrow Gram's register block (GramFn): RB x RB accumulator vectors
/// over contiguous columns, each row step loading one vector of every
/// column and feeding the vector x vector FMAs, with no packing.  Rows
/// past the last whole vector run in a scalar tail, added after the
/// fixed-order lane sum.  Diag blocks (ai == aj) load one set of columns
/// and compute only a >= b.
template <class S, int RB, bool Diag>
void gram_dots(i64 m, const typename S::T* ai, const typename S::T* aj,
               i64 ld, i64 ni, i64 nj, typename S::T* __restrict out) {
  using T = typename S::T;
  constexpr int W = S::width;
  const T* pi[RB];
  const T* pj[RB];
  unroll<RB>([&](auto a) { pi[a] = ai + std::min<i64>(a, ni - 1) * ld; });
  unroll<RB>([&](auto b) { pj[b] = aj + std::min<i64>(b, nj - 1) * ld; });
  typename S::V c[RB][RB];
  unroll<RB * RB>([&](auto i) { c[i / RB][i % RB] = S::zero(); });
  const i64 mv = m - m % W;
  for (i64 r = 0; r < mv; r += W) {
    typename S::V x[RB];
    typename S::V y[RB];
    unroll<RB>([&](auto a) { x[a] = S::load(pi[a] + r); });
    unroll<RB>([&](auto b) {
      if constexpr (Diag) {
        y[b] = x[b];
      } else {
        y[b] = S::load(pj[b] + r);
      }
    });
    unroll<RB * RB>([&](auto i) {
      constexpr int a = decltype(i)::value / RB;
      constexpr int b = decltype(i)::value % RB;
      if constexpr (!Diag || a >= b) c[a][b] = S::fma(x[a], y[b], c[a][b]);
    });
  }
  unroll<RB * RB>([&](auto i) {
    constexpr int a = decltype(i)::value / RB;
    constexpr int b = decltype(i)::value % RB;
    if constexpr (!Diag || a >= b) {
      T tail = T(0);
      for (i64 r = mv; r < m; ++r) tail += pi[a][r] * pj[b][r];
      out[a + b * RB] = lane_sum<S>(c[a][b]) + tail;
    }
  });
}

template <class S, int RB>
void gram_block(i64 m, const typename S::T* ai, const typename S::T* aj,
                i64 ld, i64 ni, i64 nj, typename S::T* __restrict out) {
  if (ai == aj) {
    gram_dots<S, RB, true>(m, ai, aj, ld, ni, nj, out);
  } else {
    gram_dots<S, RB, false>(m, ai, aj, ld, ni, nj, out);
  }
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
  static_assert(G.gb >= 1 && G.gb <= kMaxGramBlock,
                "Gram block exceeds the driver's block scratch");
  static_assert((S::width & (S::width - 1)) == 0,
                "lane sums pair lanes: the width must be a power of two");
  return {variant,
          mr,
          G.nr,
          G.mc * s,
          G.kc,
          G.nc * s,
          G.gb,
          &tile<S, static_cast<int>(mr / S::width), static_cast<int>(G.nr)>,
          &gram_block<S, static_cast<int>(G.gb)>};
}

}  // namespace cacqr::lin::kernel::detail
