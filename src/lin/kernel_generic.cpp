/// \file kernel_generic.cpp
/// \brief The always-available generic micro-kernels: GCC/Clang vector
///        extensions (8 x 6 doubles or 16 x 6 floats in 12 named 256-bit
///        accumulators, 24 128-bit ones when the base flags lack AVX) with
///        a portable scalar fallback.  Compiled with the base flags only
///        (no per-file ISA additions), so CACQR_KERNEL=generic stays the
///        portable baseline; under -march=native on an FMA host the
///        multiply-adds contract to FMA.

#include "kernel_impl.hpp"

namespace cacqr::lin::kernel::detail {

namespace {

/// Traits over GCC/Clang vector extensions, where `a * b` with a scalar b
/// broadcasts it.  The vector is 256-bit only when the base flags enable
/// AVX: passing one by value without AVX changes the calling convention
/// (GCC's -Wpsabi).  Tile rows and the per-element k order do not depend
/// on the width, so both widths give the same bits.
template <class E>
struct Simd {
  using T = E;
#if defined(__GNUC__) || defined(__clang__)
#ifdef __AVX__
  static constexpr int bytes = 32;
#else
  static constexpr int bytes = 16;
#endif
  // Element alignment keeps loads from the packed panels unaligned-safe.
  typedef E V __attribute__((vector_size(bytes), aligned(sizeof(E))));
#else
  using V = E;  // portable fallback: one element per "vector"
#endif
  static constexpr int width = sizeof(V) / sizeof(T);
  static V zero() { return V{}; }
  static V load(const T* p) { return *reinterpret_cast<const V*>(p); }
  static void store(T* p, V v) { *reinterpret_cast<V*>(p) = v; }
  static T bcast(const T* p) { return *p; }
  /// c + a * b for a broadcast scalar b (the tile) or a vector b (the
  /// Gram block); one template, since the scalar fallback's V is T.
  template <class B>
  static V fma(V a, B b, V c) {
    return c + a * b;
  }
};

template <class T>
constexpr MicroKernelImpl<T> kImpl =
    lane<Simd<T>, kGeometry8x6>(Variant::generic);

}  // namespace

template <class T>
const MicroKernelImpl<T>* generic_impl() noexcept {
  return &kImpl<T>;
}
template const MicroKernelImpl<double>* generic_impl<double>() noexcept;
template const MicroKernelImpl<float>* generic_impl<float>() noexcept;

}  // namespace cacqr::lin::kernel::detail
