/// \file kernel_avx512.cpp
/// \brief AVX-512F micro-kernels: a 16 x 14 fp64 (32 x 14 fp32) register
///        tile in 28 zmm accumulators (two column vectors x 14 broadcast
///        columns), leaving 4 of the 32 zmm registers for the A loads and
///        the B broadcast.  The wider tile more than doubles the flops per
///        packed byte versus 8 x 6, which is what the 512-bit FMA pipes
///        need to stay fed.
///
/// Compiled with -mavx512f via per-file COMPILE_OPTIONS (no global
/// -march dependency); the dispatcher's cpuid probe gates execution.  On
/// non-x86 targets the accessor returns nullptr.
///
/// Block geometry is re-derived for the wider tile (DESIGN.md section 7):
/// KC = 192 keeps the KC x 14 packed-B sliver (21 KB) L1-resident, MC =
/// 160 (multiple of 16) puts the MC x KC packed-A block at ~240 KB for
/// L2, NC = 3080 (multiple of 14) bounds the packed-B panel.  The 4 x 4
/// Gram block's 16 accumulators and 8 column loads fit the 32 zmm.

#include "kernel_impl.hpp"

#if defined(__x86_64__) && defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace cacqr::lin::kernel::detail {

#if defined(__x86_64__) && defined(__AVX512F__)
namespace {

template <class T>
struct Simd;

template <>
struct Simd<double> {
  using T = double;
  using V = __m512d;
  static constexpr int width = 8;
  static V zero() { return _mm512_setzero_pd(); }
  static V load(const T* p) { return _mm512_loadu_pd(p); }
  static void store(T* p, V v) { _mm512_storeu_pd(p, v); }
  static V bcast(const T* p) { return _mm512_set1_pd(*p); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
};

template <>
struct Simd<float> {
  using T = float;
  using V = __m512;
  static constexpr int width = 16;
  static V zero() { return _mm512_setzero_ps(); }
  static V load(const T* p) { return _mm512_loadu_ps(p); }
  static void store(T* p, V v) { _mm512_storeu_ps(p, v); }
  static V bcast(const T* p) { return _mm512_set1_ps(*p); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
};

template <class T>
constexpr MicroKernelImpl<T> kImpl =
    lane<Simd<T>, Geometry{16, 14, 160, 192, 3080, 4}>(Variant::avx512);

}  // namespace

template <class T>
const MicroKernelImpl<T>* avx512_impl() noexcept {
  return &kImpl<T>;
}
#else  // not an AVX-512-capable compilation target
template <class T>
const MicroKernelImpl<T>* avx512_impl() noexcept {
  return nullptr;
}
#endif

template const MicroKernelImpl<double>* avx512_impl<double>() noexcept;
template const MicroKernelImpl<float>* avx512_impl<float>() noexcept;

}  // namespace cacqr::lin::kernel::detail
