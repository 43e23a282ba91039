/// \file kernel_avx2.cpp
/// \brief AVX2+FMA micro-kernels: the generic 8 x 6 (fp64) and 16 x 6
///        (fp32) tiles with explicit intrinsics -- 12 ymm accumulators, one
///        two-vector column load of packed A and six scalar broadcasts of
///        packed B feeding 12 vfmadd231 per k step.
///
/// This translation unit is compiled with -mavx2 -mfma regardless of the
/// global architecture flags (CMake sets per-file COMPILE_OPTIONS), so one
/// binary carries the variant even when built on/for a non-AVX2 baseline;
/// the dispatcher's cpuid probe decides whether it may run.  On non-x86
/// targets the accessor returns nullptr and the variant is absent.
///
/// Numerics: identical operation order to the generic kernel.  When the
/// generic TU is itself compiled with FMA contraction available (e.g.
/// -march=native on an FMA host) the two variants produce bit-identical
/// tiles; on a non-FMA baseline build the generic kernel rounds each
/// multiply and add separately and the variants differ by O(eps) per
/// operation -- which is why cross-variant comparisons use a componentwise
/// relative tolerance (DESIGN.md section 2).

#include "kernel_impl.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace cacqr::lin::kernel::detail {

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)
namespace {

template <class T>
struct Simd;

template <>
struct Simd<double> {
  using T = double;
  using V = __m256d;
  static constexpr int width = 4;
  static V zero() { return _mm256_setzero_pd(); }
  static V load(const T* p) { return _mm256_loadu_pd(p); }
  static void store(T* p, V v) { _mm256_storeu_pd(p, v); }
  static V bcast(const T* p) { return _mm256_broadcast_sd(p); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
};

template <>
struct Simd<float> {
  using T = float;
  using V = __m256;
  static constexpr int width = 8;
  static V zero() { return _mm256_setzero_ps(); }
  static V load(const T* p) { return _mm256_loadu_ps(p); }
  static void store(T* p, V v) { _mm256_storeu_ps(p, v); }
  static V bcast(const T* p) { return _mm256_broadcast_ss(p); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
};

template <class T>
constexpr MicroKernelImpl<T> kImpl =
    lane<Simd<T>, kGeometry8x6>(Variant::avx2);

}  // namespace

template <class T>
const MicroKernelImpl<T>* avx2_impl() noexcept {
  return &kImpl<T>;
}
#else  // not an AVX2-capable compilation target
template <class T>
const MicroKernelImpl<T>* avx2_impl() noexcept {
  return nullptr;
}
#endif

template const MicroKernelImpl<double>* avx2_impl<double>() noexcept;
template const MicroKernelImpl<float>* avx2_impl<float>() noexcept;

}  // namespace cacqr::lin::kernel::detail
