/// \file kernel_neon.cpp
/// \brief AArch64 NEON (ASIMD) micro-kernels: the 8 x 6 fp64 (16 x 6 fp32)
///        tile held in 24 q-register accumulators, one four-vector column
///        load of packed A and six lane-broadcast FMAs of packed B per k
///        step; vector x vector FMAs for the narrow Gram's dot blocks.  ASIMD is part of the AArch64 baseline, so no per-file ISA
///        flags and no runtime feature probe are needed -- the variant is
///        executable wherever it compiles.
///
/// Cache geometry is shared with the generic kernel: the tile shape is the
/// same and the L1/L2 working-set math of DESIGN.md section 7 carries over.

#include "kernel_impl.hpp"

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace cacqr::lin::kernel::detail {

#if defined(__aarch64__)
namespace {

template <class T>
struct Simd;

template <>
struct Simd<double> {
  using T = double;
  using V = float64x2_t;
  static constexpr int width = 2;
  static V zero() { return vdupq_n_f64(0.0); }
  static V load(const T* p) { return vld1q_f64(p); }
  static void store(T* p, V v) { vst1q_f64(p, v); }
  static T bcast(const T* p) { return *p; }
  static V fma(V a, T b, V c) { return vfmaq_n_f64(c, a, b); }
  static V fma(V a, V b, V c) { return vfmaq_f64(c, a, b); }
};

template <>
struct Simd<float> {
  using T = float;
  using V = float32x4_t;
  static constexpr int width = 4;
  static V zero() { return vdupq_n_f32(0.0f); }
  static V load(const T* p) { return vld1q_f32(p); }
  static void store(T* p, V v) { vst1q_f32(p, v); }
  static T bcast(const T* p) { return *p; }
  static V fma(V a, T b, V c) { return vfmaq_n_f32(c, a, b); }
  static V fma(V a, V b, V c) { return vfmaq_f32(c, a, b); }
};

template <class T>
constexpr MicroKernelImpl<T> kImpl =
    lane<Simd<T>, kGeometry8x6>(Variant::neon);

}  // namespace

template <class T>
const MicroKernelImpl<T>* neon_impl() noexcept {
  return &kImpl<T>;
}
#else  // not an AArch64 compilation target
template <class T>
const MicroKernelImpl<T>* neon_impl() noexcept {
  return nullptr;
}
#endif

template const MicroKernelImpl<double>* neon_impl<double>() noexcept;
template const MicroKernelImpl<float>* neon_impl<float>() noexcept;

}  // namespace cacqr::lin::kernel::detail
