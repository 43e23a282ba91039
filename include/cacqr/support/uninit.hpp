#pragma once
/// \file uninit.hpp
/// \brief A std::vector whose `resize(n)` leaves scalars uninitialized.

#include <memory>
#include <utility>
#include <vector>

namespace cacqr {

/// std::allocator with default-initializing construct: `resize(n)` leaves
/// doubles uninitialized instead of zero-filling, while value construction
/// (`assign(n, 0.0)`, copies) behaves exactly as before.  For staging
/// buffers whose every element is written before it is read (Matrix::uninit,
/// the collectives' scratch), so no sequential zero pass touches their
/// pages first and first-touch placement happens in the threaded writer.
template <class T>
struct DefaultInitAlloc : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <class U>
  struct rebind {
    using other = DefaultInitAlloc<U>;
  };
  template <class U>
  void construct(U* p) noexcept(noexcept(::new (static_cast<void*>(p)) U)) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    std::allocator_traits<std::allocator<T>>::construct(
        *static_cast<std::allocator<T>*>(this), p,
        std::forward<Args>(args)...);
  }
};

template <class T>
using UninitVector = std::vector<T, DefaultInitAlloc<T>>;

}  // namespace cacqr
