#pragma once
/// \file error.hpp
/// \brief Error types and checked-precondition helpers used across the
///        library.
///
/// The library reports contract violations and runtime failures through a
/// small exception hierarchy rooted at cacqr::Error.  Internal invariants
/// (conditions that can only fail due to a bug inside this library) use
/// plain assert(); user-facing preconditions use ensure()/ensure_dim().

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cacqr {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what_arg) : std::runtime_error(what_arg) {}
};

/// Thrown when matrix/grid dimensions violate a documented precondition.
class DimensionError : public Error {
 public:
  explicit DimensionError(const std::string& what_arg) : Error(what_arg) {}
};

/// Thrown when a Cholesky factorization encounters a non-positive pivot,
/// i.e. the input matrix is not (numerically) symmetric positive definite.
/// For CholeskyQR this signals kappa(A)^2 * eps >= 1; callers can fall back
/// to the shifted variant (see core/shifted.hpp).
class NotSpdError : public Error {
 public:
  NotSpdError(const std::string& what_arg, std::size_t pivot_index)
      : Error(what_arg), pivot(pivot_index) {}
  /// Index of the first failing pivot.
  std::size_t pivot;
};

/// Thrown when the failing Cholesky pivot is NaN or +-Inf: the input held
/// a non-finite value (or overflowed).  It is a NotSpdError, so every
/// per-panel isolation site still catches it, but no diagonal shift can
/// repair it, so the shifted-CholeskyQR3 retries skip it.
class NonFiniteError : public NotSpdError {
 public:
  using NotSpdError::NotSpdError;
};

/// Thrown for misuse of the message-passing runtime (size mismatches,
/// invalid ranks, operations on moved-from communicators).
class CommError : public Error {
 public:
  explicit CommError(const std::string& what_arg) : Error(what_arg) {}
};

/// Thrown inside every blocked runtime call on all surviving ranks once any
/// rank of the program has thrown: it unwinds the whole SPMD team cleanly.
class AbortError : public Error {
 public:
  explicit AbortError(const std::string& what_arg) : Error(what_arg) {}
};

namespace detail {

inline void concat_into(std::ostringstream&) {}

template <class T, class... Rest>
void concat_into(std::ostringstream& os, const T& head, const Rest&... rest) {
  os << head;
  concat_into(os, rest...);
}

/// Builds a message string from heterogeneous parts (mini substitute for
/// std::format, which libstdc++ 12 does not ship).
template <class... Parts>
std::string concat(const Parts&... parts) {
  std::ostringstream os;
  concat_into(os, parts...);
  return os.str();
}

}  // namespace detail

/// Checks a user-facing precondition; throws E with the concatenated
/// message parts when the condition does not hold.
template <class E = Error, class... Parts>
void ensure(bool condition, const Parts&... message_parts) {
  if (!condition) {
    throw E(detail::concat(message_parts...));
  }
}

/// Dimension-specific convenience wrapper around ensure<DimensionError>.
template <class... Parts>
void ensure_dim(bool condition, const Parts&... message_parts) {
  ensure<DimensionError>(condition, message_parts...);
}

}  // namespace cacqr
