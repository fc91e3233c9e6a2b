#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace smartflux {

/// Base exception for all contract violations and unrecoverable conditions
/// raised by the SmartFlux libraries. Carries a human-readable message that
/// always includes the failing component.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a caller violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Raised when a lookup (table, step, container) does not resolve.
class NotFound : public Error {
 public:
  explicit NotFound(const std::string& what) : Error(what) {}
};

/// Raised when an operation is attempted in the wrong engine phase
/// (e.g. querying the predictor before a model has been trained).
class StateError : public Error {
 public:
  explicit StateError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_check_failure(std::string_view cond, std::string_view file, int line,
                                      std::string_view msg);
}  // namespace detail

}  // namespace smartflux

/// Precondition check: throws smartflux::InvalidArgument when `cond` is false.
#define SF_CHECK(cond, msg)                                                  \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::smartflux::detail::throw_check_failure(#cond, __FILE__, __LINE__, (msg)); \
    }                                                                        \
  } while (false)
