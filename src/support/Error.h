//===- support/Error.h - Error and Expected<T> ------------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight recoverable-error plumbing. The RichWasm libraries never
/// throw; fallible operations return Expected<T> (a value or an Error) and
/// callers must inspect the result. Type errors carry a human-readable
/// message in the LLVM diagnostic style (lowercase first word, no trailing
/// period).
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_SUPPORT_ERROR_H
#define RICHWASM_SUPPORT_ERROR_H

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace rw {

/// A recoverable error: a message plus an optional source context note.
class Error {
public:
  Error() = default;
  explicit Error(std::string Msg) : Msg(std::move(Msg)) {}

  const std::string &message() const { return Msg; }

  /// Prefixes \p Context to the message, for adding scope as errors
  /// propagate outward ("in function f: ...").
  Error &addContext(const std::string &Context) {
    Msg = Context + ": " + Msg;
    return *this;
  }

private:
  std::string Msg;
};

/// Either a value of type T or an Error. Must be checked before use.
template <typename T> class Expected {
public:
  Expected(T Val) : Val(std::move(Val)) {}
  Expected(Error E) : Err(std::move(E)) {}

  explicit operator bool() const { return Val.has_value(); }

  T &operator*() {
    assert(Val && "dereferencing an Expected in error state");
    return *Val;
  }
  const T &operator*() const {
    assert(Val && "dereferencing an Expected in error state");
    return *Val;
  }
  T *operator->() {
    assert(Val && "dereferencing an Expected in error state");
    return &*Val;
  }
  const T *operator->() const {
    assert(Val && "dereferencing an Expected in error state");
    return &*Val;
  }

  T &get() { return **this; }
  const T &get() const { return **this; }

  Error &error() {
    assert(!Val && "no error in Expected holding a value");
    return Err;
  }
  const Error &error() const {
    assert(!Val && "no error in Expected holding a value");
    return Err;
  }

  /// Takes the value out of a successful Expected.
  T take() {
    assert(Val && "taking from an Expected in error state");
    return std::move(*Val);
  }

private:
  std::optional<T> Val;
  Error Err;
};

/// Result of an operation with no payload: success or an Error.
class Status {
public:
  Status() = default;
  Status(Error E) : Err(std::move(E)) {}

  static Status success() { return Status(); }

  explicit operator bool() const { return !Err.has_value(); }
  bool ok() const { return !Err.has_value(); }

  Error &error() {
    assert(Err && "no error in successful Status");
    return *Err;
  }
  const Error &error() const {
    assert(Err && "no error in successful Status");
    return *Err;
  }

private:
  std::optional<Error> Err;
};

} // namespace rw

#endif // RICHWASM_SUPPORT_ERROR_H
