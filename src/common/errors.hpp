#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

/// \file errors.hpp
/// The typed error taxonomy of the library. Every failure a caller might
/// want to *handle* (rather than just report) derives from `Error`, which
/// itself derives `std::runtime_error` so existing catch sites and tests
/// keep working unchanged.
///
/// The one bit that matters operationally is `retryable()`:
///
///  * **retryable** — a transient operational condition (device OOM, a
///    failed launch, a full queue, a missed deadline). Retrying the same
///    work, possibly after freeing resources or on a degraded backend, has
///    a real chance of succeeding. The serving layer's recovery policies
///    (OperatorCache build retry/backoff, coalescer CPU-degrade retry) key
///    off this.
///  * **not retryable** — a deterministic property of the inputs
///    (`NumericalError`: the matrix is not numerically SPD;
///    `InvalidArgumentError`: the input breaks an entry point's contract).
///    Re-running the identical computation reproduces the failure; recovery
///    needs to *change* something (ulv_factor's escalating ridge bump, a
///    corrected input) or give up.

namespace h2sketch {

/// Base of the taxonomy. `retryable()` distinguishes transient operational
/// failures from deterministic ones.
class Error : public std::runtime_error {
 public:
  Error(const std::string& what, bool retryable)
      : std::runtime_error(what), retryable_(retryable) {}
  bool retryable() const { return retryable_; }

 private:
  bool retryable_;
};

/// A device allocation failed (the cudaErrorMemoryAllocation analogue).
/// Carries the requested byte count so a cache can evict at least that much
/// before retrying. Retryable: freeing device memory may make it succeed.
class DeviceOomError : public Error {
 public:
  explicit DeviceOomError(const std::string& what, std::size_t requested_bytes = 0)
      : Error(what, /*retryable=*/true), requested_bytes_(requested_bytes) {}
  std::size_t requested_bytes() const { return requested_bytes_; }

 private:
  std::size_t requested_bytes_;
};

/// A kernel launch or an explicit device copy failed (the cudaErrorLaunch*
/// analogue). Retryable: launch failures on real devices are routinely
/// transient, and a degraded (CPU) backend can re-run the same batch.
class LaunchError : public Error {
 public:
  explicit LaunchError(const std::string& what) : Error(what, /*retryable=*/true) {}
};

/// The computation is numerically invalid for the given inputs — e.g. a
/// non-positive Cholesky pivot on a matrix that is not numerically SPD.
/// Not retryable: the identical computation fails the identical way.
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what, /*retryable=*/false) {}
};

/// An input breaks the contract of a public entry point: a tolerance that is
/// not finite and positive, a non-finite coordinate, an unknown kernel name.
/// Not retryable: the same input is rejected the same way.
class InvalidArgumentError : public Error {
 public:
  explicit InvalidArgumentError(const std::string& what) : Error(what, /*retryable=*/false) {}
};

/// A bounded admission queue rejected a request. Carries the queue depth at
/// rejection time and the configured capacity. Retryable: load drains.
class QueueFullError : public Error {
 public:
  QueueFullError(const std::string& what, std::size_t depth, std::size_t capacity)
      : Error(what, /*retryable=*/true), depth_(depth), capacity_(capacity) {}
  std::size_t depth() const { return depth_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t depth_;
  std::size_t capacity_;
};

/// A request waited past its deadline without being dispatched. Carries the
/// observed wait. Retryable: the caller may resubmit under a fresh deadline.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what, double waited_seconds = 0.0)
      : Error(what, /*retryable=*/true), waited_seconds_(waited_seconds) {}
  double waited_seconds() const { return waited_seconds_; }

 private:
  double waited_seconds_;
};

} // namespace h2sketch
