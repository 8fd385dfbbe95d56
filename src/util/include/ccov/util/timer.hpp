#pragma once
/// \file timer.hpp
/// Monotonic wall-clock stopwatch for coarse measurements in table harnesses
/// (google-benchmark is used for the statistically careful measurements),
/// plus the cooperative-interruption primitives every algorithm checks
/// between steps: a steady_clock Deadline, an atomic CancelToken, and the
/// Interrupt that bundles both into one stop condition.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>

namespace ccov::util {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Elapsed seconds since construction.
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Wall-clock budget for one piece of work. Default-constructed is
/// "unset": never expires, costs one bool test to check. Copyable —
/// a deadline is a value, fixed at the moment the work was accepted
/// (queue wait counts against it, which is what makes load shedding
/// possible downstream).
class Deadline {
 public:
  using clock = std::chrono::steady_clock;

  Deadline() = default;

  /// A deadline `ms` milliseconds from now. ms <= 0 yields an unset
  /// deadline (the protocol's deadline_ms=0 means "no deadline").
  static Deadline after_ms(std::int64_t ms) {
    Deadline d;
    if (ms > 0) {
      d.at_ = clock::now() + std::chrono::milliseconds(ms);
      d.set_ = true;
    }
    return d;
  }

  bool set() const { return set_; }

  /// True when a set deadline has passed; an unset deadline never
  /// expires. The clock read happens only when set.
  bool expired() const { return set_ && clock::now() >= at_; }

 private:
  clock::time_point at_{};
  bool set_ = false;
};

/// One-way cancellation flag, safe to set from a signal handler (the
/// store is a lock-free atomic). Every algorithm checks it through an
/// Interrupt; serve installs one per server so SIGTERM bounds shutdown
/// latency regardless of what a request is computing.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Async-signal-safe.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Thrown by Interrupt::poll: the work stopped before it finished.
/// Engine::compute turns it into the timed-out or cancelled answer.
struct Interrupted : std::exception {
  explicit Interrupted(bool by_cancel) : cancelled(by_cancel) {}
  const char* what() const noexcept override { return "interrupted"; }
  bool cancelled;  ///< the token fired; otherwise the deadline passed
};

/// When a piece of work must give up: a deadline, a cancel token, or
/// both. One travels with every request to whichever algorithm runs it.
/// Default-constructed never fires, and then a check costs two branches
/// and no clock read.
struct Interrupt {
  Deadline deadline;
  const CancelToken* cancel = nullptr;

  bool cancelled() const noexcept {
    return cancel != nullptr && cancel->cancelled();
  }

  /// True once the token fired or the deadline passed; for loops that
  /// report a stop in their result instead of throwing (the solver).
  bool fired() const { return cancelled() || deadline.expired(); }

  /// Throws Interrupted once fired().
  void poll() const {
    if (cancelled()) throw Interrupted(true);
    if (deadline.expired()) throw Interrupted(false);
  }
};

}  // namespace ccov::util
