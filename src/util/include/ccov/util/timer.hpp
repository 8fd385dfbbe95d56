#pragma once
/// \file timer.hpp
/// Monotonic wall-clock stopwatch for coarse measurements in table harnesses
/// (google-benchmark is used for the statistically careful measurements),
/// plus the cooperative-interruption primitives the serve stack threads
/// into the solver hot loop and the heuristics' step loops: a
/// steady_clock Deadline, an atomic CancelToken, and the Interrupt that
/// polls both between steps.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>

namespace ccov::util {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }
  double micros() const { return seconds() * 1e6; }

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

  /// Milliseconds until expiry (<= 0 when expired). Meaningless on an
  /// unset deadline; callers check set() first.
  std::int64_t remaining_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(at_ -
                                                                 clock::now())
        .count();
  }

 private:
  clock::time_point at_{};
  bool set_ = false;
};

/// One-way cancellation flag, safe to set from a signal handler (the
/// store is a lock-free atomic). The solver polls it every few
/// thousand nodes; serve installs one per server so SIGTERM bounds
/// shutdown latency regardless of how deep a search is.
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

  /// Tests re-arm a shared token between cases; production never does.
  void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Thrown by Interrupt::poll: the work stopped before it finished.
struct Interrupted : std::exception {
  explicit Interrupted(bool by_cancel) : cancelled(by_cancel) {}
  const char* what() const noexcept override { return "interrupted"; }
  bool cancelled;  ///< the token fired; otherwise the deadline passed
};

/// When a step-wise loop (the greedy heuristics) must give up: a
/// deadline, a cancel token, or both. Default-constructed never fires,
/// and then a poll costs two branches and no clock read.
struct Interrupt {
  Deadline deadline;
  const CancelToken* cancel = nullptr;

  /// Throws Interrupted once the token fired or the deadline passed.
  void poll() const {
    if (cancel != nullptr && cancel->cancelled()) throw Interrupted(true);
    if (deadline.expired()) throw Interrupted(false);
  }
};

}  // namespace ccov::util
