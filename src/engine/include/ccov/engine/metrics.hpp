#pragma once
/// \file metrics.hpp
/// Live observability for the engine: a registry of named counters and
/// gauges rendered in Prometheus text exposition format (served by
/// `GET /metrics` on the HTTP front end and by the `metrics` serve
/// verb). Two kinds of series coexist:
///
///  - *owned* atomics (Counter/Gauge), handed out by stable reference so
///    hot paths update them with one relaxed atomic op and no lookup;
///  - *callback* series that read state another subsystem already tracks
///    (the CoverCache's hit/miss/eviction atomics, its size/capacity) at
///    scrape time, so no counter is maintained twice.
///
/// The Engine owns one MetricsRegistry and wires the cache series in its
/// constructor; serve sessions (stdio, TCP, HTTP alike) and the solver
/// path update the owned series, so every transport feeds one registry.
/// Updates are wait-free; registration and rendering take a mutex.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ccov/util/thread_annotations.hpp"

namespace ccov::engine {

/// Monotonically increasing event count (Prometheus "counter").
class Counter {
 public:
  void add(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level that can move both ways (Prometheus "gauge").
class Gauge {
 public:
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Name -> metric map with Prometheus text rendering. Metric names must
/// match [a-zA-Z_][a-zA-Z0-9_]* (the registry rejects anything else);
/// registration is get-or-create, so independent subsystems can resolve
/// the same series by name. References returned by counter()/gauge()
/// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  /// Get or create an owned counter. Throws std::invalid_argument on a
  /// malformed name or when the name is already registered with a
  /// different kind.
  Counter& counter(const std::string& name, const std::string& help);

  /// Get or create an owned gauge.
  Gauge& gauge(const std::string& name, const std::string& help);

  /// Register a callback-backed counter: `fn` is invoked at render time
  /// and must be monotone non-decreasing (it reads an existing atomic,
  /// e.g. CoverCache hit counts). Throws on duplicate names.
  void counter_fn(const std::string& name, const std::string& help,
                  std::function<std::uint64_t()> fn);

  /// Register a callback-backed gauge (size/capacity style snapshots).
  void gauge_fn(const std::string& name, const std::string& help,
                std::function<std::int64_t()> fn);

  /// Render every series in Prometheus text exposition format, sorted by
  /// name: "# HELP", "# TYPE", then "name value", one sample per series.
  std::string render_prometheus() const;

  /// Current value of a series by name (callbacks are invoked); -1 when
  /// the name is unknown. Convenience for tests and the `metrics` verb.
  std::int64_t value(const std::string& name) const;

  /// Every (name, current value) pair sorted by name — the `metrics`
  /// serve verb's JSON payload.
  std::vector<std::pair<std::string, std::int64_t>> snapshot() const;

 private:
  struct Metric {
    enum class Kind { kCounter, kGauge } kind = Kind::kCounter;
    std::string help;
    std::unique_ptr<Counter> counter;        ///< owned counter storage
    std::unique_ptr<Gauge> gauge;            ///< owned gauge storage
    std::function<std::uint64_t()> read_u64; ///< callback counter
    std::function<std::int64_t()> read_i64;  ///< callback gauge
  };

  static void check_name(const std::string& name);
  static std::int64_t current_value(const Metric& m);

  mutable util::Mutex mu_;
  /// sorted = render order
  std::map<std::string, Metric> metrics_ CCOV_GUARDED_BY(mu_);
};

}  // namespace ccov::engine
