#pragma once
/// \file replay.hpp
/// The in-process side of the benchmark. Three ways to push the same
/// seeded lines through the library without a process boundary:
///
///  - reference_session: the shipped serve_session over an in-memory
///    stream. Its output is the byte reference every transport is
///    compared against, and its wall time is the in-process cost the
///    transport overhead is measured from.
///  - replay_layers: the path serve_session takes for one request at a
///    time, replayed as individual calls into each layer's public
///    functions (framing, parse, canonical key, cache probe, algorithm,
///    validation, insert, render) with a span around every call.
///  - replay_batches: BatchRunner::run over the same requests in
///    batches, timing each batch.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/serve.hpp"
#include "trace.hpp"

namespace perfbench {

/// Busy-wait `ns` nanoseconds (the self-check's injected delay).
void spin_ns(std::int64_t ns);

/// ServeStream over in-memory lines. Each read_some hands over at most
/// one line, as a closed-loop client's socket would, after an optional
/// fixed delay; writes are collected. It stamps when each line is
/// handed over and when each response line is written, which gives the
/// in-process latency of every line of an interactive session.
class MemoryStream final : public ccov::engine::ServeStream {
 public:
  MemoryStream(const std::vector<std::string>& lines, std::int64_t delay_ns)
      : lines_(lines), delay_ns_(delay_ns) {}

  std::ptrdiff_t read_some(char* buf, std::size_t n) override;
  bool write_all(const char* data, std::size_t n) override;

  /// The collected output split into lines (newlines dropped).
  std::vector<std::string> output_lines() const;

  /// Per line: from handing it over to its response being written, in
  /// microseconds. Meaningful when every line gets its own flush.
  std::vector<double> line_us() const;

 private:
  const std::vector<std::string>& lines_;
  std::int64_t delay_ns_;
  std::size_t line_ = 0;
  std::size_t off_ = 0;
  std::string out_;
  std::vector<std::int64_t> handed_ns_;
  std::vector<std::int64_t> answered_ns_;
};

using MetricsSnapshot = std::vector<std::pair<std::string, std::int64_t>>;
std::int64_t metric(const MetricsSnapshot& s, const std::string& name);

struct SessionResult {
  std::vector<std::string> warm_out;
  std::vector<std::string> out;
  double seconds = 0;  ///< wall time of the measured session only
  std::vector<double> line_us;  ///< see MemoryStream::line_us
  MetricsSnapshot before;
  MetricsSnapshot after;
};

/// One serve_session over `warm` (untimed), then a timed second session
/// over `lines`, both on `engine`.
SessionResult reference_session(ccov::engine::Engine& engine,
                                const ccov::engine::ServeConfig& config,
                                const std::vector<std::string>& warm,
                                const std::vector<std::string>& lines,
                                std::int64_t delay_ns);

struct ReplayLine {
  std::string response;
  std::uint64_t nodes = 0;  ///< solver nodes when it searched
  std::int64_t solver_ns = 0;
};

/// Replay `lines` one request at a time through the layers' public
/// functions on `engine`, recording spans (request ids from
/// first_request). Response ids start at 0, as in a fresh session.
std::vector<ReplayLine> replay_layers(ccov::engine::Engine& engine,
                                      const ccov::engine::ServeConfig& config,
                                      const std::vector<std::string>& lines,
                                      std::uint32_t first_request,
                                      Tracer& tracer, std::int64_t delay_ns);

struct BatchReplay {
  std::size_t batches = 0;
  double run_us = 0;      ///< mean BatchRunner::run wall time per batch
  double efficiency = 0;  ///< sum of request run time / (jobs x batch wall)
};

/// The compute requests among `lines`, through BatchRunner::run in
/// groups of `batch` with `jobs` workers.
BatchReplay replay_batches(ccov::engine::Engine& engine,
                           const std::vector<std::string>& lines,
                           std::size_t batch, std::size_t jobs,
                           Tracer& tracer);

}  // namespace perfbench
