#pragma once
/// \file trace.hpp
/// In-memory spans recorded by the benchmark around its own calls into
/// each layer's public functions. A span holds its layer, a sub-kind
/// tag, start, end, parent and request id; spans stay in memory until
/// the run ends. A span's self time is its duration minus the time its
/// direct children cover.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kRequest,    ///< one input line end to end (benchmark glue)
  kFrame,      ///< engine.serve   LineReader::next
  kParse,      ///< engine.serve   parse_serve_line
  kVerb,       ///< engine.serve   a control verb's handler
  kKey,        ///< engine.cache   canonical_request_key
  kProbe,      ///< engine.cache   CoverCache::visit / lookup
  kCopy,       ///< benchmark glue: copying a visited entry out
  kEngineRun,  ///< engine.engine  the miss path of Engine::run
  kSolver,     ///< covering.solver solve_with_budget[_parallel]
  kGreedy,     ///< covering.greedy greedy_cover[_demand]
  kConstruct,  ///< covering.construct build_optimal_cover
  kAlgo,       ///< any other registered algorithm
  kValidate,   ///< covering.cover validate_cover[_against]
  kInsert,     ///< engine.cache   CoverCache::insert
  kRender,     ///< engine.serve   serve_response_line / serve_error_line
  kBatch,      ///< engine.batch   BatchRunner::run
  kCount,
};

const char* layer_name(Layer l);

/// True for spans that time the program; false for benchmark glue.
bool is_program_layer(Layer l);

struct Span {
  Layer layer = Layer::kRequest;
  std::uint8_t tag = 0;     ///< sub-kind (see Tag)
  std::int32_t parent = -1;
  std::uint32_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Sub-kind tags; which apply depends on the layer.
enum Tag : std::uint8_t {
  kTagNone = 0,
  kTagShort,     ///< parse: line without a demand
  kTagDemand,    ///< parse: line with a demand
  kTagIdentity,  ///< key/probe: identity D_n frame (visit path)
  kTagDihedral,  ///< key/probe: non-identity frame (lookup remap path)
  kTagConstruct,
  kTagGreedy,
  kTagSolve,
  kTagSolveParallel,
  kTagOther,
};

class Tracer {
 public:
  /// A disabled tracer records nothing (the untraced baseline).
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Open a span under the innermost open one; -1 when disabled.
  int begin(Layer layer, std::uint8_t tag, std::uint32_t request);
  void end(int span);
  void set_tag(int span, std::uint8_t tag) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].tag = tag;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span, index-aligned with spans().
  std::vector<std::int64_t> self_ns() const;

  /// Chrome trace-event JSON (load in Perfetto or chrome://tracing).
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, Layer layer, std::uint32_t request,
        std::uint8_t tag = kTagNone)
      : t_(t), span_(t.begin(layer, tag, request)) {}
  ~Scope() { t_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void tag(std::uint8_t tag) { t_.set_tag(span_, tag); }

 private:
  Tracer& t_;
  int span_;
};

}  // namespace perfbench
