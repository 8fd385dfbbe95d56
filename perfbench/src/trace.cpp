#include "trace.hpp"

#include <fstream>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kRequest: return "request";
    case Layer::kFrame: return "serve.frame";
    case Layer::kParse: return "serve.parse";
    case Layer::kVerb: return "serve.verb";
    case Layer::kKey: return "cache.key";
    case Layer::kProbe: return "cache.probe";
    case Layer::kCopy: return "bench.copy";
    case Layer::kEngineRun: return "engine.run";
    case Layer::kSolver: return "solver";
    case Layer::kGreedy: return "greedy";
    case Layer::kConstruct: return "construct";
    case Layer::kAlgo: return "algorithm";
    case Layer::kValidate: return "validate";
    case Layer::kInsert: return "cache.insert";
    case Layer::kRender: return "serve.render";
    case Layer::kBatch: return "batch.run";
    case Layer::kCount: break;
  }
  return "?";
}

bool is_program_layer(Layer l) {
  return l != Layer::kRequest && l != Layer::kCopy && l != Layer::kCount;
}

int Tracer::begin(Layer layer, std::uint8_t tag, std::uint32_t request) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.tag = tag;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int idx = static_cast<int>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  // Spans close in LIFO order (Scope is RAII).
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << layer_name(s.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - t0) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"tag\":" << int{s.tag} << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
