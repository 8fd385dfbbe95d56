#include "replay.hpp"

#include <algorithm>
#include <cstring>
#include <exception>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/covering/cover.hpp"
#include "ccov/covering/greedy.hpp"
#include "ccov/covering/solver.hpp"
#include "ccov/engine/batch.hpp"
#include "ccov/engine/cache.hpp"

namespace perfbench {

namespace eng = ccov::engine;
namespace cov = ccov::covering;

void spin_ns(std::int64_t ns) {
  if (ns <= 0) return;
  const std::int64_t until = Tracer::now_ns() + ns;
  while (Tracer::now_ns() < until) {
  }
}

std::ptrdiff_t MemoryStream::read_some(char* buf, std::size_t n) {
  if (line_ >= lines_.size() || n == 0) return 0;
  if (off_ == 0) {
    handed_ns_.push_back(Tracer::now_ns());
    spin_ns(delay_ns_);
  }
  const std::string& l = lines_[line_];
  const std::size_t left = l.size() + 1 - off_;  // + the newline
  const std::size_t take = std::min(n, left);
  const std::size_t from_line = std::min(take, l.size() - std::min(off_, l.size()));
  std::memcpy(buf, l.data() + off_, from_line);
  if (from_line < take) buf[from_line] = '\n';
  off_ += take;
  if (off_ == l.size() + 1) {
    ++line_;
    off_ = 0;
  }
  return static_cast<std::ptrdiff_t>(take);
}

bool MemoryStream::write_all(const char* data, std::size_t n) {
  out_.append(data, n);
  const std::int64_t now = Tracer::now_ns();
  for (std::size_t i = 0; i < n; ++i)
    if (data[i] == '\n') answered_ns_.push_back(now);
  return true;
}

std::vector<double> MemoryStream::line_us() const {
  std::vector<double> us;
  for (std::size_t i = 0; i < handed_ns_.size() && i < answered_ns_.size(); ++i)
    us.push_back(static_cast<double>(answered_ns_[i] - handed_ns_[i]) * 1e-3);
  return us;
}

std::vector<std::string> MemoryStream::output_lines() const {
  std::vector<std::string> lines;
  std::size_t start = 0, nl;
  while ((nl = out_.find('\n', start)) != std::string::npos) {
    lines.push_back(out_.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::int64_t metric(const MetricsSnapshot& s, const std::string& name) {
  for (const auto& [k, v] : s)
    if (k == name) return v;
  return 0;
}

SessionResult reference_session(eng::Engine& engine,
                                const eng::ServeConfig& config,
                                const std::vector<std::string>& warm,
                                const std::vector<std::string>& lines,
                                std::int64_t delay_ns) {
  SessionResult r;
  {
    MemoryStream io(warm, 0);
    eng::serve_session(io, engine, config);
    r.warm_out = io.output_lines();
  }
  r.before = engine.metrics().snapshot();
  MemoryStream io(lines, delay_ns);
  const std::int64_t t0 = Tracer::now_ns();
  eng::serve_session(io, engine, config);
  r.seconds = static_cast<double>(Tracer::now_ns() - t0) * 1e-9;
  r.after = engine.metrics().snapshot();
  r.out = io.output_lines();
  r.line_us = io.line_us();
  return r;
}

namespace {

std::uint8_t algo_tag(const eng::CoverRequest& req) {
  if (req.algorithm == "construct") return kTagConstruct;
  if (req.algorithm == "greedy") return kTagGreedy;
  if (req.algorithm == "solve") return kTagSolve;
  if (req.algorithm == "solve-parallel") return kTagSolveParallel;
  return kTagOther;
}

/// The algorithm call Engine::run makes on a miss, made directly into
/// the covering layer for the shapes the workloads send, and through the
/// registry for anything else. Throws what the algorithm throws.
eng::AlgorithmOutcome run_algorithm(const eng::Algorithm& algo,
                                    const eng::CoverRequest& req,
                                    Tracer& tracer, std::uint32_t request,
                                    std::int64_t* solver_ns) {
  const bool plain = req.demand.empty() && req.lambda == 1;
  const std::uint64_t budget = req.budget ? req.budget : cov::rho(req.n);
  const auto solved = [](cov::SolverResult r) {
    eng::AlgorithmOutcome out{std::move(r.cover), r.found, r.exhausted,
                              r.nodes};
    out.timed_out = r.timed_out;
    out.cancelled = r.cancelled;
    return out;
  };
  if (plain && req.algorithm == "solve") {
    Scope s(tracer, Layer::kSolver, request, kTagSolve);
    const std::int64_t t0 = Tracer::now_ns();
    auto out = solved(cov::solve_with_budget(req.n, budget, req.solver));
    *solver_ns = Tracer::now_ns() - t0;
    return out;
  }
  if (plain && req.algorithm == "solve-parallel") {
    Scope s(tracer, Layer::kSolver, request, kTagSolveParallel);
    const std::int64_t t0 = Tracer::now_ns();
    auto out = solved(cov::solve_with_budget_parallel(req.n, budget,
                                                      req.solver, req.threads));
    *solver_ns = Tracer::now_ns() - t0;
    return out;
  }
  if (plain && req.algorithm == "construct") {
    Scope s(tracer, Layer::kConstruct, request);
    return eng::AlgorithmOutcome{cov::build_optimal_cover(req.n)};
  }
  if (req.lambda == 1 && req.algorithm == "greedy") {
    Scope s(tracer, Layer::kGreedy, request);
    if (req.demand.empty())
      return eng::AlgorithmOutcome{cov::greedy_cover(req.n)};
    return eng::AlgorithmOutcome{cov::greedy_cover_demand(
        req.n, eng::demand_graph(req.n, req.demand))};
  }
  Scope s(tracer, Layer::kAlgo, request);
  return algo.run(req);
}

}  // namespace

std::vector<ReplayLine> replay_layers(eng::Engine& engine,
                                      const eng::ServeConfig& config,
                                      const std::vector<std::string>& lines,
                                      std::uint32_t first_request,
                                      Tracer& tracer, std::int64_t delay_ns) {
  std::vector<ReplayLine> out;
  out.reserve(lines.size());
  MemoryStream io(lines, delay_ns);
  eng::LineReader reader(io, config.max_line_bytes);
  std::string line, error;
  std::uint64_t id = 0;
  for (std::uint32_t request = first_request;; ++request) {
    Scope whole(tracer, Layer::kRequest, request);
    eng::LineReader::Result framed;
    {
      Scope s(tracer, Layer::kFrame, request);
      framed = reader.next(&line);
    }
    if (framed == eng::LineReader::Result::kEof) break;
    ReplayLine rl;
    eng::ServeCommand cmd;
    bool parsed = false;
    {
      Scope s(tracer, Layer::kParse, request,
              line.find("\"demand\"") == std::string::npos ? kTagShort
                                                           : kTagDemand);
      parsed = framed == eng::LineReader::Result::kLine &&
               eng::parse_serve_line(line, &cmd, &error);
    }
    if (!parsed) {
      if (framed != eng::LineReader::Result::kLine)
        error = "line exceeds max line length (" +
                std::to_string(config.max_line_bytes) + " bytes)";
      Scope s(tracer, Layer::kRender, request);
      rl.response = eng::serve_error_line(id++, "parse: " + error);
      out.push_back(std::move(rl));
      continue;
    }
    if (!cmd.is_request()) {
      Scope s(tracer, Layer::kVerb, request);
      rl.response = cmd.verb->run({id++, engine, config});
      out.push_back(std::move(rl));
      continue;
    }

    const eng::CoverRequest& req = cmd.req;
    eng::CoverResponse resp;
    resp.algorithm = req.algorithm;
    resp.n = req.n;
    const eng::Algorithm* algo = engine.registry().find(req.algorithm);
    if (!algo) {
      resp.error = "unknown algorithm '" + req.algorithm + "'";
    } else if (req.n < 3) {
      resp.error = "n must be >= 3";
    } else {
      eng::CanonicalKey ck;
      bool hit = false;
      if (algo->cacheable) {
        {
          Scope s(tracer, Layer::kKey, request);
          ck = eng::canonical_request_key(req);
          s.tag(!ck.to_canonical.reflect && ck.to_canonical.shift % req.n == 0
                    ? kTagIdentity
                    : kTagDihedral);
        }
        if (!ck.to_canonical.reflect && ck.to_canonical.shift % req.n == 0) {
          // serve_session's zero-copy path: the entry is rendered while
          // visited; the copy the replay makes to render it is its own.
          Scope s(tracer, Layer::kProbe, request, kTagIdentity);
          hit = engine.cache().visit(
              ck, [&](const eng::CoverResponse& entry, std::uint64_t) {
                Scope c(tracer, Layer::kCopy, request);
                resp = entry;
                resp.cache_hit = true;
                resp.nodes = 0;
              });
        } else {
          Scope s(tracer, Layer::kProbe, request, kTagDihedral);
          if (auto r = engine.cache().lookup(ck)) {
            resp = *std::move(r);
            hit = true;
          }
        }
      }
      if (!hit) {
        Scope run(tracer, Layer::kEngineRun, request, algo_tag(req));
        try {
          eng::AlgorithmOutcome o =
              run_algorithm(*algo, req, tracer, request, &rl.solver_ns);
          resp.ok = true;
          resp.found = o.found;
          resp.exhausted = o.exhausted;
          resp.timed_out = o.timed_out || o.cancelled;
          resp.nodes = o.nodes;
          resp.cover = std::move(o.cover);
          rl.nodes = o.nodes;
        } catch (const std::exception& e) {
          resp.error = e.what();
        }
        if (resp.ok && req.validate && resp.found) {
          Scope s(tracer, Layer::kValidate, request);
          resp.validated = true;
          if (algo->validate)
            resp.valid = algo->validate(req, resp.cover);
          else if (req.demand.empty())
            resp.valid = cov::validate_cover(resp.cover).ok;
          else
            resp.valid = cov::validate_cover_against(
                             resp.cover, eng::demand_graph(req.n, req.demand))
                             .ok;
        }
        if (resp.ok && algo->cacheable) {
          Scope s(tracer, Layer::kInsert, request);
          engine.cache().insert(ck, resp);
        }
      }
    }
    Scope s(tracer, Layer::kRender, request);
    rl.response = eng::serve_response_line(id++, resp);
    out.push_back(std::move(rl));
  }
  return out;
}

BatchReplay replay_batches(eng::Engine& engine,
                           const std::vector<std::string>& lines,
                           std::size_t batch, std::size_t jobs,
                           Tracer& tracer) {
  std::vector<eng::CoverRequest> requests;
  for (const std::string& l : lines) {
    eng::ServeCommand cmd;
    std::string error;
    if (eng::parse_serve_line(l, &cmd, &error) && cmd.is_request())
      requests.push_back(std::move(cmd.req));
  }
  eng::BatchRunner runner(engine, {.jobs = jobs});
  BatchReplay r;
  double busy_ms = 0, wall_ns = 0;
  std::vector<eng::CoverRequest> group;
  for (std::size_t i = 0; i < requests.size(); i += batch) {
    group.assign(requests.begin() + static_cast<std::ptrdiff_t>(i),
                 requests.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(i + batch, requests.size())));
    Scope s(tracer, Layer::kBatch, static_cast<std::uint32_t>(r.batches));
    const std::int64_t t0 = Tracer::now_ns();
    const std::vector<eng::CoverResponse> resps = runner.run(group);
    wall_ns += static_cast<double>(Tracer::now_ns() - t0);
    for (const eng::CoverResponse& resp : resps) busy_ms += resp.elapsed_ms;
    ++r.batches;
  }
  if (r.batches) {
    r.run_us = wall_ns / 1e3 / static_cast<double>(r.batches);
    r.efficiency = busy_ms * 1e6 / (static_cast<double>(jobs) * wall_ns);
  }
  return r;
}

}  // namespace perfbench
