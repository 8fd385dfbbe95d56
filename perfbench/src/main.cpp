// perfbench — the repository benchmark. Drives the shipped `ccov serve`
// binary over its real transports with seeded request streams, checks
// every response against an in-process reference, and prints one JSON
// result line. With --trace 1 it instead replays the same streams
// in-process, call by call into each layer, and reports per-layer
// metrics derived from spans. See perfbench/README.md.
//
//   perfbench --ccov PATH --workload hit_mix|solve_cold|batch_churn
//             --seed N --seconds S --trace 0|1
//             [--report FILE] [--trace-out FILE]
//   perfbench --ccov PATH --self-check [--seed N]
//   perfbench --dump-streams --workload W --seed N
//   perfbench --describe

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "ccov/covering/cover.hpp"
#include "ccov/engine/request.hpp"
#include "ccov/util/cli.hpp"
#include "ccov/util/json.hpp"
#include "replay.hpp"
#include "streams.hpp"
#include "trace.hpp"
#include "wire.hpp"

namespace eng = ccov::engine;
namespace json = ccov::util::json;
using namespace perfbench;

namespace {

// ---------------------------------------------------------------------------
// Options, result and failure accounting
// ---------------------------------------------------------------------------

struct Options {
  std::string ccov;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string report;
  std::string trace_out;
  bool dump = false;
  bool describe = false;
  bool self_check = false;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;  ///< sample counts, node counts, ...

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    ++failed;
    if (failed <= 20) std::cerr << "FAIL: " << why << "\n";
  }
  void note(const std::string& s) {
    notes.push_back(s);
    std::cerr << s << "\n";
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Nearest-rank percentile of `v` (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// The fastest of repeated timings of one deterministic piece of work
/// (a fixed search, a fixed stream). This host's vCPUs alternate, for
/// seconds at a time, between a fast state and one about 1.5x slower
/// for memory-bound work, and the share of slow time differs from run
/// to run, so a median flips between the two. The work itself never
/// varies, so everything above the fastest repetition is interference.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double now_s() { return static_cast<double>(Tracer::now_ns()) * 1e-9; }

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Split `{"id":N,...` into N and the id-free tail (from the comma on).
bool split_id(const std::string& resp, std::uint64_t* id,
              std::string_view* tail) {
  constexpr std::string_view kPrefix = "{\"id\":";
  if (resp.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  const std::size_t comma = resp.find(',', kPrefix.size());
  if (comma == std::string::npos) return false;
  *id = std::strtoull(resp.c_str() + kPrefix.size(), nullptr, 10);
  *tail = std::string_view(resp).substr(comma);
  return true;
}

std::uint64_t tail_hash(const std::string& resp) {
  std::uint64_t id = 0;
  std::string_view tail;
  return split_id(resp, &id, &tail) ? fnv1a(tail) : fnv1a(resp);
}

bool is_metrics_verb(const std::string& line) {
  return line == R"({"op":"metrics"})";
}

/// The metrics verb's payload reports transport-specific counters
/// (bytes, sessions, HTTP requests), so it is checked for shape only;
/// kShapeOk stands in for its hash when the shape is right.
constexpr std::uint64_t kShapeOk = 1;
bool metrics_shape_ok(const std::string& resp) {
  std::uint64_t id = 0;
  std::string_view tail;
  return split_id(resp, &id, &tail) &&
         tail.substr(0, 38) == R"(,"op":"metrics","ok":true,"metrics":{")";
}

// ---------------------------------------------------------------------------
// Cover re-validation
// ---------------------------------------------------------------------------

const json::Value* field(const json::Value& obj, const std::string& key) {
  for (const auto& [k, v] : obj.object)
    if (k == key) return &v;
  return nullptr;
}

/// Re-validate a response's cover against its own request's demand
/// (K_n when the request has none). Responses without a cover pass.
bool cover_valid(const std::string& request, const std::string& response,
                 std::string* why) {
  eng::ServeCommand cmd;
  std::string error;
  if (!eng::parse_serve_line(request, &cmd, &error) || !cmd.is_request())
    return true;
  json::Value root;
  json::Reader reader(response);
  if (!reader.parse(&root, &error)) {
    *why = "unparseable response: " + error;
    return false;
  }
  const json::Value* found = field(root, "found");
  if (!found || !found->boolean) return true;
  const json::Value* valid = field(root, "valid");
  if (valid && !valid->boolean) {
    *why = "server reported valid:false";
    return false;
  }
  const json::Value* cover = field(root, "cover");
  if (!cover) {
    *why = "found:true without a cover";
    return false;
  }
  ccov::covering::RingCover rc;
  rc.n = cmd.req.n;
  for (const json::Value& cyc : cover->array) {
    ccov::covering::Cycle c;
    for (const json::Value& v : cyc.array)
      c.push_back(static_cast<ccov::covering::Vertex>(v.integer));
    rc.cycles.push_back(std::move(c));
  }
  const ccov::covering::ValidationReport rep =
      cmd.req.demand.empty()
          ? ccov::covering::validate_cover(rc)
          : ccov::covering::validate_cover_against(
                rc, eng::demand_graph(cmd.req.n, cmd.req.demand));
  if (!rep.ok) *why = "invalid cover: " + rep.error;
  return rep.ok;
}

/// Validates each distinct (request, response) pair once.
class CoverChecker {
 public:
  void check(const std::string& request, const std::string& response,
             Result& r) {
    std::string_view tail;
    std::uint64_t id = 0;
    if (!split_id(response, &id, &tail)) tail = response;
    const std::uint64_t key = fnv1a(request) * 31 + fnv1a(tail);
    if (!seen_.insert(key).second) return;
    std::string why;
    if (!cover_valid(request, response, &why))
      r.fail(why + " for " + request.substr(0, 80));
  }

 private:
  std::unordered_set<std::uint64_t> seen_;
};

// ---------------------------------------------------------------------------
// CPU placement
// ---------------------------------------------------------------------------

/// Closed-loop latency depends on whether client and server share a
/// core, so both are pinned: the client to the first allowed CPU, the
/// interactive servers to the second, and a server running 2-thread
/// searches to the next two (sharing the second when fewer CPUs are
/// allowed). Bulk servers stay unpinned so --jobs can use every CPU.
/// With one CPU nothing is pinned.
struct CpuPlan {
  std::vector<int> client, server, server2;
};

/// The process's CPU mask before any pinning.
const std::vector<int>& allowed_cpus_at_start() {
  static const std::vector<int> cpus = allowed_cpus();
  return cpus;
}

const CpuPlan& cpu_plan() {
  static const CpuPlan plan = [] {
    const std::vector<int>& cpus = allowed_cpus_at_start();
    CpuPlan p;
    if (cpus.size() < 2) return p;
    p.client = {cpus[0]};
    p.server = {cpus[1]};
    if (cpus.size() >= 4)
      p.server2 = {cpus[2], cpus[3]};
    else if (cpus.size() == 3)
      p.server2 = {cpus[1], cpus[2]};
    else
      p.server2 = p.server;
    return p;
  }();
  return plan;
}

// ---------------------------------------------------------------------------
// Spreading work over a run
// ---------------------------------------------------------------------------

/// A secondary activity of `steps` equal steps. run_spread interleaves
/// it evenly with the main activity, so slow stretches of a shared
/// machine fall on every activity alike instead of on whichever one
/// happened to run then.
struct Side {
  std::size_t steps = 0;
  std::function<void()> step;
  std::size_t done = 0;
};

/// Repeat `main_step` until `seconds` have passed (at least once),
/// running each side's steps as they fall due; leftovers run at the end.
void run_spread(double seconds, const std::function<void()>& main_step,
                std::vector<Side> sides) {
  const double t0 = now_s();
  for (bool first = true;; first = false) {
    const double frac = (now_s() - t0) / seconds;
    for (Side& s : sides)
      while (s.done < s.steps &&
             static_cast<double>(s.done) < frac * static_cast<double>(s.steps)) {
        s.step();
        ++s.done;
      }
    if (!first && now_s() - t0 >= seconds) break;
    main_step();
  }
  for (Side& s : sides)
    for (; s.done < s.steps; ++s.done) s.step();
}

// ---------------------------------------------------------------------------
// Interactive phase: closed loop over all four transports
// ---------------------------------------------------------------------------

// Side-activity sizes: the probe's 8000 lines per transport in 80
// windows keep 2000 samples in the fastest quarter, 20 beyond its p99.
constexpr std::size_t kProbeLines = 8000;
constexpr std::size_t kProbeChunks = 80;
// hit_mix cuts its run into this many time windows.
constexpr std::size_t kWindows = 80;
constexpr std::size_t kCanaryReps = 30;

const Transport kTransports[] = {Transport::kStdio, Transport::kTcp,
                                 Transport::kHttp, Transport::kShm};

struct TransportRun {
  Transport transport = Transport::kStdio;
  std::vector<double> rt_us;
  std::vector<std::size_t> window;  ///< time window of each sample
  std::vector<std::uint64_t> ids;
  /// Per measured line: the id-free response's hash, or for a metrics
  /// verb kShapeOk when its payload had the expected shape.
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> warm_hashes;
  double setup_s = 0;
  double rss_mb = 0;
};

/// The hit_mix stream (or its smaller probe) against one `ccov serve`
/// per transport, each warmed with every pool key. Lines go out one at
/// a time, each over every transport in turn (the first transport
/// rotates), so all four see the same lines at the same moments.
class InteractivePhase {
 public:
  InteractivePhase(const Options& o, bool probe, Result& r)
      : o_(o), r_(r), gen_(o.seed, hit_mix_params(probe)) {
    warm = gen_.warm();
    static int shm_seq = 0;
    for (const Transport t : kTransports) {
      TransportRun run;
      run.transport = t;
      const double t0 = now_s();
      Endpoint ep;
      try {
        ep = open_endpoint(o.ccov, t, {"--batch", "1", "--jobs", "1"},
                           "ccov_perfbench_" + std::to_string(::getpid()) +
                               "_" + std::to_string(shm_seq++),
                           cpu_plan().server);
        std::string resp;
        for (const std::string& w : warm) {
          ++r.attempted;
          if (!ep.client->round_trip(w, &resp))
            throw std::runtime_error("transport error during warm-up");
          run.warm_hashes.push_back(tail_hash(resp));
        }
      } catch (const std::exception& e) {
        r.fail(std::string(transport_name(t)) + ": " + e.what());
        ep.client.reset();
      }
      run.setup_s = now_s() - t0;
      runs.push_back(std::move(run));
      eps_.push_back(std::move(ep));
    }
  }

  /// Send the next `n` lines; their samples belong to time window `w`.
  void step(std::size_t n, std::size_t w) {
    std::string resp;
    for (; n > 0; --n) {
      const std::size_t i = lines.size();
      lines.push_back(gen_.next());
      for (std::size_t k = 0; k < std::size(kTransports); ++k) {
        const std::size_t t = (i + k) % std::size(kTransports);
        TransportRun& run = runs[t];
        ++r_.attempted;
        if (!eps_[t].client) {
          r_.fail(std::string(transport_name(run.transport)) +
                  ": line missing after a transport error");
          continue;
        }
        const std::int64_t s0 = Tracer::now_ns();
        spin_ns(send_delay_ns);
        const bool ok = eps_[t].client->round_trip(lines[i], &resp);
        const std::int64_t dt = Tracer::now_ns() - s0;
        if (!ok) {
          r_.fail(std::string(transport_name(run.transport)) +
                  ": transport error");
          eps_[t].client.reset();
          continue;
        }
        run.rt_us.push_back(static_cast<double>(dt) * 1e-3);
        run.window.push_back(w);
        std::uint64_t id = ~0ULL;
        std::string_view tail;
        split_id(resp, &id, &tail);
        run.ids.push_back(id);
        run.hashes.push_back(!is_metrics_verb(lines[i]) ? fnv1a(tail)
                             : metrics_shape_ok(resp)   ? kShapeOk
                                                        : 0);
      }
    }
  }

  /// Stop the servers, then replay the same warm-up and lines through an
  /// in-process serve_session and compare every transport's bytes.
  void finish() {
    for (std::size_t t = 0; t < eps_.size(); ++t) {
      if (!eps_[t].server) continue;
      runs[t].rss_mb = eps_[t].server->peak_rss_mb();
      eps_[t].client.reset();
      if (!eps_[t].server->stop())
        r_.fail(std::string(transport_name(runs[t].transport)) +
                ": server exited uncleanly");
    }
    eng::EngineOptions eo;
    eo.cache_capacity = 1 << 14;  // `ccov serve`'s default
    eng::Engine engine(eo);
    ref = reference_session(engine, eng::ServeConfig{}, warm, lines, 0);
    if (ref.warm_out.size() != warm.size() || ref.out.size() != lines.size()) {
      r_.fail("reference session produced the wrong number of lines");
      return;
    }
    const std::size_t W = warm.size();
    for (const TransportRun& run : runs) {
      const bool http = run.transport == Transport::kHttp;
      std::size_t bad = 0;
      for (std::size_t j = 0; j < run.warm_hashes.size(); ++j)
        if (run.warm_hashes[j] != tail_hash(ref.warm_out[j])) ++bad;
      for (std::size_t i = 0; i < run.hashes.size(); ++i) {
        // Each HTTP request is a session of its own; the others number
        // lines across warm-up and measurement.
        if (run.ids[i] != (http ? 0 : W + i)) {
          ++bad;
        } else if (run.hashes[i] != (is_metrics_verb(lines[i])
                                         ? kShapeOk
                                         : tail_hash(ref.out[i]))) {
          ++bad;
        }
      }
      for (std::size_t k = 0; k < bad; ++k)
        r_.fail(std::string(transport_name(run.transport)) +
                ": response differs from the reference");
    }
    CoverChecker covers;
    for (std::size_t j = 0; j < W; ++j) covers.check(warm[j], ref.warm_out[j], r_);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      covers.check(lines[i], ref.out[i], r_);
      // The pool fits the cache, so every answered request must hit.
      if (ref.out[i].find(R"("ok":true,"algo")") != std::string::npos &&
          ref.out[i].find(R"("cache_hit":true)") == std::string::npos)
        r_.fail("line missed the warm cache: " + lines[i].substr(0, 80));
    }
  }

  std::vector<std::string> warm;
  std::vector<std::string> lines;
  std::vector<TransportRun> runs;
  SessionResult ref;
  /// The self-check's shim: a spin inside each timed round trip.
  std::int64_t send_delay_ns = 0;

 private:
  const Options& o_;
  Result& r_;
  HitMixStream gen_;
  std::vector<Endpoint> eps_;
};

/// The time windows in which the machine ran fastest: windows are
/// ranked by their mean round trip relative to the transport's overall
/// mean, averaged over the transports, and the best quarter is kept.
/// The mean, unlike the median, also marks windows hit by a stall of the
/// host. Every window holds the same request mix, so the kept samples
/// keep the workload's mix (see fastest for why).
std::vector<bool> fast_windows(const std::vector<TransportRun>& runs) {
  std::size_t n_windows = 0;
  for (const TransportRun& run : runs)
    for (const std::size_t w : run.window) n_windows = std::max(n_windows, w + 1);
  std::vector<double> score(n_windows, 0);
  std::vector<std::size_t> seen(n_windows, 0);
  for (const TransportRun& run : runs) {
    std::vector<double> sum(n_windows, 0), count(n_windows, 0);
    double total = 0;
    for (std::size_t i = 0; i < run.rt_us.size(); ++i) {
      sum[run.window[i]] += run.rt_us[i];
      count[run.window[i]] += 1;
      total += run.rt_us[i];
    }
    if (total <= 0) continue;
    const double overall = total / static_cast<double>(run.rt_us.size());
    for (std::size_t w = 0; w < n_windows; ++w) {
      if (count[w] == 0) continue;
      score[w] += sum[w] / count[w] / overall;
      ++seen[w];
    }
  }
  std::vector<std::size_t> order;
  for (std::size_t w = 0; w < n_windows; ++w)
    if (seen[w]) order.push_back(w);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return score[a] / static_cast<double>(seen[a]) <
           score[b] / static_cast<double>(seen[b]);
  });
  std::vector<bool> keep(n_windows, false);
  for (std::size_t k = 0; k < (order.size() + 3) / 4; ++k) keep[order[k]] = true;
  return keep;
}

/// p50/p99 per transport over the fast windows' samples; returns the
/// responses per second of round-trip time over the same samples.
double report_latency(const std::vector<TransportRun>& runs, Result& r) {
  const std::vector<bool> keep = fast_windows(runs);
  double responses = 0, busy_us = 0;
  for (const TransportRun& run : runs) {
    std::vector<double> kept;
    for (std::size_t i = 0; i < run.rt_us.size(); ++i)
      if (keep[run.window[i]]) kept.push_back(run.rt_us[i]);
    const std::string tn = transport_name(run.transport);
    r.add("p50_us." + tn, percentile(kept, 0.50), "us");
    r.add("p99_us." + tn, percentile(kept, 0.99), "us");
    for (const double x : kept) busy_us += x;
    responses += static_cast<double>(kept.size());
    const std::size_t n = kept.size();
    const std::size_t beyond =
        n - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
    r.note("samples." + tn + " = " + std::to_string(n) + " of " +
           std::to_string(run.rt_us.size()) + " (" + std::to_string(beyond) +
           " beyond p99)");
    if (beyond < 10)
      r.note("WARNING: p99_us." + tn + " has fewer than 10 samples beyond it");
  }
  return busy_us > 0 ? responses / (busy_us * 1e-6) : 0;
}

// ---------------------------------------------------------------------------
// Solve script phase: serial searches over stdio, one request in flight
// ---------------------------------------------------------------------------

std::vector<std::string> script_lines(const std::vector<ScriptItem>& items) {
  std::vector<std::string> lines{R"({"op":"clear"})"};
  for (const ScriptItem& it : items) lines.push_back(it.line);
  return lines;
}

std::uint64_t nodes_of(const std::string& resp) {
  const std::size_t p = resp.find("\"nodes\":");
  return p == std::string::npos ? 0 : std::strtoull(resp.c_str() + p + 8, nullptr, 10);
}

/// Checks a script response against its item's expectation. Node counts
/// that moved are reported, never failed.
void check_item(const ScriptItem& item, const std::string& resp,
                CoverChecker& covers, Result& r) {
  covers.check(item.line, resp, r);
  const bool found = resp.find(R"("found":true)") != std::string::npos;
  const bool exhausted = resp.find(R"("exhausted":true)") != std::string::npos;
  if (resp.find(R"("ok":true)") == std::string::npos)
    r.fail(item.name + ": not ok: " + resp.substr(0, 120));
  else if (item.expect == ScriptItem::Expect::kProof && (found || !exhausted))
    r.fail(item.name + ": rho-1 proof is no longer exhausted:true, found:false");
  else if (item.expect == ScriptItem::Expect::kFeasible && !found)
    r.fail(item.name + ": no cover found at rho(n)");
  const std::uint64_t nodes = nodes_of(resp);
  std::string s = "solver.nodes." + item.name + " = " + std::to_string(nodes);
  if (nodes != item.golden_nodes)
    s += " (count change: was " + std::to_string(item.golden_nodes) + ")";
  r.note(s);
}

/// A solve script over stdio, each repetition starting with
/// {"op":"clear"} so nothing is served from the cache, advanced one
/// line at a time so side activities can run between items. With
/// `fresh_server` every repetition spawns its own server and its set-up
/// ends with the answer to that clear; otherwise one server serves all
/// repetitions. Wall time is kept per item; the reported script time is
/// the sum over items of their fastest repetition.
class ScriptPhase {
 public:
  /// Builds the in-process reference (serve_session over the lines).
  ScriptPhase(const Options& o, std::vector<ScriptItem> items,
              bool fresh_server, Result& r)
      : o_(o), r_(r), items_(std::move(items)), lines_(script_lines(items_)),
        samples_(items_.size()), fresh_server_(fresh_server) {
    eng::EngineOptions eo;
    eo.cache_capacity = 1 << 14;
    eng::Engine engine(eo);
    reference_ = reference_session(engine, eng::ServeConfig{}, {}, lines_, 0).out;
  }

  ~ScriptPhase() { close(); }

  /// One script line: a repetition starts with {"op":"clear"} (on a new
  /// server when `fresh_server`) and its first item.
  void step() {
    if (next_ == 0) {
      const double t0 = now_s();
      if (!ep_.server)
        ep_ = open_endpoint(o_.ccov, Transport::kStdio,
                            {"--batch", "1", "--jobs", "1"}, "",
                            cpu_plan().server2);
      out_.assign(lines_.size(), "");
      if (!send(0)) return;
      if (fresh_server_) setup_s.push_back(now_s() - t0);
      next_ = 1;
    }
    const double s0 = now_s();
    if (!send(next_)) return;
    samples_[next_ - 1].push_back(now_s() - s0);
    if (++next_ < lines_.size()) return;
    next_ = 0;
    if (fresh_server_) close();
    for (std::size_t i = 0; i < lines_.size(); ++i)
      if (tail_hash(out_[i]) != tail_hash(reference_[i]))
        r_.fail("solve script: response differs from the reference: " +
                out_[i].substr(0, 120));
    if (!checked_) {
      checked_ = true;
      CoverChecker covers;
      for (std::size_t i = 1; i < lines_.size(); ++i)
        check_item(items_[i - 1], out_[i], covers, r_);
    }
  }

  /// One whole repetition.
  void rep() {
    do step(); while (next_ != 0 && ep_.server);
  }

  /// Complete the repetition in progress, if any, so every item has as
  /// many samples as the others and every response is checked.
  void finish() {
    while (next_ != 0 && ep_.server) step();
  }

  /// Script items per second of script time (both as seconds() counts).
  double items_per_second() const {
    const double t = seconds(false) + seconds(true);
    return t > 0 ? static_cast<double>(items_.size()) / t : 0;
  }

  /// Stop the current server, recording its peak RSS.
  void close() {
    if (!ep_.server) return;
    rss_mb = std::max(rss_mb, ep_.server->peak_rss_mb());
    ep_.client.reset();
    if (!ep_.server->stop()) r_.fail("solve script: server exited uncleanly");
    ep_.server.reset();
  }

  /// Sum over the serial (or parallel) items of their fastest repetition.
  double seconds(bool parallel) const {
    double s = 0;
    for (std::size_t i = 0; i < items_.size(); ++i)
      if (items_[i].parallel == parallel) s += fastest(samples_[i]);
    return s;
  }

  std::vector<double> setup_s;
  double rss_mb = 0;

 private:
  const Options& o_;
  Result& r_;
  std::vector<ScriptItem> items_;
  std::vector<std::string> lines_;
  std::vector<std::string> reference_;
  std::vector<std::vector<double>> samples_;  ///< [item][repetition]
  bool fresh_server_;
  bool checked_ = false;
  Endpoint ep_;
  std::size_t next_ = 0;  ///< next line of the current repetition
  std::vector<std::string> out_;

  /// Round trip line i of the repetition; on failure the server is
  /// stopped and the repetition abandoned.
  bool send(std::size_t i) {
    ++r_.attempted;
    if (ep_.client->round_trip(lines_[i], &out_[i])) return true;
    r_.fail("solve script: transport error");
    close();
    next_ = 0;
    return false;
  }
};

// ---------------------------------------------------------------------------
// Bulk phase: one TCP connection, --batch 8 --jobs min(nproc, 4)
// ---------------------------------------------------------------------------

std::size_t bulk_jobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hc ? hc : 1, 1, 4);
}

eng::EngineOptions bulk_engine_options(const BulkParams& p) {
  eng::EngineOptions eo;
  eo.cache_capacity = p.cache_capacity;
  eo.cache_shards = p.cache_shards;
  return eo;
}

eng::ServeConfig bulk_config(const BulkParams& p) {
  eng::ServeConfig c;
  c.batch = p.batch;
  c.jobs = bulk_jobs();
  return c;
}

/// The bulk stream, streamed whole over one pipelined TCP connection to
/// a fresh server per repetition. Every repetition's bytes are compared
/// with the in-process reference.
class BulkPhase {
 public:
  /// Builds the stream and its reference; run it before pinning the
  /// calling thread, whose CPU mask the reference's workers inherit.
  BulkPhase(const Options& o, Result& r)
      : o_(o), r_(r), p_(bulk_params()) {
    lines = bulk_stream(o.seed, p_);
    eng::Engine engine(bulk_engine_options(p_));
    ref = reference_session(engine, bulk_config(p_), {kHandshake}, lines, 0);
    CoverChecker covers;
    for (std::size_t i = 0; i < lines.size() && i < ref.out.size(); ++i)
      covers.check(lines[i], ref.out[i], r);
    for (const std::string& l : ref.out) want_.push_back(tail_hash(l));
    for (const std::string& l : lines) payload_ += l + "\n";
  }

  void rep() {
    const double t0 = now_s();
    Endpoint ep = open_endpoint(
        o_.ccov, Transport::kTcp,
        {"--batch", std::to_string(p_.batch), "--jobs",
         std::to_string(bulk_jobs()), "--cache-capacity",
         std::to_string(p_.cache_capacity), "--cache-shards",
         std::to_string(p_.cache_shards)},
        "");
    std::string resp;
    ++r_.attempted;
    bool ok = ep.client->round_trip(kHandshake, &resp);
    setup_s.push_back(now_s() - t0);
    std::size_t bad = 0, received = 0;
    const double s0 = now_s();
    double last = s0;
    r_.attempted += lines.size();
    ok = ok && want_.size() == lines.size() &&
         ep.client->stream(payload_, lines.size(),
                           [&](std::size_t i, const std::string& l) {
                             std::uint64_t id = 0;
                             std::string_view tail;
                             if (!split_id(l, &id, &tail) || id != i + 1 ||
                                 fnv1a(tail) != want_[i])
                               ++bad;
                             received = i + 1;
                             last = now_s();
                           });
    if (ok) stream_s.push_back(last - s0);
    rss_mb = std::max(rss_mb, ep.server->peak_rss_mb());
    ep.client.reset();
    if (!ep.server->stop()) r_.fail("bulk: server exited uncleanly");
    for (std::size_t k = received; k < lines.size(); ++k)
      r_.fail("bulk: response missing after a transport error");
    for (std::size_t k = 0; k < bad; ++k)
      r_.fail("bulk: response differs from the reference");
  }

  std::vector<std::string> lines;
  SessionResult ref;
  std::vector<double> stream_s;  ///< first byte sent to last response, per rep
  std::vector<double> setup_s;
  double rss_mb = 0;

 private:
  static constexpr const char* kHandshake = R"({"op":"stats"})";
  const Options& o_;
  Result& r_;
  BulkParams p_;
  std::vector<std::uint64_t> want_;
  std::string payload_;
};

// ---------------------------------------------------------------------------
// Traced in-process replay: per-layer metrics
// ---------------------------------------------------------------------------

/// Self and inclusive times in microseconds of every span, by layer
/// and tag.
struct LayerSamples {
  std::vector<double> self_us;
  std::vector<double> incl_us;
};

using Aggregates = std::map<std::pair<Layer, std::uint8_t>, LayerSamples>;

Aggregates aggregate(const Tracer& t) {
  Aggregates agg;
  const std::vector<std::int64_t> self = t.self_ns();
  const std::vector<Span>& spans = t.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerSamples& a = agg[{spans[i].layer, spans[i].tag}];
    a.self_us.push_back(static_cast<double>(self[i]) * 1e-3);
    a.incl_us.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3);
  }
  return agg;
}

/// Median self (or inclusive) time in microseconds of `layer` spans with
/// tag `tag` (any tag when tag == 0xff): the typical call, not swayed
/// by the occasional page fault or slow stretch.
double median_us(const Aggregates& agg, Layer layer, std::uint8_t tag,
                 bool inclusive = false) {
  std::vector<double> all;
  for (const auto& [key, a] : agg) {
    if (key.first != layer || (tag != 0xff && key.second != tag)) continue;
    const std::vector<double>& v = inclusive ? a.incl_us : a.self_us;
    all.insert(all.end(), v.begin(), v.end());
  }
  return median(std::move(all));
}

/// Compares replayed responses with the reference (id-free bytes),
/// skipping control verbs whose payload reports counters the replay
/// drives differently.
void compare_replay(const std::vector<ReplayLine>& replay,
                    const std::vector<std::string>& reference,
                    const char* what, Result& r) {
  if (replay.size() != reference.size()) {
    r.fail(std::string(what) + ": replay produced the wrong number of lines");
    return;
  }
  for (std::size_t i = 0; i < replay.size(); ++i) {
    if (replay[i].response.find(R"("op":)") != std::string::npos) continue;
    if (tail_hash(replay[i].response) != tail_hash(reference[i]))
      r.fail(std::string(what) + ": layer replay differs from serve_session: " +
             replay[i].response.substr(0, 120));
  }
}

struct LayerPass {
  double traced_s = 0;
  double untraced_s = 0;
  double self_us_per_req = 0;  ///< summed program-layer self time
};

/// The interactive lines through replay_layers twice — traced and
/// untraced, each on a fresh engine after the same warm-up.
LayerPass replay_interactive(const InteractivePhase& it, Tracer& tracer,
                             Result& r) {
  LayerPass lp;
  const eng::ServeConfig config;
  eng::EngineOptions eo;
  eo.cache_capacity = 1 << 14;
  // The warm-up is the only miss traffic; replaying it on a few fresh
  // engines gives the miss-path layers enough samples.
  for (int k = 0; k < 4; ++k) {
    eng::Engine engine(eo);
    replay_layers(engine, config, it.warm, 0, tracer, 0);
  }
  {
    eng::Engine engine(eo);
    const auto warm = replay_layers(engine, config, it.warm, 0, tracer, 0);
    compare_replay(warm, it.ref.warm_out, "warm-up", r);
    const std::size_t first_span = tracer.spans().size();
    const std::int64_t t0 = Tracer::now_ns();
    const auto out =
        replay_layers(engine, config, it.lines,
                      static_cast<std::uint32_t>(it.warm.size()), tracer, 0);
    lp.traced_s = static_cast<double>(Tracer::now_ns() - t0) * 1e-9;
    compare_replay(out, it.ref.out, "interactive", r);
    const std::vector<std::int64_t> self = tracer.self_ns();
    double sum = 0;
    for (std::size_t i = first_span; i < self.size(); ++i)
      if (is_program_layer(tracer.spans()[i].layer))
        sum += static_cast<double>(self[i]);
    lp.self_us_per_req = sum / 1e3 / static_cast<double>(it.lines.size());
  }
  {
    Tracer off(false);
    eng::Engine engine(eo);
    replay_layers(engine, config, it.warm, 0, off, 0);
    const std::int64_t t0 = Tracer::now_ns();
    replay_layers(engine, config, it.lines, 0, off, 0);
    lp.untraced_s = static_cast<double>(Tracer::now_ns() - t0) * 1e-9;
  }
  return lp;
}

/// The solve script replayed through the layers: exact node counts per
/// item, solver throughput and the parallel speedup over its serial twin.
void replay_script(const std::vector<ScriptItem>& items, Tracer& tracer,
                   Result& r) {
  eng::EngineOptions eo;
  eo.cache_capacity = 1 << 14;
  eng::Engine engine(eo);
  const std::vector<std::string> lines = script_lines(items);
  const std::vector<ReplayLine> out =
      replay_layers(engine, eng::ServeConfig{}, lines, 0, tracer, 0);
  if (out.size() != lines.size()) {
    r.fail("script replay produced the wrong number of lines");
    return;
  }
  r.attempted += lines.size();
  CoverChecker covers;
  double nodes = 0, serial_nodes = 0, serial_ns = 0, parallel_ns = 0,
         twin_ns = 0;
  std::map<std::string, double> item_ns;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ReplayLine& rl = out[i + 1];
    check_item(items[i], rl.response, covers, r);
    nodes += static_cast<double>(rl.nodes);
    item_ns[items[i].name] = static_cast<double>(rl.solver_ns);
    if (items[i].parallel) {
      parallel_ns += static_cast<double>(rl.solver_ns);
    } else {
      serial_nodes += static_cast<double>(rl.nodes);
      serial_ns += static_cast<double>(rl.solver_ns);
    }
  }
  for (const ScriptItem& item : items)
    if (item.parallel) twin_ns = item_ns[item.serial_twin];
  r.add("solver.nodes", nodes, "count");
  r.add("solver.nodes_per_s", serial_ns ? serial_nodes / (serial_ns * 1e-9) : 0,
        "1/s");
  r.add("solver.parallel_speedup", parallel_ns ? twin_ns / parallel_ns : 0,
        "ratio");
}

void add_cache_metrics(const SessionResult& ref, Result& r) {
  const auto delta = [&](const char* name) {
    return static_cast<double>(metric(ref.after, name) - metric(ref.before, name));
  };
  const double hits = delta("ccov_cache_hits_total");
  const double misses = delta("ccov_cache_misses_total");
  const double requests = delta("ccov_serve_requests_total");
  r.add("cache.hit_ratio", hits + misses ? hits / (hits + misses) : 0, "ratio");
  r.add("cache.evictions_per_kreq",
        requests ? delta("ccov_cache_evictions_total") * 1e3 / requests : 0,
        "1/kreq");
}

void add_layer_metrics(const Aggregates& agg, Result& r) {
  r.add("serve.frame_us", median_us(agg, Layer::kFrame, 0xff), "us");
  r.add("serve.parse_us.short", median_us(agg, Layer::kParse, kTagShort), "us");
  r.add("serve.parse_us.demand", median_us(agg, Layer::kParse, kTagDemand), "us");
  r.add("cache.key_us.identity", median_us(agg, Layer::kKey, kTagIdentity), "us");
  r.add("cache.key_us.dn", median_us(agg, Layer::kKey, kTagDihedral), "us");
  r.add("cache.probe_us.visit", median_us(agg, Layer::kProbe, kTagIdentity), "us");
  r.add("cache.probe_us.remap", median_us(agg, Layer::kProbe, kTagDihedral), "us");
  r.add("cache.insert_us", median_us(agg, Layer::kInsert, 0xff), "us");
  r.add("engine.run_us.construct",
        median_us(agg, Layer::kEngineRun, kTagConstruct, true), "us");
  r.add("engine.run_us.greedy",
        median_us(agg, Layer::kEngineRun, kTagGreedy, true), "us");
  r.add("engine.run_us.solve", median_us(agg, Layer::kEngineRun, kTagSolve, true),
        "us");
  r.add("greedy.run_us", median_us(agg, Layer::kGreedy, 0xff), "us");
  r.add("validate.us", median_us(agg, Layer::kValidate, 0xff), "us");
  r.add("serve.render_us", median_us(agg, Layer::kRender, 0xff), "us");
}

void run_traced(const Options& o, Result& r) {
  Tracer tracer(true);
  const bool hit_mix = o.workload == "hit_mix";
  const bool churn = o.workload == "batch_churn";

  // Untraced end to end over the transports, then the same lines in
  // process: the difference is what each transport adds.
  std::optional<BulkPhase> bulk;
  if (churn) bulk.emplace(o, r);
  const PinThread pin(cpu_plan().client);
  InteractivePhase it(o, !hit_mix, r);
  it.step(hit_mix ? 4000 : kProbeLines, 0);
  it.finish();
  const LayerPass lp = replay_interactive(it, tracer, r);
  const double inproc_us =
      it.ref.seconds * 1e6 / static_cast<double>(it.lines.size());
  for (const TransportRun& run : it.runs) {
    // Median over lines of (round trip - the same line in process).
    std::vector<double> extra;
    for (std::size_t i = 0; i < run.rt_us.size() && i < it.ref.line_us.size(); ++i)
      extra.push_back(run.rt_us[i] - it.ref.line_us[i]);
    r.add(std::string("transport.overhead_us.") + transport_name(run.transport),
          median(std::move(extra)), "us");
  }
  r.add("serve.unattributed_us", inproc_us - lp.self_us_per_req, "us");
  r.add("trace.overhead", lp.untraced_s ? lp.traced_s / lp.untraced_s : 0,
        "ratio");
  double bytes = 0;
  for (const std::string& l : it.ref.out) bytes += static_cast<double>(l.size() + 1);
  r.add("serve.bytes_out_per_req", bytes / static_cast<double>(it.ref.out.size()),
        "bytes");

  {
    const PinThread wide(cpu_plan().server2);
    replay_script(solve_script(o.seed, o.workload != "solve_cold"), tracer, r);
  }

  // BatchRunner's workers inherit the calling thread's CPU mask.
  const PinThread unpinned(allowed_cpus_at_start());
  BatchReplay batch;
  if (churn) {
    const BulkParams p = bulk_params();
    r.attempted += bulk->lines.size();
    add_cache_metrics(bulk->ref, r);
    eng::Engine serial(bulk_engine_options(p));
    compare_replay(
        replay_layers(serial, eng::ServeConfig{}, bulk->lines, 0, tracer, 0),
        bulk->ref.out, "bulk", r);
    eng::Engine batched(bulk_engine_options(p));
    batch = replay_batches(batched, bulk->lines, p.batch, bulk_jobs(), tracer);
  } else {
    // Hits carry no engine time, so the fan-out is measured on this
    // workload's misses: its warm-up set, in bulk-sized batches.
    add_cache_metrics(it.ref, r);
    eng::EngineOptions eo;
    eo.cache_capacity = 1 << 14;
    eng::Engine engine(eo);
    batch = replay_batches(engine, it.warm, bulk_params().batch, bulk_jobs(),
                           tracer);
  }
  r.add("batch.run_us", batch.run_us, "us");
  r.add("batch.efficiency", batch.efficiency, "ratio");

  add_layer_metrics(aggregate(tracer), r);
  if (!o.trace_out.empty() && !tracer.write_chrome_trace(o.trace_out))
    std::cerr << "cannot write " << o.trace_out << "\n";
}

// ---------------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------------
//
// Each workload has a main activity that fills --seconds and reports
// the metrics the workload exists for. The end-to-end metrics outside
// its focus come from two small fixed side activities spread over the
// same run: the probe (a small hit_mix over all four transports) for
// per-transport latency, and the canary (the cheap part of the solve
// script) for solver wall time.

void add_script(const ScriptPhase& s, Result& r) {
  r.add("solve_s", s.seconds(false), "s");
  r.add("solve_parallel_s", s.seconds(true), "s");
}

/// The probe, as a side activity: one window per step.
Side probe_side(InteractivePhase& probe) {
  return {kProbeChunks, [&probe, w = std::size_t{0}]() mutable {
            probe.step(kProbeLines / kProbeChunks, w++);
          }};
}

void run_hit_mix(const Options& o, Result& r) {
  ScriptPhase canary(o, solve_script(o.seed, true), false, r);
  const PinThread pin(cpu_plan().client);
  InteractivePhase it(o, false, r);
  const double t0 = now_s();
  const double window_s = o.seconds / static_cast<double>(kWindows);
  run_spread(o.seconds,
             [&] {
               it.step(1, std::min(kWindows - 1, static_cast<std::size_t>(
                                                     (now_s() - t0) / window_s)));
             },
             {{kCanaryReps, [&] { canary.rep(); }}});
  it.finish();
  r.add("throughput_rps", report_latency(it.runs, r), "1/s");
  add_script(canary, r);
  double rss = 0;
  std::vector<double> setups;
  for (const TransportRun& run : it.runs) {
    rss = std::max(rss, run.rss_mb);
    setups.push_back(run.setup_s);
  }
  r.add("setup_s", median(setups), "s");
  r.add("peak_rss_mb", rss, "MiB");
}

void run_solve_cold(const Options& o, Result& r) {
  ScriptPhase script(o, solve_script(o.seed, false), true, r);
  const PinThread pin(cpu_plan().client);
  InteractivePhase probe(o, true, r);
  run_spread(o.seconds, [&] { script.step(); }, {probe_side(probe)});
  script.finish();
  probe.finish();
  report_latency(probe.runs, r);
  add_script(script, r);
  r.add("throughput_rps", script.items_per_second(), "1/s");
  r.add("setup_s", median(script.setup_s), "s");
  r.add("peak_rss_mb", script.rss_mb, "MiB");
}

void run_batch_churn(const Options& o, Result& r) {
  BulkPhase bulk(o, r);
  ScriptPhase canary(o, solve_script(o.seed, true), false, r);
  const PinThread pin(cpu_plan().client);
  InteractivePhase probe(o, true, r);
  run_spread(o.seconds, [&] { bulk.rep(); },
             {{kCanaryReps, [&] { canary.rep(); }}, probe_side(probe)});
  probe.finish();
  report_latency(probe.runs, r);
  add_script(canary, r);
  r.add("throughput_rps",
        static_cast<double>(bulk.lines.size()) / fastest(bulk.stream_s),
        "1/s");
  r.add("setup_s", median(bulk.setup_s), "s");
  r.add("peak_rss_mb", bulk.rss_mb, "MiB");
}

// ---------------------------------------------------------------------------
// Sensitivity self-check
// ---------------------------------------------------------------------------

/// Windows 1 and 2 of every 4 run with the shim on (ABBA), so the two
/// sides see the same stretches of a shared machine.
bool shim_on(std::size_t window) { return window % 4 == 1 || window % 4 == 2; }

/// Known delays injected by benchmark-side shims must show up in the
/// delayed layer's metrics at about their size, and the layer that rose
/// most must be the delayed one. Each shim is switched on and off in
/// alternating windows of one run. Prints a report; 0 when it passes.
int run_self_check(const Options& o) {
  Result r;
  bool passed = true;
  const auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
    passed = passed && ok;
  };
  const auto about = [](double rise, double delay) {
    return rise >= 0.5 * delay && rise <= 1.5 * delay;
  };
  const auto fixed = [](double v, const char* unit) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f%s", v, unit);
    return std::string(buf);
  };

  // The transport: the client spins before each send, inside the timed
  // round trip. p50_us.<t> and transport.overhead_us.<t> must rise.
  constexpr double kSendUs = 25;
  std::cout << "shim: client spins " << kSendUs << " us before each send\n";
  {
    const PinThread pin(cpu_plan().client);
    InteractivePhase it(o, false, r);
    for (std::size_t w = 0; w < 48; ++w) {
      it.send_delay_ns = shim_on(w) ? static_cast<std::int64_t>(kSendUs * 1e3) : 0;
      it.step(100, w);
    }
    it.finish();
    for (const TransportRun& run : it.runs) {
      std::vector<double> rt[2], extra[2];
      for (std::size_t i = 0; i < run.rt_us.size() && i < it.ref.line_us.size(); ++i) {
        const int on = shim_on(run.window[i]);
        rt[on].push_back(run.rt_us[i]);
        extra[on].push_back(run.rt_us[i] - it.ref.line_us[i]);
      }
      const std::string tn = transport_name(run.transport);
      const double p50 = percentile(rt[1], 0.5) - percentile(rt[0], 0.5);
      const double over = median(extra[1]) - median(extra[0]);
      check(about(p50, kSendUs), "p50_us." + tn + " rose " + fixed(p50, " us"));
      check(about(over, kSendUs),
            "transport.overhead_us." + tn + " rose " + fixed(over, " us"));
    }
  }

  // Framing: the in-memory stream spins before handing each line to
  // LineReader::next, on the traced replay and on serve_session alike.
  constexpr double kFrameUs = 5;
  std::cout << "shim: in-memory stream spins " << kFrameUs
            << " us before each line reaches LineReader::next\n";
  {
    HitMixStream gen(o.seed, hit_mix_params(false));
    const std::vector<std::string> warm = gen.warm();
    std::vector<std::string> lines;
    for (int i = 0; i < 1000; ++i) lines.push_back(gen.next());
    Tracer traced[2] = {Tracer(true), Tracer(true)};
    std::vector<double> inproc[2];
    eng::EngineOptions eo;
    eo.cache_capacity = 1 << 14;
    const PinThread pin(cpu_plan().client);
    for (std::size_t w = 0; w < 16; ++w) {
      const int on = shim_on(w);
      const auto delay = static_cast<std::int64_t>(on * kFrameUs * 1e3);
      eng::Engine replayed(eo);
      replay_layers(replayed, eng::ServeConfig{}, warm, 0, traced[on], delay);
      replay_layers(replayed, eng::ServeConfig{}, lines, 0, traced[on], delay);
      eng::Engine served(eo);
      const SessionResult ref =
          reference_session(served, eng::ServeConfig{}, warm, lines, delay);
      inproc[on].insert(inproc[on].end(), ref.line_us.begin(), ref.line_us.end());
    }
    const double round_trip = median(inproc[1]) - median(inproc[0]);
    check(about(round_trip, kFrameUs),
          "in-process round trip (serve_session per line) rose " +
              fixed(round_trip, " us"));
    Result off, on;
    add_layer_metrics(aggregate(traced[0]), off);
    add_layer_metrics(aggregate(traced[1]), on);
    std::string top;
    double top_rel = -1;
    for (std::size_t i = 0; i < off.metrics.size(); ++i) {
      const auto& [name, base] = off.metrics[i];
      const double rise = on.metrics[i].second.first - base.first;
      const double rel = base.first > 0 ? rise / base.first : 0;
      if (rel > top_rel) {
        top = name;
        top_rel = rel;
      }
      if (name == "serve.frame_us")
        check(about(rise, kFrameUs), name + " rose " + fixed(rise, " us"));
      else
        check(std::abs(rel) <= 0.25, name + " moved " + fixed(100 * rel, "%"));
    }
    std::cout << "  delayed layer named: " << top << "\n";
    check(top == "serve.frame_us", "the named layer is the framing layer");
  }
  check(r.failed == 0, "every response matched its reference");
  std::cout << "self-check " << (passed ? "passed" : "FAILED") << std::endl;
  return passed ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Fingerprint, stream dump, output
// ---------------------------------------------------------------------------

struct Fingerprint {
  std::string cpu = "unknown";
  unsigned nproc = std::thread::hardware_concurrency();
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string sanitizer = PERFBENCH_SANITIZER;
#ifdef CCOV_FAILPOINTS_ENABLED
  bool failpoints_compiled = true;
#else
  bool failpoints_compiled = false;
#endif
  std::string failpoints_env;
  std::string commit = "unknown";
  std::string source_digest = "unknown";

  Fingerprint() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
      if (line.compare(0, 10, "model name") == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
    if (const char* e = std::getenv("CCOV_FAILPOINTS")) failpoints_env = e;
    if (const char* e = std::getenv("PERFBENCH_COMMIT")) commit = e;
    if (const char* e = std::getenv("PERFBENCH_SOURCE_DIGEST")) source_digest = e;
  }

  /// Only an optimized, uninstrumented, fault-free build is reportable.
  std::string invalid_reason() const {
    if (build_type != "Release") return "build type is " + build_type;
    if (sanitizer != "none") return "sanitizer build (" + sanitizer + ")";
    if (failpoints_compiled) return "failpoints compiled in";
    if (!failpoints_env.empty()) return "CCOV_FAILPOINTS is set";
    return "";
  }

  std::string json() const {
    json::JsonWriter w;
    w.begin_object()
        .key("cpu").value_string(cpu)
        .key("nproc").value(static_cast<std::uint64_t>(nproc))
        .key("compiler").value_string(compiler)
        .key("build_type").value_string(build_type)
        .key("sanitizer").value_string(sanitizer)
        .key("failpoints_compiled").value(failpoints_compiled)
        .key("failpoints_env").value_string(failpoints_env)
        .key("commit").value_string(commit)
        .key("source_digest").value_string(source_digest)
        .end_object();
    return w.take();
  }
};

void dump_streams(const Options& o) {
  const auto dump_hit_mix = [&](bool probe, std::size_t n) {
    HitMixStream gen(o.seed, hit_mix_params(probe));
    for (const std::string& l : gen.warm()) std::cout << l << "\n";
    for (std::size_t i = 0; i < n; ++i) std::cout << gen.next() << "\n";
  };
  const auto dump_script = [&](bool canary) {
    for (const std::string& l : script_lines(solve_script(o.seed, canary)))
      std::cout << l << "\n";
  };
  if (o.workload == "hit_mix") {
    dump_hit_mix(false, 5000);
    dump_script(true);
  } else if (o.workload == "solve_cold") {
    dump_script(false);
    dump_hit_mix(true, kProbeLines);
  } else {
    for (const std::string& l : bulk_stream(o.seed, bulk_params()))
      std::cout << l << "\n";
    dump_hit_mix(true, kProbeLines);
    dump_script(true);
  }
}

/// Every workload parameter as JSON: the record perfbench/workloads.json
/// keeps (the stream test checks the two agree).
void describe() {
  json::JsonWriter w;
  const auto range = [&](const char* key, std::uint64_t lo, std::uint64_t hi) {
    w.key(key).begin_array().value(lo).value(hi).end_array();
  };
  const auto hit_mix = [&](const HitMixParams& p) {
    w.begin_object();
    range("k_n_n", p.n_lo, p.n_hi);
    w.key("k_n_algos").begin_array().value_string("construct")
        .value_string("greedy").value_string("solve").end_array();
    w.key("solve_n").begin_array();
    for (const std::uint32_t n : kSolvable)
      if (n >= p.n_lo && n <= p.n_hi) w.value(std::uint64_t{n});
    w.end_array();
    range("dn_n", p.dn_lo, p.dn_hi);
    w.key("dn_chords").value_string("n/2..3n");
    w.key("dn_bases").value(std::uint64_t{p.dn_bases});
    w.key("mix_pct").begin_object()
        .key("identity").value(std::uint64_t{p.identity_pct})
        .key("dihedral").value(std::uint64_t{p.dihedral_pct})
        .key("repeat").value(std::uint64_t{p.repeat_pct})
        .key("verbs_and_malformed")
        .value(std::uint64_t{100 - p.identity_pct - p.dihedral_pct - p.repeat_pct})
        .end_object();
    w.key("transports").begin_array();
    for (const Transport t : kTransports) w.value_string(transport_name(t));
    w.end_array();
    w.key("batch").value(1).key("jobs").value(1)
        .key("cache_capacity").value(1 << 14).end_object();
  };
  const auto script = [&](bool canary) {
    w.begin_array();
    for (const ScriptItem& it : solve_script(1, canary)) {
      w.begin_object().key("name").value_string(it.name)
          .key("line").value_string(it.line)
          .key("golden_nodes").value(it.golden_nodes).end_object();
    }
    w.end_array();
  };
  const BulkParams b = bulk_params();
  w.begin_object();
  w.key("hit_mix").begin_object().key("stream");
  hit_mix(hit_mix_params(false));
  w.key("time_windows").value(std::uint64_t{kWindows}).end_object();
  w.key("solve_cold").begin_object().key("script");
  script(false);
  w.key("serial_order").value_string("seeded").end_object();
  w.key("batch_churn").begin_object()
      .key("lines").value(std::uint64_t{b.lines})
      .key("batch").value(std::uint64_t{b.batch})
      .key("jobs").value_string("min(nproc, 4)")
      .key("cache_capacity").value(std::uint64_t{b.cache_capacity})
      .key("cache_shards").value(std::uint64_t{b.cache_shards})
      .key("hit_pct").value(std::uint64_t{b.hit_pct});
  range("hit_age_lines", b.hit_min_age, b.hit_max_age);
  w.key("miss_mix_pct").begin_object()
      .key("construct").value(std::uint64_t{b.construct_pct})
      .key("solve").value(std::uint64_t{b.solve_pct})
      .key("greedy").value(std::uint64_t{100 - b.construct_pct - b.solve_pct})
      .end_object();
  range("construct_n", 3, b.construct_n_max);
  range("greedy_n", b.greedy_n_lo, b.greedy_n_hi);
  w.end_object();
  w.key("probe").begin_object()
      .key("used_by").begin_array().value_string("solve_cold")
      .value_string("batch_churn").end_array()
      .key("lines_per_transport").value(std::uint64_t{kProbeLines})
      .key("time_windows").value(std::uint64_t{kProbeChunks})
      .key("stream");
  hit_mix(hit_mix_params(true));
  w.end_object();
  w.key("canary").begin_object()
      .key("used_by").begin_array().value_string("hit_mix")
      .value_string("batch_churn").end_array()
      .key("repetitions").value(std::uint64_t{kCanaryReps})
      .key("script");
  script(true);
  w.end_object().end_object();
  std::cout << w.str() << "\n";
}


std::string result_json(const Result& r) {
  std::string s = "{\"correct\":";
  s += r.failed == 0 ? "true" : "false";
  s += ",\"attempted\":" + std::to_string(r.attempted);
  s += ",\"failed\":" + std::to_string(r.failed);
  s += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    s += (i ? "," : "") + json::escaped(name) + ":{\"value\":" +
         number(vu.first) + ",\"unit\":" + json::escaped(vu.second) + "}";
  }
  return s + "}}";
}

bool parse_options(int argc, char** argv, Options* o) {
  const ccov::util::Cli cli(argc, argv);
  o->ccov = cli.get("ccov", "");
  o->workload = cli.get("workload", "");
  o->seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  o->seconds = cli.get_double("seconds", 10);
  o->trace = cli.get_int("trace", 0) != 0;
  o->report = cli.get("report", "");
  o->trace_out = cli.get("trace-out", "");
  o->dump = cli.has("dump-streams");
  o->describe = cli.has("describe");
  o->self_check = cli.has("self-check");
  if (o->describe) return true;
  if (o->self_check) o->workload = "hit_mix";
  if (o->workload != "hit_mix" && o->workload != "solve_cold" &&
      o->workload != "batch_churn") {
    std::cerr << "--workload must be hit_mix, solve_cold or batch_churn\n";
    return false;
  }
  if (!o->dump && (o->ccov.empty() || ::access(o->ccov.c_str(), X_OK) != 0)) {
    std::cerr << "--ccov must name the ccov executable\n";
    return false;
  }
  if (o->seconds <= 0) {
    std::cerr << "--seconds must be positive\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Options o;
  try {
    if (!parse_options(argc, argv, &o)) return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (o.describe) {
    describe();
    return 0;
  }
  if (o.dump) {
    dump_streams(o);
    return 0;
  }

  const Fingerprint fp;
  std::cerr << "fingerprint: " << fp.json() << "\n";
  if (const std::string why = fp.invalid_reason(); !why.empty()) {
    std::cerr << "perfbench: results from this build are invalid (" << why
              << "); not reporting\n";
    return 3;
  }

  if (o.self_check) return run_self_check(o);

  Result r;
  try {
    if (o.trace)
      run_traced(o, r);
    else if (o.workload == "hit_mix")
      run_hit_mix(o, r);
    else if (o.workload == "solve_cold")
      run_solve_cold(o, r);
    else
      run_batch_churn(o, r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const auto& [name, vu] : r.metrics)
    if (!std::isfinite(vu.first)) r.fail(name + " is not finite");

  const std::string line = result_json(r);
  if (!o.report.empty()) {
    std::ofstream rep(o.report);
    rep << "{\"workload\":" << json::escaped(o.workload) << ",\"seed\":"
        << o.seed << ",\"seconds\":" << number(o.seconds)
        << ",\"trace\":" << (o.trace ? "true" : "false")
        << ",\"fingerprint\":" << fp.json() << ",\"result\":" << line
        << ",\"notes\":[";
    for (std::size_t i = 0; i < r.notes.size(); ++i)
      rep << (i ? "," : "") << json::escaped(r.notes[i]);
    rep << "]}\n";
  }
  for (const auto& [name, vu] : r.metrics)
    std::cerr << "  " << name << " = " << number(vu.first) << " " << vu.second
              << "\n";
  std::cout << line << std::endl;
  return r.failed == 0 ? 0 : 1;
}
