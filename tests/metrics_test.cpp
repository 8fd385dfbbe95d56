// Tests for the metrics registry (metrics.hpp): counter/gauge
// semantics, callback-backed series, Prometheus text rendering (format
// validation plus a full-text golden against an engine in a known
// state), and the wiring between Engine subsystems and the registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/metrics.hpp"
#include "ccov/engine/serve.hpp"

namespace eng = ccov::engine;

TEST(Metrics, CountersAndGaugesHoldValues) {
  eng::MetricsRegistry reg;
  eng::Counter& c = reg.counter("events_total", "help");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // get-or-create: the same name resolves to the same storage.
  EXPECT_EQ(&reg.counter("events_total", "ignored"), &c);

  eng::Gauge& g = reg.gauge("level", "help");
  g.add(5);
  g.add(-2);
  EXPECT_EQ(g.value(), 3);
  g.add(-10);
  EXPECT_EQ(g.value(), -7);

  EXPECT_EQ(reg.snapshot().size(), 2u);
  EXPECT_EQ(reg.value("events_total"), 42);
  EXPECT_EQ(reg.value("level"), -7);
  EXPECT_EQ(reg.value("no_such_series"), -1);
}

TEST(Metrics, CallbackSeriesReadAtScrapeTime) {
  eng::MetricsRegistry reg;
  std::uint64_t hits = 0;
  reg.counter_fn("hits_total", "h", [&hits] { return hits; });
  EXPECT_EQ(reg.value("hits_total"), 0);
  hits = 9;
  EXPECT_EQ(reg.value("hits_total"), 9);
  // Callback series are registered exactly once.
  EXPECT_THROW(reg.counter_fn("hits_total", "h", [] { return 0ull; }),
               std::invalid_argument);
}

TEST(Metrics, RejectsInvalidNamesAndKindMismatches) {
  eng::MetricsRegistry reg;
  EXPECT_THROW(reg.counter("", "h"), std::invalid_argument);
  EXPECT_THROW(reg.counter("9starts_with_digit", "h"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has-dash", "h"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space", "h"), std::invalid_argument);
  reg.counter("ok_name", "h");
  EXPECT_THROW(reg.gauge("ok_name", "h"), std::invalid_argument);
  reg.gauge("_underscore_first", "h");  // valid
}

TEST(Metrics, RenderIsSortedValidPrometheusText) {
  eng::MetricsRegistry reg;
  reg.gauge("zeta", "last alphabetically").add(1);
  reg.counter("alpha_total", "first alphabetically").add(3);
  const std::string text = reg.render_prometheus();

  // Every series renders exactly three lines: # HELP, # TYPE, sample;
  // names appear in sorted order.
  std::istringstream lines(text);
  std::string line;
  std::vector<std::string> names;
  int state = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (state == 0) {
      ASSERT_EQ(line.rfind("# HELP ", 0), 0u) << line;
    } else if (state == 1) {
      ASSERT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      const std::string kind = line.substr(line.rfind(' ') + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge") << line;
    } else {
      const std::size_t space = line.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      names.push_back(line.substr(0, space));
      // The sample value must parse as an integer.
      EXPECT_NO_THROW(std::stoll(line.substr(space + 1))) << line;
    }
    state = (state + 1) % 3;
  }
  EXPECT_EQ(state, 0) << "truncated metric block";
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha_total");
  EXPECT_EQ(names[1], "zeta");
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Metrics, GoldenRenderOfAFreshEngineAfterOneRequest) {
  // One construct n=9 against a fresh engine puts every series in a
  // deterministic state; this golden pins the full exposition format.
  eng::EngineOptions opts;
  opts.cache_capacity = 256;
  eng::Engine engine(opts);
  eng::CoverRequest req;
  req.algorithm = "construct";
  req.n = 9;
  ASSERT_TRUE(engine.run(req).ok);

  const std::string expected =
      "# HELP ccov_cache_capacity CoverCache total capacity across shards\n"
      "# TYPE ccov_cache_capacity gauge\n"
      "ccov_cache_capacity 256\n"
      "# HELP ccov_cache_entries CoverCache entries currently stored\n"
      "# TYPE ccov_cache_entries gauge\n"
      "ccov_cache_entries 1\n"
      "# HELP ccov_cache_evictions_total CoverCache entries evicted by the "
      "per-shard LRU\n"
      "# TYPE ccov_cache_evictions_total counter\n"
      "ccov_cache_evictions_total 0\n"
      "# HELP ccov_cache_hits_total CoverCache lookups served from the "
      "cache\n"
      "# TYPE ccov_cache_hits_total counter\n"
      "ccov_cache_hits_total 0\n"
      "# HELP ccov_cache_misses_total CoverCache lookups that required a "
      "computation\n"
      "# TYPE ccov_cache_misses_total counter\n"
      "ccov_cache_misses_total 1\n"
      "# HELP ccov_requests_degraded_total Timed-out exact solves answered "
      "with the greedy fallback cover\n"
      "# TYPE ccov_requests_degraded_total counter\n"
      "ccov_requests_degraded_total 0\n"
      "# HELP ccov_requests_shed_total Requests answered shed:true because "
      "their deadline expired while queued\n"
      "# TYPE ccov_requests_shed_total counter\n"
      "ccov_requests_shed_total 0\n"
      "# HELP ccov_requests_timed_out_total Requests whose deadline expired "
      "before the search settled\n"
      "# TYPE ccov_requests_timed_out_total counter\n"
      "ccov_requests_timed_out_total 0\n"
      "# HELP ccov_serve_errors_total In-band protocol errors answered by "
      "serve sessions\n"
      "# TYPE ccov_serve_errors_total counter\n"
      "ccov_serve_errors_total 0\n"
      "# HELP ccov_serve_pipeline_depth Flush jobs currently queued or "
      "running across sessions\n"
      "# TYPE ccov_serve_pipeline_depth gauge\n"
      "ccov_serve_pipeline_depth 0\n"
      "# HELP ccov_serve_requests_total Compute requests accepted by serve "
      "sessions\n"
      "# TYPE ccov_serve_requests_total counter\n"
      "ccov_serve_requests_total 0\n"
      "# HELP ccov_serve_sessions_active Serve sessions currently running\n"
      "# TYPE ccov_serve_sessions_active gauge\n"
      "ccov_serve_sessions_active 0\n"
      "# HELP ccov_serve_sessions_total Serve sessions started (stdio, TCP "
      "and HTTP batches)\n"
      "# TYPE ccov_serve_sessions_total counter\n"
      "ccov_serve_sessions_total 0\n"
      "# HELP ccov_serve_verbs_total Control verbs executed by serve "
      "sessions\n"
      "# TYPE ccov_serve_verbs_total counter\n"
      "ccov_serve_verbs_total 0\n"
      "# HELP ccov_solver_cancellations_total In-flight solves aborted by "
      "the server's cancel token (shutdown)\n"
      "# TYPE ccov_solver_cancellations_total counter\n"
      "ccov_solver_cancellations_total 0\n"
      "# HELP ccov_solver_nodes_total Cumulative branch-and-bound nodes "
      "searched across all requests\n"
      "# TYPE ccov_solver_nodes_total counter\n"
      "ccov_solver_nodes_total 0\n";
  EXPECT_EQ(engine.metrics().render_prometheus(), expected);
}

TEST(Metrics, SnapshotMatchesRenderedValues) {
  eng::MetricsRegistry reg;
  reg.counter("b_total", "h").add(2);
  reg.gauge("a_level", "h").add(-4);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a_level");
  EXPECT_EQ(snap[0].second, -4);
  EXPECT_EQ(snap[1].first, "b_total");
  EXPECT_EQ(snap[1].second, 2);
}

TEST(Metrics, ConcurrentUpdatesAreLossFree) {
  eng::MetricsRegistry reg;
  eng::Counter& c = reg.counter("hammered_total", "h");
  eng::Gauge& g = reg.gauge("balance", "h");
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.add();
        g.add(1);
        g.add(-1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, SolverNodesAccumulateAcrossRequests) {
  eng::Engine engine;
  eng::CoverRequest req;
  req.algorithm = "solve";
  req.n = 7;
  ASSERT_TRUE(engine.run(req).ok);
  const std::int64_t after_first =
      engine.metrics().value("ccov_solver_nodes_total");
  EXPECT_GT(after_first, 0);
  // A cache hit searches nothing, so the counter must not move.
  ASSERT_TRUE(engine.run(req).ok);
  EXPECT_EQ(engine.metrics().value("ccov_solver_nodes_total"), after_first);
}
