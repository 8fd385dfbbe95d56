#pragma once
/// \file engine.hpp
/// The unified solver engine: one entry point through which every cover
/// request flows. run() resolves the algorithm by name, consults the
/// sharded CoverCache, executes, validates, and times the request. The
/// engine is thread-safe; BatchRunner fans requests across it using the
/// engine's shared thread pool (created lazily, reused by every batch —
/// a serve loop never pays per-call pool construction).

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>

#include "ccov/engine/cache.hpp"
#include "ccov/engine/metrics.hpp"
#include "ccov/engine/registry.hpp"
#include "ccov/engine/request.hpp"
#include "ccov/util/thread_pool.hpp"

namespace ccov::engine {

struct EngineOptions {
  /// Total LRU capacity of the cover cache, across all shards.
  std::size_t cache_capacity = 256;
  /// Lock-striped shards of the cover cache (clamped to the capacity).
  std::size_t cache_shards = CoverCache::kDefaultShards;
  /// Graceful degradation (`ccov serve --fallback greedy`): answer a
  /// deadline-expired exact solve with the greedy cover, flagged
  /// degraded:true — a valid (just non-minimal) protection cover beats
  /// a timeout error. Never applied to shutdown cancellation, and
  /// degraded answers are never cached.
  bool fallback_greedy = false;
};

class Engine {
 public:
  explicit Engine(EngineOptions opts = {},
                  AlgorithmRegistry& registry = AlgorithmRegistry::global());

  /// Execute one request. Never throws: algorithm failures, unknown
  /// names and invalid parameters come back as ok = false responses.
  CoverResponse run(const CoverRequest& req);

  /// As run(), with `req`'s canonical key computed once by the caller.
  CoverResponse run(const CoverRequest& req, const CanonicalKey& ck);

  /// The per-request unit every path shares. A cache hit calls
  /// `on_hit(entry)` with the stored canonical-frame entry while its
  /// shard is locked (don't stash the reference) and returns nullopt;
  /// the caller answers it through ck.to_canonical, as hit_response()
  /// does. Anything else — a miss, an error, a non-cacheable algorithm —
  /// is computed and returned (and cached when cacheable).
  template <typename OnHit>
  std::optional<CoverResponse> answer(const CoverRequest& req,
                                      const CanonicalKey& ck, OnHit&& on_hit) {
    const Algorithm* algo = registry_.find(req.algorithm);
    if (algo && algo->cacheable && req.n >= 3 &&
        cache_.probe(ck, [&](const CoverResponse& entry, std::uint64_t) {
          on_hit(entry);
        }))
      return std::nullopt;
    return compute(req, algo, ck);
  }

  /// The engine's shared thread pool (hardware concurrency), created on
  /// first call and reused for the engine's lifetime, so engines that
  /// never batch never spawn a thread. Concurrent batches isolate
  /// themselves with util::TaskGroup tokens.
  util::ThreadPool& pool();

  const AlgorithmRegistry& registry() const { return registry_; }
  CoverCache& cache() { return cache_; }
  const CoverCache& cache() const { return cache_; }

  /// The engine's metrics registry: cache hit/miss/eviction and
  /// size/capacity series are wired as scrape-time callbacks in the
  /// constructor; the serve sessions and the solver path update owned
  /// counters. Rendered by `GET /metrics` and the `metrics` serve verb.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// The miss path: validate, execute, validate the cover, time it and
  /// insert it under `ck`. `algo` is null when the name is unknown.
  CoverResponse compute(const CoverRequest& req, const Algorithm* algo,
                        const CanonicalKey& ck);

  EngineOptions opts_;
  AlgorithmRegistry& registry_;
  CoverCache cache_;
  MetricsRegistry metrics_;
  Counter* solver_nodes_ = nullptr;  ///< cumulative search nodes
  Counter* timed_out_ = nullptr;     ///< requests past their deadline
  Counter* degraded_ = nullptr;      ///< greedy-fallback answers served
  Counter* cancellations_ = nullptr; ///< solves aborted by the cancel token
  std::once_flag pool_once_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace ccov::engine
