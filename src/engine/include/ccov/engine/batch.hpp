#pragma once
/// \file batch.hpp
/// Deterministically ordered fan-out of CoverRequests over the shared
/// thread pool. results[i] always answers requests[i] regardless of the
/// worker count, so sweep output is byte-identical across --jobs values
/// (for deterministic algorithms; see deterministic_row()).

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/request.hpp"

namespace ccov::engine {

struct BatchOptions {
  /// Worker threads; 0 selects hardware concurrency, 1 runs inline on the
  /// calling thread (no pool).
  std::size_t jobs = 0;
};

class BatchRunner {
 public:
  explicit BatchRunner(Engine& engine, BatchOptions opts = {});

  /// Run every request; the result vector is index-aligned with the
  /// input. A task that throws (engine.run never should) yields an
  /// ok = false response rather than aborting the batch.
  std::vector<CoverResponse> run(const std::vector<CoverRequest>& requests);

  /// The scheduler behind run(): calls `unit(i)` exactly once for every
  /// i < count, where `key(i)` is unit i's canonical cache key. With one
  /// job the units run in index order on the calling thread. Otherwise
  /// the first unit of each distinct key fans out over the engine's pool
  /// and the repeats run afterwards, in index order, against the
  /// then-warm cache — each sees what it would have seen serially, so
  /// output stays byte-identical across every jobs value.
  void schedule(std::size_t count,
                const std::function<const std::string&(std::size_t)>& key,
                const std::function<void(std::size_t)>& unit);

 private:
  Engine& engine_;
  BatchOptions opts_;
};

}  // namespace ccov::engine
