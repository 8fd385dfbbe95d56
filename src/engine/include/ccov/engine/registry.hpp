#pragma once
/// \file registry.hpp
/// Name -> algorithm dispatch. The cover-producing strategies live in one
/// fixed table, kAlgorithms, sorted by name; the CLI (`ccov run --algo
/// NAME`), the sweep runner, the bench tables and the tests all resolve
/// names through find_algorithm, with no per-call-site dispatch code and
/// no registration step. Adding a strategy means adding one row to the
/// table (see src/engine/README.md).

#include <array>
#include <string_view>

#include "ccov/engine/request.hpp"

namespace ccov::engine {

/// What an algorithm hands back to the engine; the engine wraps it into a
/// CoverResponse (timing, validation, cache metadata).
struct AlgorithmOutcome {
  covering::RingCover cover;
  bool found = true;       ///< false when a search exhausted its budget
  bool exhausted = false;  ///< search space fully explored (solvers)
  std::uint64_t nodes = 0; ///< branch nodes counted (0 for constructions)
  bool timed_out = false;  ///< the solver's stop: the deadline expired
  bool cancelled = false;  ///< the solver's stop: the cancel token fired
};

/// A named cover-producing strategy.
struct Algorithm {
  std::string_view name;
  std::string_view description;
  /// Cacheable algorithms are deterministic functions of the canonical
  /// request and may be served from the CoverCache.
  bool cacheable = true;
  /// Produce a cover, checking `req.stop` as it goes. May throw
  /// util::Interrupted when the stop fires (the engine answers timed
  /// out), or another std::exception to signal an unsupported request
  /// (the engine converts it into an error response). The exact solvers
  /// report a stop in timed_out/cancelled instead of throwing.
  AlgorithmOutcome (*run)(const CoverRequest&) = nullptr;
  /// Optional custom validator (e.g. lambda*K_n demands). When null the
  /// engine validates against the request's demand (K_n by default).
  bool (*validate)(const CoverRequest&, const covering::RingCover&) = nullptr;
};

/// The built-in strategies, sorted by name: c4, construct, emz, greedy,
/// lambda, solve, solve-parallel, triple.
extern const std::array<Algorithm, 8> kAlgorithms;

/// The algorithm called `name`, or nullptr.
const Algorithm* find_algorithm(std::string_view name);

/// Lookup handle onto kAlgorithms, returned by Engine::registry().
struct AlgorithmTable {
  const Algorithm* find(std::string_view name) const {
    return find_algorithm(name);
  }
};

}  // namespace ccov::engine
