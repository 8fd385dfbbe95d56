#pragma once
/// \file solver.hpp
/// Exact branch-and-bound search for minimum DRC-coverings. Together with
/// the capacity/parity lower bounds this computationally certifies the
/// rho(n) values of Theorems 1 and 2 for small n.

#include <cstdint>
#include <optional>

#include "ccov/covering/cover.hpp"
#include "ccov/util/timer.hpp"

namespace ccov::covering {

struct SolverOptions {
  /// Maximum cycle length to branch on: 3 means triangles only, and any
  /// value >= 4 means C3 and C4 (the search never branches on longer
  /// cycles). Sizes {3,4} suffice to reach the theorems' optima; since
  /// the matching lower bound certifies them, the restricted search still
  /// proves rho(n) whenever it succeeds.
  std::uint32_t max_cycle_len = 4;
  /// Node budget (branch evaluations) before giving up.
  std::uint64_t max_nodes = 200'000'000;
  /// Capacity pruning (each cycle supplies exactly n arc units). Disabling
  /// it exists only for the ablation benchmark — searches explode.
  bool use_capacity_prune = true;
};

struct SolverResult {
  bool found = false;          ///< a covering within the budget was found
  bool exhausted = false;      ///< search space fully explored (proof of
                               ///< infeasibility when !found)
  bool timed_out = false;      ///< the stop's deadline expired mid-search
  bool cancelled = false;      ///< the stop's cancel token fired mid-search
  std::uint64_t nodes = 0;     ///< branch nodes counted; a child that the
                               ///< budget or the capacity prune ends at
                               ///< once is counted at its parent without
                               ///< being entered
  RingCover cover;             ///< witness when found
};

/// Search for a DRC-covering of K_n (n >= 3, else std::invalid_argument)
/// with at most `budget` cycles. `stop` is checked every 4096 nodes and
/// reported in timed_out/cancelled, never thrown; checking it leaves the
/// visited nodes unchanged, so an unfired stop gives the node counts of
/// a run without one (the golden-count tests pin this).
SolverResult solve_with_budget(std::uint32_t n, std::uint64_t budget,
                               const SolverOptions& opts = {},
                               const util::Interrupt& stop = {});

/// Compute the exact minimum by decreasing the budget from the
/// construction's value until infeasible. Returns the minimum count and a
/// witness, or nullopt if the node budget was exceeded.
std::optional<std::pair<std::uint64_t, RingCover>> solve_minimum(
    std::uint32_t n, const SolverOptions& opts = {});

/// Parallel variant; solve_with_budget is its one-worker case, which
/// starts no thread. The root node is visited once, then `threads`
/// workers (the caller plus threads-1 helpers; 0 = hardware concurrency,
/// capped at the core count and at the root fan-out) claim the root
/// subtrees in index order, drawing from one node budget
/// (`opts.max_nodes` in total). The witness is the lowest successful
/// subtree's, i.e. the serial cover. Once a subtree stops for the budget
/// or `stop`, no further subtree starts. So `nodes` and `cover` equal the
/// serial result whenever nothing stops, and every field does at
/// threads == 1. If a
/// subtree below the winner stopped, the cover is valid but may differ
/// from the serial one, and `exhausted == false` flags it.
SolverResult solve_with_budget_parallel(std::uint32_t n, std::uint64_t budget,
                                        const SolverOptions& opts = {},
                                        std::size_t threads = 0,
                                        const util::Interrupt& stop = {});

namespace detail {

/// Testing hook: the exact candidate branching list the search uses for
/// chord (a, b) of K_n in the initial (all-uncovered) state — duplicate
/// free, every cycle containing (a, b) as an edge, ordered by freshness
/// (stable on the lexicographic generation order). Allocates; the real
/// search keeps the same order as indices into its per-depth scratch.
std::vector<Cycle> candidate_cycles(std::uint32_t n, Vertex a, Vertex b,
                                    const SolverOptions& opts = {});

}  // namespace detail

}  // namespace ccov::covering
