#pragma once
/// \file emz.hpp
/// The Eilam-Moran-Zaks objective (paper ref [3]): same ring survivability
/// conditions, but minimizing the SUM OF RING SIZES (total vertices over
/// all sub-networks) instead of the number of sub-networks. This module
/// evaluates that objective on any cover (the `emz` algorithm serves the
/// count-greedy cover, whose C3/C4 already share the best fresh edges
/// per vertex), letting the benchmarks contrast the two cost models
/// (which coincide asymptotically on K_n because optimal covers use only
/// C3/C4, but diverge on sparse instances).

#include <cstdint>

#include "ccov/covering/cover.hpp"
#include "ccov/graph/graph.hpp"

namespace ccov::baselines {

/// Sum of cycle sizes (the EMZ cost).
std::uint64_t emz_objective(const covering::RingCover& cover);

/// Lower bound on the EMZ cost for covering a demand graph on C_n: every
/// demand edge must appear as a cycle edge, a size-k cycle supplies k
/// edges, and a DRC cycle's arcs tile the ring, so
///   sum sizes >= max(#demands distributed, size-3 floor per cycle ...).
/// We use: ceil(total_minor_load / n) cycles minimum, each of size >= 3,
/// plus the edge-count bound (sum sizes >= #demand edges when no edge is
/// covered twice is not valid for coverings; we use the load bound).
std::uint64_t emz_lower_bound(std::uint32_t n);

}  // namespace ccov::baselines
