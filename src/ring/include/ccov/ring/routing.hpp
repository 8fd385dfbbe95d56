#pragma once
/// \file routing.hpp
/// Routing sets of requests (chords) on the ring and measuring the induced
/// load. Used by the WDM cost model, the protection simulator, and the
/// capacity lower bound of the covering core.

#include <cstdint>
#include <vector>

#include "ccov/ring/arc.hpp"
#include "ccov/ring/tiling.hpp"

namespace ccov::ring {

/// Total minor-arc load of the all-to-all instance K_n on C_n:
///   L(n) = sum over chords of ring-distance.
/// Closed forms: n = 2p+1 -> n*p*(p+1)/2 ; n = 2p -> n*p*(p-1)/2 + p^2.
std::uint64_t all_to_all_min_load(std::uint32_t n);

/// Load vector of the minor routing of K_n (each entry is the number of
/// requests crossing that ring edge). Uniform by symmetry; exposed for
/// tests and the capacity-bound derivation.
std::vector<std::uint64_t> all_to_all_edge_load(std::uint32_t n);

}  // namespace ccov::ring
