#pragma once
/// \file c4_cover.hpp
/// Coverings of K_n by 4-cycles without the DRC (paper ref [2], Bermond's
/// thesis, which determined the minimum number of C4s covering K_n).
/// We provide the degree/counting lower bound and a greedy construction.

#include <cstdint>
#include <vector>

#include "ccov/covering/cover.hpp"
#include "ccov/util/timer.hpp"

namespace ccov::baselines {

/// Counting lower bound for covering K_n by C4s: each C4 covers 4 edges
/// and gives each of its 4 vertices 2 incident covered edges, so
///   LB = max(ceil(n(n-1)/8), ceil(n * ceil((n-1)/2) / 4)).
std::uint64_t c4_covering_lower_bound(std::uint32_t n);

/// Greedy covering of K_n by C4s (a trailing triangle may be needed when
/// fewer than 4 fresh-edge vertices remain; it is counted like a cycle).
/// `stop` is polled once per chosen cycle (util::Interrupted escapes);
/// each choice scans O(n^2) vertex pairs.
std::vector<covering::Cycle> greedy_c4_cover(
    std::uint32_t n, const util::Interrupt& stop = {});

}  // namespace ccov::baselines
