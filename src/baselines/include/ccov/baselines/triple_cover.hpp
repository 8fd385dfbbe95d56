#pragma once
/// \file triple_cover.hpp
/// Classical covering of K_n by triangles WITHOUT the disjoint routing
/// constraint (paper refs [6] Mills-Mullin, [7] Stanton-Rogers). The paper
/// quotes the covering number C(n,3,2) = ceil(n/3 * ceil((n-1)/2)); this
/// module provides that closed form (Fort-Hedlund) plus a greedy
/// construction, so the benchmark tables can show what the DRC costs.

#include <cstdint>
#include <vector>

#include "ccov/covering/cover.hpp"
#include "ccov/util/timer.hpp"

namespace ccov::baselines {

/// Fort-Hedlund covering number C(n,3,2): the minimum number of triples
/// covering every pair of an n-set, n >= 3.
std::uint64_t triple_covering_number(std::uint32_t n);

/// Greedy triangle covering of K_n (ignores routing entirely). Returned
/// cycles generally violate the DRC — that is the point of the baseline.
/// `stop` is polled once per chosen triangle (util::Interrupted escapes).
std::vector<covering::Cycle> greedy_triple_cover(
    std::uint32_t n, const util::Interrupt& stop = {});

}  // namespace ccov::baselines
