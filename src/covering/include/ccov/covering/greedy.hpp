#pragma once
/// \file greedy.hpp
/// Greedy DRC-covering baseline: repeatedly adds the C3/C4 covering the
/// most uncovered chords. Simple, valid, but suboptimal — used in the
/// benchmark tables to show the gap to the paper's constructions.

#include "ccov/covering/cover.hpp"
#include "ccov/graph/graph.hpp"

namespace ccov::covering {

/// Greedy covering of K_n over C_n.
RingCover greedy_cover(std::uint32_t n);

/// Greedy covering of an arbitrary demand graph over C_n (the `greedy`
/// algorithm's path for requests that carry explicit demand chords).
/// Throws std::invalid_argument if the demand mentions a vertex >= n or
/// repeats a chord (each chord is covered once).
RingCover greedy_cover_demand(std::uint32_t n, const graph::Graph& demand);

}  // namespace ccov::covering
