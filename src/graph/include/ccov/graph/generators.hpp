#pragma once
/// \file generators.hpp
/// The paper's demand instances: complete_graph(n) is the all-to-all K_n,
/// complete_multigraph(n, lambda) the lambda*K_n extension.

#include <cstdint>

#include "ccov/graph/graph.hpp"

namespace ccov::graph {

Graph complete_graph(std::uint32_t n);
/// lambda parallel copies of each K_n edge (the paper's lambda*K_n instance).
Graph complete_multigraph(std::uint32_t n, std::uint32_t lambda);

}  // namespace ccov::graph
