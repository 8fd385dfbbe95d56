#include "ccov/graph/generators.hpp"

namespace ccov::graph {

Graph complete_graph(std::uint32_t n) { return complete_multigraph(n, 1); }

Graph complete_multigraph(std::uint32_t n, std::uint32_t lambda) {
  Graph g(n);
  for (std::uint32_t u = 0; u < n; ++u)
    for (std::uint32_t v = u + 1; v < n; ++v)
      for (std::uint32_t k = 0; k < lambda; ++k) g.add_edge(u, v);
  return g;
}

}  // namespace ccov::graph
