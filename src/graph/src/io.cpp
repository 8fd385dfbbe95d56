#include "ccov/graph/io.hpp"

#include <ostream>

namespace ccov::graph {

void write_dot(std::ostream& os, const Graph& g, const std::string& name) {
  os << "graph " << name << " {\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v) os << "  " << v << ";\n";
  for (const Edge& e : g.edges()) os << "  " << e.u << " -- " << e.v << ";\n";
  os << "}\n";
}

}  // namespace ccov::graph
