#pragma once
/// \file io.hpp
/// Graphviz DOT export of a graph (used by the WDM design example).

#include <iosfwd>
#include <string>

#include "ccov/graph/graph.hpp"

namespace ccov::graph {

/// Emit the graph as an undirected DOT document.
void write_dot(std::ostream& os, const Graph& g,
               const std::string& name = "G");

}  // namespace ccov::graph
