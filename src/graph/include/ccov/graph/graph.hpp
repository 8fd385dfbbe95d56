#pragma once
/// \file graph.hpp
/// Undirected multigraph stored as its edge list. Logical (demand) graphs
/// of the paper — K_n, lambda*K_n, and arbitrary instances — are represented
/// with this class; edge multiplicity carries demand multiplicity.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace ccov::graph {

using Vertex = std::uint32_t;

struct Edge {
  Vertex u;
  Vertex v;
  friend constexpr bool operator==(const Edge&, const Edge&) = default;
};

/// Normalize so that u <= v.
constexpr Edge normalized(Edge e) {
  return e.u <= e.v ? e : Edge{e.v, e.u};
}

class Graph {
 public:
  explicit Graph(std::uint32_t n = 0) : n_(n) {}

  std::uint32_t num_vertices() const { return n_; }
  std::size_t num_edges() const { return edges_.size(); }

  /// Add an undirected edge (parallel edges allowed, self-loops rejected),
  /// growing the vertex set to cover both endpoints.
  void add_edge(Vertex u, Vertex v) {
    if (u == v) throw std::invalid_argument("Graph: self-loops not supported");
    n_ = std::max(n_, std::max(u, v) + 1);
    edges_.push_back(normalized(Edge{u, v}));
  }

  /// All edges in insertion order, normalized u <= v.
  const std::vector<Edge>& edges() const { return edges_; }

 private:
  std::uint32_t n_;
  std::vector<Edge> edges_;
};

}  // namespace ccov::graph
