#pragma once
/// \file instance.hpp
/// Communication instances (the logical graph I of the paper). An instance
/// is a symmetric demand multigraph; the paper's main case is the total
/// exchange (all-to-all) instance K_n, with lambda*K_n and arbitrary
/// instances as extensions.

#include <cstdint>

#include "ccov/graph/graph.hpp"

namespace ccov::wdm {

using graph::Graph;
using graph::Vertex;

/// Symmetric demand set on n nodes.
class Instance {
 public:
  explicit Instance(Graph demands) : demands_(std::move(demands)) {}

  /// Total exchange: every pair of nodes communicates (the paper's I = K_n).
  static Instance all_to_all(std::uint32_t n);

  const Graph& demands() const { return demands_; }
  std::uint32_t nodes() const { return demands_.num_vertices(); }
  std::size_t num_requests() const { return demands_.num_edges(); }

 private:
  Graph demands_;
};

}  // namespace ccov::wdm
