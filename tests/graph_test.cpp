#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "ccov/graph/generators.hpp"
#include "ccov/graph/graph.hpp"
#include "ccov/graph/io.hpp"

using namespace ccov::graph;

namespace {

// Copies of edge {u, v}, counted in the edge list.
std::size_t copies(const Graph& g, Vertex u, Vertex v) {
  return static_cast<std::size_t>(std::count(
      g.edges().begin(), g.edges().end(), normalized(Edge{u, v})));
}

// Edges at v, counted in the edge list.
std::size_t degree(const Graph& g, Vertex v) {
  return static_cast<std::size_t>(
      std::count_if(g.edges().begin(), g.edges().end(),
                    [v](const Edge& e) { return e.u == v || e.v == v; }));
}

}  // namespace

TEST(Graph, AddEdgeGrowsVertexSet) {
  Graph g;
  g.add_edge(2, 5);
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(copies(g, 2, 5), 1u);
  EXPECT_EQ(copies(g, 5, 2), 1u);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(Graph, ParallelEdgesCounted) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(copies(g, 0, 1), 2u);
  EXPECT_EQ(degree(g, 0), 2u);
}

TEST(Graph, EdgesNormalized) {
  Graph g(3);
  g.add_edge(2, 0);
  EXPECT_EQ(g.edges()[0].u, 0u);
  EXPECT_EQ(g.edges()[0].v, 2u);
}

TEST(Generators, CompleteGraphEdges) {
  Graph g = complete_graph(7);
  EXPECT_EQ(g.num_edges(), 21u);
  for (Vertex u = 0; u < 7; ++u) {
    EXPECT_EQ(degree(g, u), 6u);
    for (Vertex v = u + 1; v < 7; ++v) EXPECT_EQ(copies(g, u, v), 1u);
  }
}

TEST(Generators, CompleteMultigraphLambda) {
  Graph g = complete_multigraph(5, 3);
  EXPECT_EQ(g.num_edges(), 30u);
  EXPECT_EQ(copies(g, 1, 3), 3u);
}

TEST(Io, DotContainsEdges) {
  Graph tri(3);
  tri.add_edge(0, 1);
  tri.add_edge(1, 2);
  tri.add_edge(2, 0);
  std::ostringstream os;
  write_dot(os, tri, "tri");
  const std::string s = os.str();
  EXPECT_NE(s.find("graph tri"), std::string::npos);
  EXPECT_NE(s.find("0 -- 1"), std::string::npos);
}
