#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/greedy.hpp"
#include "ccov/graph/graph.hpp"

using namespace ccov::covering;

class GreedyParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GreedyParam, ProducesValidCover) {
  const auto cover = greedy_cover(GetParam());
  const auto rep = validate_cover(cover);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST_P(GreedyParam, RespectsLowerBound) {
  const std::uint32_t n = GetParam();
  EXPECT_GE(greedy_cover(n).size(), parity_lower_bound(n));
}

TEST_P(GreedyParam, WithinConstantFactorOfOptimal) {
  // Greedy is suboptimal but must stay within 2x of rho on these sizes
  // (the benchmark tables report the actual ratio).
  const std::uint32_t n = GetParam();
  EXPECT_LE(greedy_cover(n).size(), 2 * rho(n)) << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GreedyParam,
                         ::testing::Values(4, 5, 6, 7, 8, 9, 10, 12, 15, 20,
                                           25, 31));

// The greedy's pick order (lexicographically first uncovered chord, then
// the freshest C3/C4 through it with ascending-vertex tie-break) is pinned
// byte-for-byte: the bitset rewrite of the chord set must reproduce the
// std::set-based covers exactly, and these goldens catch any future drift.
TEST(GreedyGolden, CoverPinnedOnK10) {
  EXPECT_EQ(to_string(greedy_cover(10)),
            "(0 1 2 3)(0 2 4 5)(0 4 6 7)(0 6 8 9)(0 1 3 8)(1 4 7 8)"
            "(1 5 6 9)(1 2 6)(1 2 5 7)(2 7 9)(2 3 4 8)(3 5 8 9)(3 6 7)"
            "(4 5 9)");
}

TEST(GreedyGolden, DemandCoverPinnedOnStar8) {
  ccov::graph::Graph star(8);  // center 0, leaves 1..7
  for (ccov::graph::Vertex v = 1; v < 8; ++v) star.add_edge(0, v);
  const auto cover = greedy_cover_demand(8, star);
  EXPECT_EQ(to_string(cover), "(0 1 2)(0 3 4)(0 5 6)(0 1 7)");
}

TEST(GreedyDemand, CoversSparseDemand) {
  ccov::graph::Graph demand(10);
  demand.add_edge(0, 5);
  demand.add_edge(2, 7);
  demand.add_edge(1, 2);
  const auto cover = greedy_cover_demand(10, demand);
  EXPECT_TRUE(validate_cover_against(cover, demand).ok);
  EXPECT_LE(cover.size(), 3u);
}

TEST(GreedyDemand, EmptyDemandEmptyCover) {
  ccov::graph::Graph demand(8);
  EXPECT_EQ(greedy_cover_demand(8, demand).size(), 0u);
}

TEST(GreedyDemand, OutOfRangeDemandVertexThrows) {
  // Graph::add_edge auto-grows the vertex set, so a demand built for a
  // larger instance can reach a smaller ring; the bitset is sized for n
  // and must reject it instead of indexing out of bounds.
  ccov::graph::Graph demand(5);
  demand.add_edge(0, 100);
  EXPECT_THROW(greedy_cover_demand(5, demand), std::invalid_argument);
}

TEST(GreedyDemand, RepeatedDemandChordThrows) {
  // Greedy covers each demand chord once, so a repeated chord (in either
  // orientation) would come back as a cover that fails validation.
  ccov::graph::Graph demand(6);
  demand.add_edge(0, 3);
  demand.add_edge(3, 0);
  try {
    greedy_cover_demand(6, demand);
    ADD_FAILURE() << "a repeated chord must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "greedy_cover_demand: repeated demand chord (0,3)");
  }
}
