#include <gtest/gtest.h>

#include "ccov/ring/arc.hpp"
#include "ccov/ring/ring.hpp"
#include "ccov/ring/routing.hpp"
#include "ccov/ring/tiling.hpp"

using namespace ccov::ring;

TEST(Ring, SuccPredWrap) {
  Ring r(5);
  EXPECT_EQ(r.succ(4), 0u);
  EXPECT_EQ(r.pred(0), 4u);
  EXPECT_EQ(r.succ(2), 3u);
}

TEST(Ring, CwDist) {
  Ring r(8);
  EXPECT_EQ(r.cw_dist(2, 5), 3u);
  EXPECT_EQ(r.cw_dist(5, 2), 5u);
  EXPECT_EQ(r.cw_dist(3, 3), 0u);
}

TEST(Ring, DistIsMinorSide) {
  Ring r(8);
  EXPECT_EQ(r.dist(0, 3), 3u);
  EXPECT_EQ(r.dist(0, 5), 3u);
  EXPECT_EQ(r.dist(0, 4), 4u);  // antipodal
}

TEST(Ring, AntipodalOnlyForEven) {
  Ring even(8), odd(7);
  EXPECT_TRUE(even.antipodal(1, 5));
  EXPECT_FALSE(even.antipodal(1, 4));
  for (Vertex u = 0; u < 7; ++u)
    for (Vertex v = 0; v < 7; ++v) EXPECT_FALSE(odd.antipodal(u, v));
}

TEST(Ring, AdvanceWraps) {
  Ring r(6);
  EXPECT_EQ(r.advance(4, 5), 3u);
  EXPECT_EQ(r.advance(0, 12), 0u);
}

TEST(Arc, EndComputation) {
  Ring r(10);
  Arc a{7, 5};
  EXPECT_EQ(a.end(r), 2u);
}

TEST(Arc, CoversEdge) {
  Ring r(10);
  Arc a{8, 4};  // edges 8, 9, 0, 1
  EXPECT_TRUE(arc_covers_edge(r, a, 8));
  EXPECT_TRUE(arc_covers_edge(r, a, 0));
  EXPECT_TRUE(arc_covers_edge(r, a, 1));
  EXPECT_FALSE(arc_covers_edge(r, a, 2));
  EXPECT_FALSE(arc_covers_edge(r, a, 7));
}

TEST(Arc, MinorArcShortSide) {
  Ring r(9);
  Arc a = minor_arc(r, 1, 4);
  EXPECT_EQ(a.len, 3u);
  EXPECT_EQ(a.start, 1u);
  Arc b = minor_arc(r, 4, 1);  // same chord, same minor arc
  EXPECT_EQ(b.len, 3u);
}

TEST(Arc, MinorArcWrapSide) {
  Ring r(9);
  Arc a = minor_arc(r, 1, 7);  // cw dist 6, other side 3
  EXPECT_EQ(a.len, 3u);
  EXPECT_EQ(a.start, 7u);
}

TEST(Arc, MinorArcAntipodalDeterministic) {
  Ring r(8);
  Arc a = minor_arc(r, 2, 6);
  Arc b = minor_arc(r, 6, 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.len, 4u);
  EXPECT_EQ(a.start, 2u);  // min endpoint convention
}

TEST(Arc, ComplementInvolution) {
  Ring r(11);
  Arc a{3, 4};
  Arc c = complement(r, a);
  EXPECT_EQ(c.start, 7u);
  EXPECT_EQ(c.len, 7u);
  EXPECT_EQ(complement(r, c), a);
}

TEST(Arc, EdgesEnumerated) {
  Ring r(6);
  auto edges = arc_edges(r, Arc{4, 3});
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], 4u);
  EXPECT_EQ(edges[1], 5u);
  EXPECT_EQ(edges[2], 0u);
}

TEST(Tiling, ExactTilingAccepted) {
  Ring r(7);
  EXPECT_TRUE(is_exact_tiling(r, {Arc{0, 3}, Arc{3, 2}, Arc{5, 2}}));
}

TEST(Tiling, GapRejected) {
  Ring r(7);
  EXPECT_FALSE(is_exact_tiling(r, {Arc{0, 3}, Arc{3, 2}}));
}

TEST(Tiling, OverlapRejected) {
  Ring r(7);
  EXPECT_FALSE(is_exact_tiling(r, {Arc{0, 4}, Arc{3, 2}, Arc{5, 2}}));
}

TEST(Tiling, WrapArcLoad) {
  Ring r(5);
  auto load = edge_load(r, {Arc{3, 4}});  // edges 3, 4, 0, 1
  EXPECT_EQ(load[3], 1u);
  EXPECT_EQ(load[4], 1u);
  EXPECT_EQ(load[0], 1u);
  EXPECT_EQ(load[1], 1u);
  EXPECT_EQ(load[2], 0u);
}

TEST(Tiling, MaxLoadAndTotal) {
  Ring r(6);
  std::vector<Arc> arcs{Arc{0, 4}, Arc{2, 3}};
  EXPECT_EQ(max_load(r, arcs), 2u);
  EXPECT_EQ(total_length(arcs), 7u);
}

TEST(Routing, MinorRoutingLoadMatchesClosedForm) {
  for (std::uint32_t n : {5u, 6u, 7u, 8u, 9u, 12u, 15u, 16u}) {
    const auto load = all_to_all_edge_load(n);
    std::uint64_t total = 0;
    for (auto l : load) total += l;
    EXPECT_EQ(total, all_to_all_min_load(n)) << "n=" << n;
  }
}

TEST(Routing, ClosedFormOdd) {
  // n = 2p+1: L = n * p(p+1)/2.
  EXPECT_EQ(all_to_all_min_load(7), 7u * 6u);     // p=3: 7*6
  EXPECT_EQ(all_to_all_min_load(9), 9u * 10u);    // p=4: 9*10
}

TEST(Routing, ClosedFormEven) {
  // n = 2p: L = n*p(p-1)/2 + p^2.
  EXPECT_EQ(all_to_all_min_load(8), 8u * 6u + 16u);
  EXPECT_EQ(all_to_all_min_load(6), 6u * 3u + 9u);
}

TEST(Routing, UniformLoadBySymmetryOddN) {
  // For odd n every chord has a strict minor side, so the load is uniform
  // by rotational symmetry. (For even n the antipodal tie-break makes the
  // load vary by +-1 around the ring.)
  for (std::uint32_t n : {9u, 11u, 13u}) {
    const auto load = all_to_all_edge_load(n);
    for (auto l : load) EXPECT_EQ(l, load[0]) << n;
  }
}

TEST(Routing, EvenLoadWithinOneOfAverage) {
  const std::uint32_t n = 10;
  const auto load = all_to_all_edge_load(n);
  const std::uint64_t avg = all_to_all_min_load(n) / n;
  for (auto l : load) {
    EXPECT_GE(l + 3, avg);
    EXPECT_LE(l, avg + 3);
  }
}

// Property sweep: complement length identity and dist symmetry.
class RingParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RingParam, ComplementLengthsSumToN) {
  const std::uint32_t n = GetParam();
  Ring r(n);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = 0; v < n; ++v) {
      if (u == v) continue;
      Arc a = minor_arc(r, u, v);
      EXPECT_EQ(a.len + complement(r, a).len, n);
      EXPECT_LE(a.len, n / 2);
      EXPECT_EQ(r.dist(u, v), r.dist(v, u));
      EXPECT_EQ(r.cw_dist(u, v) + r.cw_dist(v, u), n);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingParam,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9, 12, 13, 16,
                                           17, 25, 32));
