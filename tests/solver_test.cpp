#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/solver.hpp"

using namespace ccov::covering;

// The solver plus the matching lower bound computationally certify the
// rho(n) values of Theorems 1 and 2 for small n: a covering with rho(n)
// cycles exists (solver witness) and none smaller can (parity bound, and
// for extra assurance exhaustive infeasibility at rho-1 on the smallest
// cases).

class SolverParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SolverParam, FindsCoveringAtRho) {
  const std::uint32_t n = GetParam();
  const auto res = solve_with_budget(n, rho(n));
  ASSERT_TRUE(res.found) << "n=" << n;
  const auto rep = validate_cover(res.cover);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_LE(res.cover.size(), rho(n));
}

INSTANTIATE_TEST_SUITE_P(Small, SolverParam,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9));

class SolverInfeasibleParam : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(SolverInfeasibleParam, NoCoveringBelowRho) {
  const std::uint32_t n = GetParam();
  const auto res = solve_with_budget(n, rho(n) - 1);
  EXPECT_FALSE(res.found) << "n=" << n;
  EXPECT_TRUE(res.exhausted) << "search must be a proof, not a timeout";
}

INSTANTIATE_TEST_SUITE_P(Small, SolverInfeasibleParam,
                         ::testing::Values(4, 5, 6, 7, 8));

TEST(Solver, MinimumMatchesRhoOnK7) {
  const auto min = solve_minimum(7);
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(min->first, rho(7));
  EXPECT_TRUE(validate_cover(min->second).ok);
}

TEST(Solver, MinimumMatchesRhoOnK8) {
  const auto min = solve_minimum(8);
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(min->first, rho(8));
}

TEST(Solver, NodeBudgetReported) {
  SolverOptions opts;
  opts.max_nodes = 10;  // absurdly small: must hit the budget on K_8
  const auto res = solve_with_budget(8, rho(8) - 1, opts);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
  // Nodes 1..max_nodes are granted; node max_nodes + 1 finds the budget
  // spent, is counted, and stops the search.
  EXPECT_EQ(res.nodes, opts.max_nodes + 1);
}

TEST(Solver, TrivialK3) {
  const auto res = solve_with_budget(3, 1);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cover.cycles.size(), 1u);
  EXPECT_EQ(res.cover.cycles[0].size(), 3u);
}

// ---------------------------------------------------------------------------
// Search determinism goldens. The branch-and-bound search order is part of
// the library contract: node counts and witnesses below were captured from
// the original vector/sort-based implementation, and the bitset/arena core
// must reproduce them exactly. Any future "optimization" that changes the
// candidate ordering, the freshness tie-break, or the pruning sequence
// trips these immediately. (The n=12 proof at budget 18 — 39,310,429
// nodes — is pinned out-of-band in the perf harness; it is too slow for
// the unit tier.)

struct SearchGolden {
  std::uint32_t n;
  std::uint64_t nodes;
  const char* cover;  // concatenated to_string() of the witness
};

constexpr SearchGolden kFeasibleGolden[] = {
    {5, 5, "(0 1 2 3)(0 2 4)(1 3 4)"},
    {6, 6, "(0 1 2 3)(0 2 4 5)(0 1 3 4)(1 4 5)(2 3 5)"},
    {7, 10, "(0 1 2 4)(0 2 3 5)(0 3 4 6)(1 3 6)(1 4 5)(2 5 6)"},
    {8, 24,
     "(0 1 2 3)(0 2 4 5)(0 4 6 7)(0 1 3 6)(1 4 5 6)(1 5 7)(2 3 5)(2 6 7)"
     "(3 4 7)"},
    {9, 72,
     "(0 1 2 5)(0 2 3 6)(0 3 4 7)(0 4 5 8)(1 3 5 6)(1 4 6 8)(1 5 7)(2 4 8)"
     "(2 6 7)(3 7 8)"},
    {11, 54,
     "(0 1 2 6)(0 2 3 7)(0 3 4 8)(0 4 5 9)(0 5 6 10)(1 3 5 7)(1 4 6 8)"
     "(1 5 8 9)(1 6 7 10)(2 4 7 8)(2 5 10)(2 7 9)(3 6 9)(3 8 10)(4 9 10)"},
    {13, 819,
     "(0 1 2 7)(0 2 3 8)(0 3 4 9)(0 4 5 10)(0 5 6 11)(0 6 7 12)(1 3 5 8)"
     "(1 4 6 9)(1 5 7 10)(1 6 8 11)(1 7 8 12)(2 4 7 9)(2 5 9 10)(2 6 12)"
     "(2 8 9 11)(3 6 10)(3 7 11)(3 9 12)(4 8 10 11)(4 10 12)(5 11 12)"},
    {15, 753,
     "(0 1 2 8)(0 2 3 9)(0 3 4 10)(0 4 5 11)(0 5 6 12)(0 6 7 13)(0 7 8 14)"
     "(1 3 5 9)(1 4 6 10)(1 5 7 11)(1 6 8 12)(1 7 9 13)(1 8 9 14)"
     "(2 4 7 10)(2 5 8 11)(2 6 9 12)(2 7 12 13)(2 9 10 14)(3 6 11 12)"
     "(3 7 14)(3 8 13)(3 10 11)(4 8 10 12)(4 9 11 13)(4 11 14)(5 10 13)"
     "(5 12 14)(6 13 14)"},
};

TEST(SolverGolden, FeasibleNodesAndWitnessesPinned) {
  for (const SearchGolden& g : kFeasibleGolden) {
    const auto res = solve_with_budget(g.n, rho(g.n));
    ASSERT_TRUE(res.found) << "n=" << g.n;
    EXPECT_EQ(res.nodes, g.nodes) << "n=" << g.n;
    EXPECT_EQ(to_string(res.cover), g.cover) << "n=" << g.n;
  }
}

struct InfeasibleGolden {
  std::uint32_t n;
  std::uint64_t nodes;
};

constexpr InfeasibleGolden kInfeasibleGolden[] = {
    {5, 1}, {6, 1}, {7, 1}, {8, 9823}, {9, 1}, {10, 1}, {11, 1}, {13, 1},
};

TEST(SolverGolden, InfeasibleProofNodesPinned) {
  for (const InfeasibleGolden& g : kInfeasibleGolden) {
    const auto res = solve_with_budget(g.n, rho(g.n) - 1);
    EXPECT_FALSE(res.found) << "n=" << g.n;
    EXPECT_TRUE(res.exhausted) << "n=" << g.n;
    EXPECT_EQ(res.nodes, g.nodes) << "n=" << g.n;
  }
}

TEST(SolverGolden, MinimumWitnessPinnedOnK9) {
  const auto min = solve_minimum(9);
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(min->first, rho(9));
  EXPECT_EQ(to_string(min->second),
            "(3 7 8)(2 3 6 7)(2 6 8)(1 2 5 6)(1 3 5 7)(1 5 8)(0 1 4 5)"
            "(0 2 4 6)(0 3 4 7)(0 4 8)");
}

// ---------------------------------------------------------------------------
// Candidate enumeration. The rewritten generator emits each candidate
// exactly once, in lexicographically sorted vertex order, with no dedup
// pass — these regression tests pin that the lists stay duplicate-free
// and complete for every chord.

TEST(SolverCandidates, DuplicateFreeForEveryChord) {
  for (std::uint32_t n = 5; n <= 12; ++n) {
    for (Vertex a = 0; a < n; ++a) {
      for (Vertex b = a + 1; b < n; ++b) {
        const auto cands = detail::candidate_cycles(n, a, b);
        std::set<Cycle> seen;
        for (const Cycle& c : cands) {
          EXPECT_TRUE(seen.insert(c).second)
              << "duplicate candidate " << to_string(c) << " for chord ("
              << a << "," << b << "), n=" << n;
          EXPECT_TRUE(is_valid_cycle(c, n)) << to_string(c);
          EXPECT_TRUE(std::is_sorted(c.begin(), c.end())) << to_string(c);
          // (a, b) must be an edge of the circularly ordered cycle.
          bool has_chord = false;
          for_each_chord(c, [&](Vertex u, Vertex v) {
            has_chord |= (u == a && v == b);
          });
          EXPECT_TRUE(has_chord) << to_string(c);
        }
      }
    }
  }
}

TEST(SolverCandidates, CountMatchesClosedForm) {
  // n-2 triangles, plus quads whose two extra vertices share one of the
  // two open arcs between a and b.
  for (std::uint32_t n = 5; n <= 12; ++n) {
    for (Vertex a = 0; a < n; ++a) {
      for (Vertex b = a + 1; b < n; ++b) {
        const std::size_t inside = b - a - 1;
        const std::size_t outside = n - 2 - inside;
        const std::size_t expect = (n - 2) + inside * (inside - 1) / 2 +
                                   outside * (outside - 1) / 2;
        EXPECT_EQ(detail::candidate_cycles(n, a, b).size(), expect)
            << "chord (" << a << "," << b << "), n=" << n;
      }
    }
  }
}

TEST(SolverCandidates, TriangleOnlyWhenMaxLenIsThree) {
  SolverOptions opts;
  opts.max_cycle_len = 3;
  const auto cands = detail::candidate_cycles(9, 2, 6, opts);
  EXPECT_EQ(cands.size(), 7u);  // n - 2 triangles, no quads
  for (const Cycle& c : cands) EXPECT_EQ(c.size(), 3u);
}
