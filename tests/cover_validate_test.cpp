#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "ccov/covering/cover.hpp"
#include "ccov/covering/drc.hpp"
#include "ccov/graph/generators.hpp"
#include "ccov/util/prng.hpp"

using namespace ccov::covering;

namespace {

RingCover paper_k4_cover() {
  return RingCover{4, {{0, 1, 2, 3}, {0, 1, 3}, {0, 2, 3}}};
}

/// Reference validator: one map entry per demand chord, the DRC checked
/// by brute force over all routings.
ValidationReport oracle_validate(const RingCover& cover,
                                 const ccov::graph::Graph& demand) {
  ValidationReport rep;
  if (cover.n < 3) {
    rep.error = "ring size must be >= 3";
    return rep;
  }
  const ccov::ring::Ring r(cover.n);
  std::map<std::pair<Vertex, Vertex>, std::uint32_t> want, have;
  for (const auto& e : demand.edges()) want[{e.u, e.v}] += 1;
  for (const Cycle& c : cover.cycles) {
    if (!is_valid_cycle(c, cover.n)) {
      rep.error = "structurally invalid cycle " + to_string(c);
      return rep;
    }
    if (!satisfies_drc_bruteforce(r, c)) {
      rep.non_drc_cycles += 1;
      if (rep.error.empty())
        rep.error = "cycle " + to_string(c) + " violates the DRC";
      continue;
    }
    for_each_chord(c, [&](Vertex u, Vertex v) { have[{u, v}] += 1; });
  }
  if (rep.non_drc_cycles > 0) return rep;
  for (const auto& [chord, mult] : want) {
    const std::uint32_t got = have.count(chord) ? have[chord] : 0;
    if (got < mult) {
      rep.uncovered_chords += mult - got;
      if (rep.error.empty())
        rep.error = "chord (" + std::to_string(chord.first) + "," +
                    std::to_string(chord.second) + ") covered " +
                    std::to_string(got) + " < " + std::to_string(mult) +
                    " times";
    } else {
      rep.duplicate_coverage += got - mult;
    }
  }
  for (const auto& [chord, cnt] : have)
    if (!want.count(chord)) rep.duplicate_coverage += cnt;
  rep.ok = rep.uncovered_chords == 0;
  return rep;
}

void expect_same_report(const ValidationReport& got,
                        const ValidationReport& want, int iter) {
  EXPECT_EQ(got.ok, want.ok) << iter;
  EXPECT_EQ(got.error, want.error) << iter;
  EXPECT_EQ(got.uncovered_chords, want.uncovered_chords) << iter;
  EXPECT_EQ(got.duplicate_coverage, want.duplicate_coverage) << iter;
  EXPECT_EQ(got.non_drc_cycles, want.non_drc_cycles) << iter;
}

}  // namespace

TEST(Cover, PaperK4CoverValidates) {
  const auto rep = validate_cover(paper_k4_cover());
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.uncovered_chords, 0u);
  EXPECT_EQ(rep.non_drc_cycles, 0u);
}

TEST(Cover, PaperInvalidCoverRejected) {
  // The paper's counterexample: two C4s cover K_4's edges but (0,2,3,1)
  // violates the DRC.
  RingCover c{4, {{0, 1, 2, 3}, {0, 2, 3, 1}}};
  const auto rep = validate_cover(c);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.non_drc_cycles, 1u);
}

TEST(Cover, MissingChordDetected) {
  RingCover c{4, {{0, 1, 2, 3}, {0, 1, 3}}};  // chord (0,2) uncovered
  const auto rep = validate_cover(c);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.uncovered_chords, 1u);
  EXPECT_NE(rep.error.find("(0,2)"), std::string::npos);
}

TEST(Cover, DuplicateCoverageCounted) {
  const auto base = validate_cover(paper_k4_cover());
  RingCover c{4, {{0, 1, 2, 3}, {0, 1, 3}, {0, 2, 3}, {0, 1, 2}}};
  const auto rep = validate_cover(c);
  EXPECT_TRUE(rep.ok);
  // The extra triangle re-covers exactly its 3 chords.
  EXPECT_EQ(rep.duplicate_coverage, base.duplicate_coverage + 3);
}

TEST(Cover, StructurallyInvalidCycleReported) {
  RingCover c{5, {{0, 1, 1}}};
  const auto rep = validate_cover(c);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("invalid cycle"), std::string::npos);
}

TEST(Cover, CompositionCounts) {
  const auto comp = composition(paper_k4_cover());
  EXPECT_EQ(comp[3], 2u);
  EXPECT_EQ(comp[4], 1u);
  EXPECT_EQ(count_c3(paper_k4_cover()), 2u);
  EXPECT_EQ(count_c4(paper_k4_cover()), 1u);
}

TEST(Cover, ValidateAgainstPartialDemand) {
  ccov::graph::Graph demand(6);
  demand.add_edge(0, 3);
  demand.add_edge(1, 2);
  RingCover c{6, {{0, 1, 2, 3}}};  // covers (0,3) as cycle edge? edges: 01,12,23,30
  const auto rep = validate_cover_against(c, demand);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(Cover, ValidateAgainstMultigraphDemand) {
  const auto demand = ccov::graph::complete_multigraph(4, 2);
  // Single cover of K_4 does not satisfy lambda = 2.
  const auto rep = validate_cover_against(paper_k4_cover(), demand);
  EXPECT_FALSE(rep.ok);
  // Two copies do.
  RingCover doubled = paper_k4_cover();
  for (const auto& cyc : paper_k4_cover().cycles) doubled.cycles.push_back(cyc);
  EXPECT_TRUE(validate_cover_against(doubled, demand).ok);
}

TEST(Cover, SummaryMentionsValidity) {
  const auto cover = paper_k4_cover();
  EXPECT_NE(summary(cover, validate_cover(cover)).find("valid"),
            std::string::npos);
}

TEST(Cover, TinyRingRejected) {
  RingCover c{2, {}};
  EXPECT_FALSE(validate_cover(c).ok);
}

TEST(Cover, HugeRingWithoutCyclesCostsNothing) {
  // Validation costs O(cover), not O(n^2): a header-only n = 100000 cover
  // reports every chord of K_n uncovered without enumerating them.
  const auto rep = validate_cover(RingCover{100000, {}});
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.uncovered_chords, 4999950000u);
  EXPECT_EQ(rep.duplicate_coverage, 0u);
  EXPECT_EQ(rep.error, "chord (0,1) covered 0 < 1 times");
}

TEST(Cover, FirstUncoveredChordFollowsTheLastCoveredRun) {
  // (0,1)..(0,4) and (1,2) are covered; (1,3) is the first gap.
  RingCover c{5, {{0, 1, 2}, {0, 2, 3}, {0, 3, 4}}};
  const auto rep = validate_cover(c);
  EXPECT_EQ(rep.error, "chord (1,3) covered 0 < 1 times");
  EXPECT_EQ(rep.uncovered_chords, 10u - 7u);
}

TEST(Cover, ReportsMatchTheMapOracle) {
  // Random covers (mostly circularly ordered C3/C4s, some crossing or
  // malformed cycles) against K_n and against random multigraph demands:
  // every report field must equal the reference validator's.
  ccov::util::Xoshiro256 rng(0x5EEDu);
  for (int iter = 0; iter < 400; ++iter) {
    const auto n = static_cast<std::uint32_t>(3 + rng.below(8));
    RingCover cover{n, {}};
    const std::size_t cycles = rng.below(2 * n);
    for (std::size_t k = 0; k < cycles; ++k) {
      const std::size_t len = 3 + rng.below(2);
      Cycle c;
      for (std::size_t i = 0; i < len; ++i)
        c.push_back(static_cast<Vertex>(rng.below(n + (rng.below(50) == 0))));
      if (rng.below(10) != 0) {
        std::sort(c.begin(), c.end());
        c.erase(std::unique(c.begin(), c.end()), c.end());
        if (c.size() < 3 || c.back() >= n) continue;
        std::rotate(c.begin(), c.begin() + rng.below(c.size()), c.end());
        if (rng.below(2)) std::reverse(c.begin(), c.end());
      }
      cover.cycles.push_back(std::move(c));
    }
    expect_same_report(validate_cover(cover),
                       oracle_validate(cover, ccov::graph::complete_graph(n)),
                       iter);
    ccov::graph::Graph demand(n);
    for (std::size_t e = rng.below(3 * n); e > 0; --e) {
      const auto u = static_cast<Vertex>(rng.below(n));
      const auto v = static_cast<Vertex>(rng.below(n));
      if (u != v) demand.add_edge(u, v);
    }
    expect_same_report(validate_cover_against(cover, demand),
                       oracle_validate(cover, demand), iter);
  }
}
