#include "ccov/covering/greedy.hpp"

#include <stdexcept>
#include <string>

#include "ccov/covering/chord_bitset.hpp"
#include "ccov/graph/generators.hpp"
#include "ccov/ring/ring.hpp"

namespace ccov::covering {

namespace {

// The uncovered chords live in a ChordBitset (the same packed
// representation the exact solver uses): membership is a single bit
// probe instead of a std::set<std::pair> lookup, and the
// lexicographically first uncovered chord is a word scan. Candidate
// cycles are built in fixed-capacity SmallCycles, so a full greedy run
// allocates nothing beyond the bitset and the returned cover.

SmallCycle sorted3(Vertex a, Vertex b, Vertex c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return {a, b, c};
}

SmallCycle sorted4(Vertex a, Vertex b, Vertex c, Vertex d) {
  if (a > b) std::swap(a, b);
  if (c > d) std::swap(c, d);
  if (a > c) std::swap(a, c);
  if (b > d) std::swap(b, d);
  if (b > c) std::swap(b, c);
  return {a, b, c, d};
}

int fresh(const ChordBitset& uncovered, const SmallCycle& c) {
  int f = 0;
  for_each_chord(c, [&](Vertex u, Vertex v) { f += uncovered.test(u, v); });
  return f;
}

/// Best C3/C4 through chord (a, b): every triangle (a, b, w) and every
/// quad adding a second vertex z on w's side. The nested w/z loops make
/// this O(n^2) per chosen cycle, so O(n^4) for a cover of K_n.
SmallCycle best_cycle_through(const ring::Ring& r, Vertex a, Vertex b,
                              const ChordBitset& uncovered) {
  const std::uint32_t n = r.size();
  SmallCycle best;
  int best_fresh = -1;
  for (Vertex w = 0; w < n; ++w) {
    if (w == a || w == b) continue;
    const SmallCycle tri = sorted3(a, b, w);
    const int f3 = fresh(uncovered, tri);
    if (f3 > best_fresh) {
      best_fresh = f3;
      best = tri;
    }
    // Try upgrading to a quad with a second vertex on the same side of
    // (a, b) as w (keeps (a, b) an edge of the sorted cycle).
    for (Vertex z = w + 1; z < n; ++z) {
      if (z == a || z == b) continue;
      const bool same_ab = (r.cw_dist(a, w) < r.cw_dist(a, b)) ==
                           (r.cw_dist(a, z) < r.cw_dist(a, b));
      if (!same_ab) continue;
      const SmallCycle quad = sorted4(a, b, w, z);
      const int f4 = fresh(uncovered, quad);
      if (f4 > best_fresh) {
        best_fresh = f4;
        best = quad;
      }
    }
  }
  return best;
}

RingCover greedy_impl(std::uint32_t n, ChordBitset uncovered,
                      std::size_t remaining, const util::Interrupt& stop) {
  const ring::Ring r(n);
  RingCover cover;
  cover.n = n;
  Vertex a = 0, b = 0;
  while (remaining > 0 && uncovered.first(a, b)) {
    stop.poll();
    const SmallCycle c = best_cycle_through(r, a, b, uncovered);
    for_each_chord(c, [&](Vertex u, Vertex v) {
      if (uncovered.test(u, v)) {
        uncovered.clear(u, v);
        --remaining;
      }
    });
    cover.cycles.push_back(c.to_cycle());
  }
  return cover;
}

}  // namespace

RingCover greedy_cover(std::uint32_t n, const util::Interrupt& stop) {
  ChordBitset uncovered(n);
  uncovered.set_all_chords();
  return greedy_impl(n, std::move(uncovered),
                     static_cast<std::size_t>(n) * (n - 1) / 2, stop);
}

RingCover greedy_cover_demand(std::uint32_t n, const graph::Graph& demand,
                              const util::Interrupt& stop) {
  ChordBitset uncovered(n);
  for (const auto& e : demand.edges()) {
    if (e.u >= n || e.v >= n)
      throw std::invalid_argument(
          "greedy_cover_demand: demand vertex out of range for ring size " +
          std::to_string(n));
    const Vertex u = e.u < e.v ? e.u : e.v;
    const Vertex v = e.u < e.v ? e.v : e.u;
    if (uncovered.test(u, v))
      throw std::invalid_argument(
          "greedy_cover_demand: repeated demand chord (" + std::to_string(u) +
          "," + std::to_string(v) + ")");
    uncovered.set(u, v);
  }
  return greedy_impl(n, std::move(uncovered), demand.num_edges(), stop);
}

}  // namespace ccov::covering
