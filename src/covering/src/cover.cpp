#include "ccov/covering/cover.hpp"

#include <algorithm>

#include "ccov/covering/drc.hpp"

namespace ccov::covering {

std::vector<std::size_t> composition(const RingCover& cover) {
  std::size_t maxlen = 0;
  for (const Cycle& c : cover.cycles) maxlen = std::max(maxlen, c.size());
  std::vector<std::size_t> comp(maxlen + 1, 0);
  for (const Cycle& c : cover.cycles) comp[c.size()] += 1;
  return comp;
}

std::size_t count_c3(const RingCover& cover) {
  return static_cast<std::size_t>(
      std::count_if(cover.cycles.begin(), cover.cycles.end(),
                    [](const Cycle& c) { return c.size() == 3; }));
}

std::size_t count_c4(const RingCover& cover) {
  return static_cast<std::size_t>(
      std::count_if(cover.cycles.begin(), cover.cycles.end(),
                    [](const Cycle& c) { return c.size() == 4; }));
}

namespace {

/// Chord (u, v), u < v, packed so that sorting orders chords
/// lexicographically.
std::uint64_t pack(Vertex u, Vertex v) {
  return (std::uint64_t{u} << 32) | v;
}

std::string uncovered_error(std::uint64_t chord, std::uint32_t have,
                            std::uint32_t want) {
  return "chord (" + std::to_string(chord >> 32) + "," +
         std::to_string(chord & 0xffffffffu) + ") covered " +
         std::to_string(have) + " < " + std::to_string(want) + " times";
}

/// The checks both validators share. Records the first malformed or
/// non-DRC cycle in `rep` and returns false; otherwise returns true with
/// one entry per chord coverage in `chords`, sorted. Costs O(k log k) in
/// the cover's total length k, whatever its n.
bool check_cycles(const RingCover& cover, ValidationReport& rep,
                  std::vector<std::uint64_t>& chords) {
  if (cover.n < 3) {
    rep.error = "ring size must be >= 3";
    return false;
  }
  const ring::Ring r(cover.n);
  std::size_t length = 0;
  for (const Cycle& c : cover.cycles) length += c.size();
  chords.reserve(length);
  for (const Cycle& c : cover.cycles) {
    // A DRC cycle is structurally valid, so only a failing one needs the
    // structural check to pick its error.
    if (satisfies_drc(r, c)) {
      for_each_chord(c,
                     [&](Vertex u, Vertex v) { chords.push_back(pack(u, v)); });
      continue;
    }
    if (!is_valid_cycle(c, cover.n)) {
      rep.error = "structurally invalid cycle " + to_string(c);
      return false;
    }
    rep.non_drc_cycles += 1;
    if (rep.error.empty())
      rep.error = "cycle " + to_string(c) + " violates the DRC";
  }
  if (rep.non_drc_cycles > 0) return false;
  std::sort(chords.begin(), chords.end());
  return true;
}

}  // namespace

ValidationReport validate_cover(const RingCover& cover, std::uint32_t lambda) {
  ValidationReport rep;
  std::vector<std::uint64_t> chords;
  if (!check_cycles(cover, rep, chords)) return rep;
  // lambda*K_n demands each of its n(n-1)/2 chords lambda times, and
  // every valid cycle chord is one of them: the counts follow from the
  // runs of equal chords in the sorted list, without building the
  // demand. (u, v) walks the chords in the same order, so the first gap
  // or short run is the first uncovered chord.
  std::uint64_t met = 0;  // sum over chords of min(count, lambda)
  Vertex u = 0, v = 1;
  for (std::size_t i = 0, j = 0; i < chords.size(); i = j) {
    while (j < chords.size() && chords[j] == chords[i]) ++j;
    const std::uint64_t have = j - i;
    const std::uint64_t used = std::min<std::uint64_t>(have, lambda);
    met += used;
    rep.duplicate_coverage += have - used;
    if (!rep.error.empty()) continue;
    if (chords[i] != pack(u, v)) {
      rep.error = uncovered_error(pack(u, v), 0, lambda);
    } else if (have < lambda) {
      rep.error = uncovered_error(chords[i], static_cast<std::uint32_t>(have),
                                  lambda);
    } else if (++v == cover.n) {
      ++u;
      v = u + 1;
    }
  }
  const std::uint64_t n = cover.n;
  rep.uncovered_chords = lambda * (n * (n - 1) / 2) - met;
  rep.ok = rep.uncovered_chords == 0;
  if (!rep.ok && rep.error.empty())
    rep.error = uncovered_error(pack(u, v), 0, lambda);
  return rep;
}

ValidationReport validate_cover_against(const RingCover& cover,
                                        const graph::Graph& demand) {
  ValidationReport rep;
  std::vector<std::uint64_t> chords;
  if (!check_cycles(cover, rep, chords)) return rep;
  std::vector<std::uint64_t> want;
  want.reserve(demand.num_edges());
  for (const auto& e : demand.edges()) want.push_back(pack(e.u, e.v));
  std::sort(want.begin(), want.end());
  // Merge the two sorted multisets one chord at a time. Coverage beyond
  // the demand, on demand chords or off them, counts as duplicate work.
  std::size_t i = 0, j = 0;
  while (i < want.size() || j < chords.size()) {
    const std::uint64_t chord =
        j == chords.size() || (i < want.size() && want[i] < chords[j])
            ? want[i]
            : chords[j];
    std::uint32_t mult = 0, have = 0;
    for (; i < want.size() && want[i] == chord; ++i) ++mult;
    for (; j < chords.size() && chords[j] == chord; ++j) ++have;
    if (have < mult) {
      rep.uncovered_chords += mult - have;
      if (rep.error.empty()) rep.error = uncovered_error(chord, have, mult);
    } else {
      rep.duplicate_coverage += have - mult;
    }
  }
  rep.ok = rep.uncovered_chords == 0;
  return rep;
}

std::string to_string(const RingCover& cover) {
  std::string s;
  for (const Cycle& c : cover.cycles) s += to_string(c);
  return s;
}

std::string summary(const RingCover& cover, const ValidationReport& rep) {
  std::string s = "n=" + std::to_string(cover.n) + ": " +
                  std::to_string(cover.size()) + " cycles (" +
                  std::to_string(count_c3(cover)) + " C3, " +
                  std::to_string(count_c4(cover)) + " C4), " +
                  (rep.ok ? "valid" : "INVALID: " + rep.error);
  return s;
}

}  // namespace ccov::covering
