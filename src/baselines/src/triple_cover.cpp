#include "ccov/baselines/triple_cover.hpp"

#include <set>
#include <stdexcept>

#include "ccov/util/ints.hpp"

namespace ccov::baselines {

std::uint64_t triple_covering_number(std::uint32_t n) {
  if (n < 3) throw std::invalid_argument("triple_covering_number: n >= 3");
  const std::uint64_t N = n;
  const std::uint64_t per_vertex = util::ceil_div<std::uint64_t>(N - 1, 2);
  return util::ceil_div<std::uint64_t>(N * per_vertex, 3);
}

std::vector<covering::Cycle> greedy_triple_cover(std::uint32_t n) {
  using covering::Vertex;
  std::set<std::pair<Vertex, Vertex>> uncovered;
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b) uncovered.insert({a, b});

  std::vector<covering::Cycle> out;
  while (!uncovered.empty()) {
    const auto [a, b] = *uncovered.begin();
    // Pick the third vertex completing the most uncovered pairs.
    Vertex best = (a + 1) % n;
    int best_fresh = -1;
    for (Vertex w = 0; w < n; ++w) {
      if (w == a || w == b) continue;
      int fresh = 1;  // (a, b) itself
      if (uncovered.count({std::min(a, w), std::max(a, w)})) ++fresh;
      if (uncovered.count({std::min(b, w), std::max(b, w)})) ++fresh;
      if (fresh > best_fresh) {
        best_fresh = fresh;
        best = w;
      }
    }
    covering::Cycle tri{a, b, best};
    for (std::size_t i = 0; i < 3; ++i) {
      Vertex u = tri[i], v = tri[(i + 1) % 3];
      if (u > v) std::swap(u, v);
      uncovered.erase({u, v});
    }
    out.push_back(std::move(tri));
  }
  return out;
}

}  // namespace ccov::baselines
