#include "ccov/baselines/triple_cover.hpp"

#include <algorithm>
#include <stdexcept>

#include "ccov/covering/chord_bitset.hpp"
#include "ccov/util/ints.hpp"

namespace ccov::baselines {

std::uint64_t triple_covering_number(std::uint32_t n) {
  if (n < 3) throw std::invalid_argument("triple_covering_number: n >= 3");
  const std::uint64_t N = n;
  const std::uint64_t per_vertex = util::ceil_div<std::uint64_t>(N - 1, 2);
  return util::ceil_div<std::uint64_t>(N * per_vertex, 3);
}

std::vector<covering::Cycle> greedy_triple_cover(std::uint32_t n,
                                                 const util::Interrupt& stop) {
  using covering::Vertex;
  covering::ChordBitset uncovered(n);
  uncovered.set_all_chords();
  auto has = [&](Vertex u, Vertex v) {
    return uncovered.test(std::min(u, v), std::max(u, v));
  };

  std::vector<covering::Cycle> out;
  Vertex a = 0, b = 0;
  while (uncovered.first(a, b)) {
    stop.poll();
    // Pick the third vertex completing the most uncovered pairs.
    Vertex best = (a + 1) % n;
    int best_fresh = -1;
    for (Vertex w = 0; w < n; ++w) {
      if (w == a || w == b) continue;
      const int fresh = 1 + has(a, w) + has(b, w);  // (a, b) itself
      if (fresh > best_fresh) {
        best_fresh = fresh;
        best = w;
      }
    }
    covering::Cycle tri{a, b, best};
    for (std::size_t i = 0; i < 3; ++i) {
      const Vertex u = tri[i], v = tri[(i + 1) % 3];
      uncovered.clear(std::min(u, v), std::max(u, v));
    }
    out.push_back(std::move(tri));
  }
  return out;
}

}  // namespace ccov::baselines
