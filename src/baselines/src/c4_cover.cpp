#include "ccov/baselines/c4_cover.hpp"

#include <algorithm>
#include <stdexcept>

#include "ccov/covering/chord_bitset.hpp"
#include "ccov/util/ints.hpp"

namespace ccov::baselines {

std::uint64_t c4_covering_lower_bound(std::uint32_t n) {
  if (n < 4) throw std::invalid_argument("c4_covering_lower_bound: n >= 4");
  const std::uint64_t N = n;
  const std::uint64_t edges_bound = util::ceil_div<std::uint64_t>(N * (N - 1), 8);
  const std::uint64_t per_vertex = util::ceil_div<std::uint64_t>(N - 1, 2);
  const std::uint64_t vertex_bound = util::ceil_div<std::uint64_t>(N * per_vertex, 4);
  return std::max(edges_bound, vertex_bound);
}

std::vector<covering::Cycle> greedy_c4_cover(std::uint32_t n,
                                             const util::Interrupt& stop) {
  using covering::Vertex;
  covering::ChordBitset uncovered(n);
  uncovered.set_all_chords();
  auto has = [&](Vertex u, Vertex v) {
    return uncovered.test(std::min(u, v), std::max(u, v));
  };
  auto erase = [&](Vertex u, Vertex v) {
    uncovered.clear(std::min(u, v), std::max(u, v));
  };

  std::vector<covering::Cycle> out;
  Vertex a = 0, b = 0;
  while (uncovered.first(a, b)) {
    stop.poll();
    // Choose c, d maximizing fresh edges of the 4-cycle (a, b, c, d).
    Vertex bc = 0, bd = 0;
    int best = -1;
    for (Vertex c = 0; c < n; ++c) {
      if (c == a || c == b) continue;
      for (Vertex d = 0; d < n; ++d) {
        if (d == a || d == b || d == c) continue;
        const int fresh = 1 + (has(b, c) ? 1 : 0) + (has(c, d) ? 1 : 0) +
                          (has(d, a) ? 1 : 0);
        if (fresh > best) {
          best = fresh;
          bc = c;
          bd = d;
        }
      }
    }
    covering::Cycle quad{a, b, bc, bd};
    erase(a, b);
    erase(b, bc);
    erase(bc, bd);
    erase(bd, a);
    out.push_back(std::move(quad));
  }
  return out;
}

}  // namespace ccov::baselines
