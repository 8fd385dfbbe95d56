#include "ccov/ring/routing.hpp"

namespace ccov::ring {

std::uint64_t all_to_all_min_load(std::uint32_t n) {
  const std::uint64_t N = n;
  if (n % 2 == 1) {
    const std::uint64_t p = (N - 1) / 2;
    return N * p * (p + 1) / 2;
  }
  const std::uint64_t p = N / 2;
  return N * p * (p - 1) / 2 + p * p;
}

std::vector<std::uint64_t> all_to_all_edge_load(std::uint32_t n) {
  const Ring r(n);
  std::vector<std::uint64_t> load(n, 0);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const Arc a = minor_arc(r, u, v);
      Vertex e = a.start;
      for (std::uint32_t i = 0; i < a.len; ++i) {
        load[e] += 1;
        e = r.succ(e);
      }
    }
  }
  return load;
}

}  // namespace ccov::ring
