#include "ccov/covering/drc.hpp"

#include <algorithm>

#include "ccov/ring/tiling.hpp"

namespace ccov::covering {

namespace {

/// Sum of forward (clockwise) gaps along the cycle; the cycle is clockwise
/// circularly ordered iff this equals n (the walk winds exactly once).
std::uint64_t forward_gap_sum(const ring::Ring& r, const Cycle& c) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Vertex u = c[i];
    const Vertex v = c[(i + 1) % c.size()];
    if (u == v) return 0;  // invalid cycle; reject
    sum += r.cw_dist(u, v);
  }
  return sum;
}

}  // namespace

bool satisfies_drc(const ring::Ring& r, const Cycle& c) {
  const std::uint64_t n = r.size();
  if (c.size() < 3) return false;
  for (Vertex v : c)
    if (v >= n) return false;
  // A walk that winds exactly once passes each vertex once, so a winding
  // sum also rules out repeated vertices. Each step's counterclockwise
  // gap is n minus its clockwise one, so the reversed walk sums to
  // k*n - fwd.
  const std::uint64_t fwd = forward_gap_sum(r, c);
  return fwd != 0 && (fwd == n || c.size() * n - fwd == n);
}

std::optional<std::vector<ring::Arc>> drc_route(const ring::Ring& r,
                                                const Cycle& c) {
  if (!is_valid_cycle(c, r.size())) return std::nullopt;
  Cycle seq = c;
  if (forward_gap_sum(r, seq) != r.size()) {
    std::reverse(seq.begin(), seq.end());
    if (forward_gap_sum(r, seq) != r.size()) return std::nullopt;
  }
  std::vector<ring::Arc> arcs;
  arcs.reserve(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const Vertex u = seq[i];
    const Vertex v = seq[(i + 1) % seq.size()];
    arcs.push_back(ring::Arc{u, r.cw_dist(u, v)});
  }
  return arcs;
}

bool satisfies_drc_bruteforce(const ring::Ring& r, const Cycle& c) {
  if (!is_valid_cycle(c, r.size())) return false;
  const std::size_t k = c.size();
  // Each logical edge picks the clockwise (bit 0) or counterclockwise
  // (bit 1) arc; check all 2^k assignments for pairwise disjointness.
  for (std::uint64_t mask = 0; mask < (1ULL << k); ++mask) {
    std::vector<ring::Arc> arcs;
    arcs.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const Vertex u = c[i];
      const Vertex v = c[(i + 1) % k];
      const std::uint32_t d = r.cw_dist(u, v);
      arcs.push_back((mask >> i) & 1 ? ring::Arc{v, r.size() - d}
                                     : ring::Arc{u, d});
    }
    if (ring::max_load(r, arcs) <= 1) return true;
  }
  return false;
}

}  // namespace ccov::covering
