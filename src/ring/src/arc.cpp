#include "ccov/ring/arc.hpp"

#include <algorithm>
#include <cassert>

namespace ccov::ring {

bool arc_covers_edge(const Ring& r, const Arc& a, std::uint32_t e) {
  assert(e < r.size());
  // Edge e is covered iff e lies in [start, start+len) mod n.
  return r.cw_dist(a.start, static_cast<Vertex>(e)) < a.len;
}

Arc minor_arc(const Ring& r, Vertex u, Vertex v) {
  assert(u != v);
  const std::uint32_t d = r.cw_dist(u, v);
  const std::uint32_t n = r.size();
  if (d < n - d) return Arc{u, d};
  if (d > n - d) return Arc{v, n - d};
  return Arc{std::min(u, v), d};  // antipodal tie: deterministic pick
}

Arc complement(const Ring& r, const Arc& a) {
  assert(a.len >= 1 && a.len <= r.size());
  return Arc{a.end(r), r.size() - a.len};
}

std::vector<std::uint32_t> arc_edges(const Ring& r, const Arc& a) {
  std::vector<std::uint32_t> out;
  out.reserve(a.len);
  Vertex e = a.start;
  for (std::uint32_t i = 0; i < a.len; ++i) {
    out.push_back(e);
    e = r.succ(e);
  }
  return out;
}

}  // namespace ccov::ring
