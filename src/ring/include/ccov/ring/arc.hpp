#pragma once
/// \file arc.hpp
/// Directed arcs on a ring: the elementary routing object. A request routed
/// on C_n occupies one of the two arcs between its endpoints; the DRC theory
/// of the paper is entirely a statement about how arcs tile the ring.

#include <cstdint>
#include <vector>

#include "ccov/ring/ring.hpp"

namespace ccov::ring {

/// Clockwise arc starting at vertex `start`, spanning `len` ring edges
/// (edges start, start+1, ..., start+len-1 mod n). 1 <= len <= n.
struct Arc {
  Vertex start = 0;
  std::uint32_t len = 0;

  constexpr Vertex end(const Ring& r) const { return r.advance(start, len); }

  friend constexpr bool operator==(const Arc&, const Arc&) = default;
};

/// True when the arc covers ring edge e (edge between e and e+1).
bool arc_covers_edge(const Ring& r, const Arc& a, std::uint32_t e);

/// The minor (shorter-side) arc for chord {u, v}; for antipodal chords the
/// clockwise arc from min(u, v) is returned.
Arc minor_arc(const Ring& r, Vertex u, Vertex v);

/// The complementary arc (the other side of the same chord).
Arc complement(const Ring& r, const Arc& a);

/// List of ring edges covered by the arc, in traversal order.
std::vector<std::uint32_t> arc_edges(const Ring& r, const Arc& a);

}  // namespace ccov::ring
