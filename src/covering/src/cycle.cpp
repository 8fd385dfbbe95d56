#include "ccov/covering/cycle.hpp"

#include <set>

namespace ccov::covering {

bool is_valid_cycle(const Cycle& c, std::uint32_t n) {
  if (c.size() < 3) return false;
  std::set<Vertex> seen;
  for (Vertex v : c) {
    if (v >= n) return false;
    if (!seen.insert(v).second) return false;
  }
  return true;
}

std::string to_string(const Cycle& c) {
  std::string s = "(";
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i) s += ' ';
    s += std::to_string(c[i]);
  }
  s += ')';
  return s;
}

}  // namespace ccov::covering
