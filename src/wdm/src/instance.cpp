#include "ccov/wdm/instance.hpp"

#include "ccov/graph/generators.hpp"

namespace ccov::wdm {

Instance Instance::all_to_all(std::uint32_t n) {
  return Instance(graph::complete_graph(n));
}

}  // namespace ccov::wdm
