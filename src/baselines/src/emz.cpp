#include "ccov/baselines/emz.hpp"

#include "ccov/covering/bounds.hpp"

namespace ccov::baselines {

std::uint64_t emz_objective(const covering::RingCover& cover) {
  std::uint64_t total = 0;
  for (const auto& c : cover.cycles) total += c.size();
  return total;
}

std::uint64_t emz_lower_bound(std::uint32_t n) {
  // At least rho-lower-bound cycles are needed and each has >= 3 vertices.
  return 3 * covering::parity_lower_bound(n);
}

}  // namespace ccov::baselines
