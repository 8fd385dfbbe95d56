#include <stdexcept>

#include "ccov/covering/construct.hpp"

namespace ccov::covering {

RingCover build_optimal_cover(std::uint32_t n, const util::Interrupt& stop) {
  if (n < 3) throw std::invalid_argument("build_optimal_cover: n >= 3");
  return n % 2 == 1 ? construct_odd_cover(n, stop)
                    : construct_even_cover(n, stop);
}

}  // namespace ccov::covering
