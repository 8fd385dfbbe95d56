#include "ccov/covering/lambda_cover.hpp"

#include <stdexcept>

#include "ccov/covering/construct.hpp"
#include "ccov/ring/routing.hpp"
#include "ccov/util/ints.hpp"

namespace ccov::covering {

std::uint64_t rho_lambda_lower_bound(std::uint32_t n, std::uint32_t lambda) {
  if (n < 3 || lambda == 0)
    throw std::invalid_argument("rho_lambda_lower_bound: n >= 3, lambda >= 1");
  const std::uint64_t load =
      static_cast<std::uint64_t>(lambda) * ring::all_to_all_min_load(n);
  std::uint64_t lb = util::ceil_div<std::uint64_t>(load, n);
  // Antipodal parity argument (see covering/bounds.hpp): with lambda
  // copies per chord, stepping one ring edge forward changes the antipodal
  // coverage count by a value of parity lambda mod 2, so a constant count
  // lambda*p/2 (required for tightness) is impossible when lambda is odd.
  // The +1 matters only when the capacity bound lambda*p^2/2 is itself an
  // integer, i.e. when p is even (odd p already pays the ceiling).
  if (n % 2 == 0 && lambda % 2 == 1 && (n / 2) % 2 == 0) lb += 1;
  return lb;
}

RingCover build_lambda_cover(std::uint32_t n, std::uint32_t lambda,
                             const util::Interrupt& stop) {
  if (lambda == 0)
    throw std::invalid_argument("build_lambda_cover: lambda >= 1 required");
  RingCover base = build_optimal_cover(n, stop);
  RingCover out;
  out.n = n;
  out.cycles.reserve(base.cycles.size() * lambda);
  for (std::uint32_t k = 0; k < lambda; ++k) {
    stop.poll();
    for (const auto& c : base.cycles) out.cycles.push_back(c);
  }
  return out;
}

}  // namespace ccov::covering
