#pragma once
/// \file lambda_cover.hpp
/// The paper's first announced extension: DRC-coverings of lambda*K_n
/// (every pair communicates lambda times). Capacity scales linearly, so
/// for odd n taking lambda copies of the optimal K_n covering is exactly
/// optimal; for even n the parity obstruction applies only when lambda is
/// odd, which the lower bound reflects.

#include <cstdint>

#include "ccov/covering/cover.hpp"
#include "ccov/util/timer.hpp"

namespace ccov::covering {

/// Lower bound on the number of cycles in a DRC-covering of lambda*K_n:
/// lambda * L(n) / n rounded up, plus 1 for even n with odd lambda and
/// even p = n/2 (the antipodal parity argument survives exactly when
/// lambda is odd, and only binds when lambda*p^2/2 is an integer).
std::uint64_t rho_lambda_lower_bound(std::uint32_t n, std::uint32_t lambda);

/// Construction: lambda copies of build_optimal_cover(n). Optimal for odd n.
/// For even n each copy pays rho(n)'s rounding but the bound pays it once
/// per pair of copies, so for n <= 12 the gap is 2*floor(lambda/2) when
/// p = n/2 is even and floor(lambda/2) when p is odd; for n >= 14 each copy
/// adds build_optimal_cover's floor((p-1)/2) surplus cycles on top.
/// Throws std::invalid_argument for lambda == 0. `stop` reaches the
/// construction and is polled once per copy.
RingCover build_lambda_cover(std::uint32_t n, std::uint32_t lambda,
                             const util::Interrupt& stop = {});

}  // namespace ccov::covering
