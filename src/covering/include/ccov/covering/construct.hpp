#pragma once
/// \file construct.hpp
/// Optimal DRC-covering constructions reproducing Theorems 1 and 2.
/// Each takes a `stop` and polls it between steps (util::Interrupted
/// escapes when it fires); the default never fires.

#include "ccov/covering/cover.hpp"
#include "ccov/util/timer.hpp"

namespace ccov::covering {

/// Optimal DRC-covering of K_n over C_n for odd n >= 3 (Theorem 1).
/// Inductive construction (see construct_odd.cpp): exactly p C3 and
/// p(p-1)/2 C4, p = (n-1)/2, meeting the capacity lower bound. The
/// output is O(n^2), but each of the p induction steps relabels every
/// earlier cycle, so the time is O(n^3): about 2 s at n = 3001. `stop`
/// is polled once per induction step, so a stop lands within one
/// step's relabelling, O(n^2) work.
RingCover construct_odd_cover(std::uint32_t n,
                              const util::Interrupt& stop = {});

/// DRC-covering of K_n over C_n for even n >= 4 (Theorem 2). For n <= 12
/// it is optimal: exactly rho(n) cycles and, for n >= 6, the paper's
/// composition (4 C3 for n = 4q, 2 C3 for n = 4q+2), from hand-checked
/// bases plus a two-vertex insertion step (EvenExactParam). For n >= 14 it
/// has rho(n) + floor((p-1)/2) cycles, p = n/2
/// (EvenGeneralParam.WithinDocumentedGapOfRho). For n >= 14 `stop` is
/// polled once per distance class, each O(n) cycles.
RingCover construct_even_cover(std::uint32_t n,
                               const util::Interrupt& stop = {});

/// Dispatch to the odd/even construction. The result always validates; it
/// has exactly rho(n) cycles except for even n >= 14, where it has
/// rho(n) + floor((p-1)/2), p = n/2 (see construct_even_cover).
RingCover build_optimal_cover(std::uint32_t n,
                              const util::Interrupt& stop = {});

}  // namespace ccov::covering
