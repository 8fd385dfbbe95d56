#pragma once
/// \file cover.hpp
/// DRC-coverings: collections of DRC cycles whose chords cover a demand
/// graph (K_n unless stated otherwise), plus the validator used throughout
/// the library to certify construction output.

#include <cstdint>
#include <string>
#include <vector>

#include "ccov/covering/cycle.hpp"
#include "ccov/graph/graph.hpp"

namespace ccov::covering {

/// A covering of demands on ring C_n by logical cycles.
struct RingCover {
  std::uint32_t n = 0;          ///< ring / instance size
  std::vector<Cycle> cycles;    ///< the sub-networks I_k

  std::size_t size() const { return cycles.size(); }
};

/// Count of cycles by length: composition[k] = number of C_k in the cover.
std::vector<std::size_t> composition(const RingCover& cover);

/// Number of triangles / quadrilaterals (the sizes in Theorems 1 and 2).
std::size_t count_c3(const RingCover& cover);
std::size_t count_c4(const RingCover& cover);

struct ValidationReport {
  bool ok = false;
  std::string error;                 ///< first failure, empty when ok
  std::size_t uncovered_chords = 0;  ///< demands with zero coverage
  std::size_t duplicate_coverage = 0;///< extra coverages beyond the demand
  std::size_t non_drc_cycles = 0;    ///< cycles violating the DRC
};

/// Validate against the all-to-all demand K_n: every cycle must satisfy the
/// DRC on C_n and every chord of K_n must be covered at least once.
ValidationReport validate_cover(const RingCover& cover);

/// Validate against an arbitrary demand (multi)graph on n vertices: each
/// demand edge must be covered with at least its multiplicity.
ValidationReport validate_cover_against(const RingCover& cover,
                                        const graph::Graph& demand);

/// Concatenated rendering of every cycle, "(0 1 2)(0 2 3)...": a compact
/// byte-comparable fingerprint of a cover, used by the golden tests.
std::string to_string(const RingCover& cover);

/// Human-readable one-line summary of a cover and its validation report
/// `rep`: "n=9: 10 cycles (3 C3, 7 C4), valid".
std::string summary(const RingCover& cover, const ValidationReport& rep);

}  // namespace ccov::covering
