#pragma once
/// \file streams.hpp
/// Seeded request streams for the three workloads. Every generator is a
/// pure function of its seed: the PRNG is a fixed splitmix64 and every
/// draw goes through Rng's own integer maths (never a std::
/// distribution, whose output differs between standard libraries), so
/// one seed yields byte-identical lines on every platform. The program
/// under test sees only the generated JSONL lines.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64 with unbiased bounded draws (Lemire's multiply-shift with
/// rejection).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi], both inclusive.
  std::uint32_t uniform(std::uint32_t lo, std::uint32_t hi);
  /// True with probability pct/100.
  bool percent(std::uint32_t pct) { return uniform(0, 99) < pct; }

 private:
  std::uint64_t s_;
};

// ---------------------------------------------------------------------------
// hit_mix: closed-loop interactive hits from a warm cache
// ---------------------------------------------------------------------------

struct HitMixParams {
  std::uint32_t n_lo = 5;    ///< K_n requests: n in [n_lo, n_hi]
  std::uint32_t n_hi = 40;
  std::uint32_t dn_lo = 12;  ///< pooled demands: n in [dn_lo, dn_hi],
  std::uint32_t dn_hi = 48;  ///< n/2 .. 3n distinct chords
  std::uint32_t dn_bases = 24;
  // Mix in percent; the remainder is verbs and malformed lines.
  std::uint32_t identity_pct = 60;
  std::uint32_t dihedral_pct = 25;
  std::uint32_t repeat_pct = 10;
};

/// The full hit_mix shape, or the smaller probe other workloads use to
/// report per-transport latency.
HitMixParams hit_mix_params(bool probe);

/// Ring sizes whose K_n solve at rho(n) finishes quickly; `solve` pool
/// entries and bulk misses draw from these.
extern const std::vector<std::uint32_t> kSolvable;

/// The warm-up set (every pool key once, in its base frame) plus an
/// endless measured stream drawn from the pool. Two instances built from
/// one seed produce the same lines in the same order.
class HitMixStream {
 public:
  HitMixStream(std::uint64_t seed, const HitMixParams& params);

  const std::vector<std::string>& warm() const { return warm_; }
  /// The next measured line (one JSONL request, no newline).
  std::string next();

 private:
  struct Demand {
    std::uint32_t n = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> chords;
  };

  HitMixParams params_;
  Rng rng_;
  std::vector<std::string> identity_pool_;
  std::vector<Demand> bases_;
  std::vector<std::string> warm_;
  std::string prev_;
};

// ---------------------------------------------------------------------------
// batch_churn: pipelined bulk traffic with inserts and evictions
// ---------------------------------------------------------------------------

struct BulkParams {
  std::size_t lines = 2400;
  std::size_t cache_capacity = 512;
  std::size_t cache_shards = 8;
  std::size_t batch = 8;
  std::uint32_t hit_pct = 50;
  // A hit re-requests a key last touched between min_age and max_age
  // compute lines ago. min_age spans two batches, so the first request
  // has been answered and inserted before a concurrent batch can ask
  // again; max_age + batch + 1 stays within one shard's slice of the
  // capacity, so a hit can never be evicted whichever shard it lands
  // in. Together they make every response independent of how --jobs
  // interleaves a batch.
  std::size_t hit_min_age = 16;
  std::size_t hit_max_age = 48;
  // Misses, in percent of misses: construct on an unused (n, validate)
  // pair, a small solve, else greedy on a fresh demand graph.
  std::uint32_t construct_pct = 30;
  std::uint32_t solve_pct = 20;
  std::uint32_t construct_n_max = 200;
  std::uint32_t greedy_n_lo = 16;
  std::uint32_t greedy_n_hi = 64;
};

BulkParams bulk_params();

/// A fixed-length bulk stream: fresh keys (greedy on new demand graphs,
/// construct, small solves) and re-requests of resident keys (exact or
/// D_n image), in the shares BulkParams gives.
std::vector<std::string> bulk_stream(std::uint64_t seed,
                                     const BulkParams& params);

// ---------------------------------------------------------------------------
// solve_cold: a script of searches that really run
// ---------------------------------------------------------------------------

struct ScriptItem {
  enum class Expect {
    kFeasible,  ///< found:true with a valid cover
    kProof,     ///< found:false, exhausted:true (a rho-1 infeasibility proof)
    kCapped,    ///< stops at max_nodes; any honest answer passes
  };
  std::string name;
  std::string line;
  Expect expect = Expect::kFeasible;
  bool parallel = false;
  /// Node count at the commit that defined the benchmark. A different
  /// count is reported as a count change, never as a failure.
  std::uint64_t golden_nodes = 0;
  /// For the parallel item: the serial item searching the same tree.
  std::string serial_twin;
};

/// The solve_cold script (canary = false) or the small canary other
/// workloads use to report solver wall time. The serial items come in a
/// seeded order; the parallel item is always last.
std::vector<ScriptItem> solve_script(std::uint64_t seed, bool canary);

}  // namespace perfbench
