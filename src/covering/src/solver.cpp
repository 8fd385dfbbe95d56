#include "ccov/covering/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/chord_bitset.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/ring/ring.hpp"
#include "ccov/util/ints.hpp"
#include "ccov/util/thread_pool.hpp"

namespace ccov::covering {

namespace {

constexpr std::uint64_t kNodeChunk = 4096;
/// Stop and winner check cadence: every 4096 nodes, amortizing the clock
/// read to nothing. The masked test itself runs on every node even when
/// the stop is unset, so arming it never changes which nodes a
/// non-interrupted search visits — the golden node counts stay
/// byte-identical.
constexpr std::uint64_t kInterruptCheckMask = 4095;
constexpr std::size_t kNoWinner = std::numeric_limits<std::size_t>::max();

/// Why a worker's search stopped before finishing its subtree.
enum class Stop : std::uint8_t {
  kNone,      // still running, or the subtree was searched in full
  kBudget,    // the shared node budget ran out
  kDeadline,  // the interrupt's deadline expired
  kCancel,    // the interrupt's cancel token fired
  kLost,      // a lower-index root subtree already succeeded
};

/// State the workers of one search share, above all the node budget.
/// Workers reserve nodes in chunks, so the hot path touches the atomic
/// once every kNodeChunk nodes instead of once per node, and hand back
/// what they did not use when they stop. The total spend thus exceeds
/// the budget by at most the one node each worker counts when it stops.
struct Shared {
  explicit Shared(std::uint64_t max_nodes) : remaining(max_nodes) {}

  std::atomic<std::uint64_t> remaining;        // node budget left
  std::atomic<std::size_t> next{0};            // next root subtree to claim
  std::atomic<std::size_t> winner{kNoWinner};  // lowest successful root
  std::atomic<bool> halted{false};  // a subtree ended early: claim no more

  std::uint64_t take(std::uint64_t want) {
    std::uint64_t cur = remaining.load(std::memory_order_relaxed);
    while (cur != 0) {
      const std::uint64_t grant = cur < want ? cur : want;
      if (remaining.compare_exchange_weak(cur, cur - grant,
                                          std::memory_order_relaxed))
        return grant;
    }
    return 0;
  }

  void give_back(std::uint64_t unused) {
    if (unused) remaining.fetch_add(unused, std::memory_order_relaxed);
  }
};

struct Search {
  std::uint32_t n;
  ring::Ring r;
  SolverOptions opts;
  util::Interrupt interrupt;

  // Chord (a, b), a < b, indexed as a*n + b. covered[] counts coverage;
  // the bitset mirrors "count == 0" so the lexicographically first
  // uncovered chord is a countr_zero word scan instead of an O(n^2)
  // rescan, and freshness tests are single bit probes.
  std::vector<std::uint8_t> covered;
  ChordBitset uncovered;
  std::uint64_t remaining_load = 0;  // sum of minor distances of uncovered

  std::uint64_t nodes = 0;  // over every subtree this worker searched
  Stop stop = Stop::kNone;
  std::vector<SmallCycle> chosen;
  std::vector<Cycle> best;
  bool found = false;

  Shared* shared;              // null only in candidate_cycles
  std::uint64_t grant = 0;     // nodes pre-reserved from *shared
  std::size_t root_index = 0;  // root subtree being searched

  // Per-depth scratch. Candidates are generated into gen[] in
  // lexicographic order, then stable-bucketed by freshness into
  // ordered[]. The constructor sizes the arena for the whole search,
  // so the steady-state DFS performs no allocation and references into
  // the arena are never invalidated by deeper levels.
  struct DepthScratch {
    std::vector<SmallCycle> gen;
    std::vector<std::uint8_t> fresh;
    std::vector<SmallCycle> ordered;
  };
  std::vector<DepthScratch> arena;

  /// The empty state, with every per-depth scratch buffer and the chosen
  /// stack preallocated for a search of at most `budget` cycles. Each
  /// chosen cycle covers at least one new chord (every candidate contains
  /// the branching chord), so the DFS depth is also bounded by the chord
  /// count.
  Search(std::uint32_t nn, const SolverOptions& o,
         const util::Interrupt& in, Shared* sh, std::uint64_t budget)
      : n(nn),
        r(nn),
        opts(o),
        interrupt(in),
        covered(static_cast<std::size_t>(nn) * nn, 0),
        uncovered(nn),
        shared(sh) {
    uncovered.set_all_chords();
    for (Vertex a = 0; a < n; ++a)
      for (Vertex b = a + 1; b < n; ++b) remaining_load += r.dist(a, b);
    const std::uint64_t chords =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    const std::size_t depth_cap =
        static_cast<std::size_t>(budget < chords ? budget : chords);
    chosen.reserve(depth_cap);
    arena.resize(depth_cap);
    // Largest candidate list: n-2 triangles plus quads whose two extra
    // vertices share one of the two open arcs.
    const std::size_t m = n - 2, cap = m + m * (m - 1) / 2;
    for (DepthScratch& s : arena) {
      s.gen.reserve(cap);
      s.fresh.reserve(cap);
      s.ordered.reserve(cap);
    }
  }

  void apply(const SmallCycle& c, int delta) {
    for_each_chord(c, [&](Vertex a, Vertex b) {
      std::uint8_t& cnt = covered[uncovered.index(a, b)];
      if (delta > 0) {
        if (cnt == 0) {
          remaining_load -= r.dist(a, b);
          uncovered.clear(a, b);
        }
        ++cnt;
      } else {
        --cnt;
        if (cnt == 0) {
          remaining_load += r.dist(a, b);
          uncovered.set(a, b);
        }
      }
    });
  }

  int fresh(const SmallCycle& c) const {
    int f = 0;
    for_each_chord(c, [&](Vertex a, Vertex b) { f += uncovered.test(a, b); });
    return f;
  }

  /// Candidate circularly ordered cycles (sizes 3..4, capped by
  /// max_cycle_len) containing chord (a, b) as an edge, written into the
  /// scratch in lexicographically sorted vertex order. A circular cycle
  /// is determined by its vertex set; (a, b) is an edge iff one open arc
  /// between them holds no other chosen vertex, so the extra vertices
  /// all come from one side: the interior (a, b) or the exterior
  /// [0, a) ∪ (b, n). Each candidate is emitted exactly once — no
  /// dedup pass — and a < b always holds for the branching chord.
  void generate(Vertex a, Vertex b, DepthScratch& s) const {
    const bool quads = opts.max_cycle_len >= 4;
    s.gen.clear();
    // Sorted sequences leading with w < a: both extras below a, then the
    // triangle, then the second extra beyond b.
    for (Vertex w = 0; w < a; ++w) {
      if (quads)
        for (Vertex z = w + 1; z < a; ++z) s.gen.push_back({w, z, a, b});
      s.gen.push_back({w, a, b});
      if (quads)
        for (Vertex z = b + 1; z < n; ++z) s.gen.push_back({w, a, b, z});
    }
    // Leading with a: extras strictly inside the (a, b) arc.
    for (Vertex w = a + 1; w < b; ++w) {
      if (quads)
        for (Vertex z = w + 1; z < b; ++z) s.gen.push_back({a, w, z, b});
      s.gen.push_back({a, w, b});
    }
    // Leading with a, b: extras beyond b.
    for (Vertex w = b + 1; w < n; ++w) {
      s.gen.push_back({a, b, w});
      if (quads)
        for (Vertex z = w + 1; z < n; ++z) s.gen.push_back({a, b, w, z});
    }
  }

  /// Stable bucket sort by freshness, descending — the same ordering the
  /// former std::stable_sort over the lex-sorted list produced, pinned
  /// by the golden node-count tests. Freshness of a C3/C4 is in [0, 4].
  std::size_t order_candidates(DepthScratch& s) const {
    const std::size_t k = s.gen.size();
    s.fresh.resize(k);
    s.ordered.resize(k);
    std::size_t cnt[5] = {0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < k; ++i) {
      const int f = fresh(s.gen[i]);
      s.fresh[i] = static_cast<std::uint8_t>(f);
      ++cnt[f];
    }
    std::size_t off[5];
    std::size_t acc = 0;
    for (int f = 4; f >= 0; --f) {
      off[f] = acc;
      acc += cnt[f];
    }
    for (std::size_t i = 0; i < k; ++i) s.ordered[off[s.fresh[i]]++] = s.gen[i];
    return k;
  }

  /// Count one branch node against the shared budget; false aborts the
  /// search and records why in `stop`.
  bool consume_node() {
    ++nodes;
    if ((nodes & kInterruptCheckMask) == 0) {
      if (interrupt.fired()) {
        stop = interrupt.cancelled() ? Stop::kCancel : Stop::kDeadline;
        return false;
      }
      if (shared->winner.load(std::memory_order_relaxed) < root_index) {
        stop = Stop::kLost;
        return false;
      }
    }
    if (grant == 0) grant = shared->take(kNodeChunk);
    if (grant == 0) {
      stop = Stop::kBudget;
      return false;
    }
    --grant;
    return true;
  }

  void record_witness() {
    best.clear();
    best.reserve(chosen.size());
    for (const SmallCycle& c : chosen) best.push_back(c.to_cycle());
    found = true;
  }

  /// Visit one branch node with `budget` cycles left: count it, then
  /// finish on a witness, a stop, the zero-budget exit or the capacity
  /// prune (returning no candidates), or else return the candidates for
  /// the first uncovered chord in branching order.
  std::span<const SmallCycle> expand(std::uint64_t budget) {
    if (!consume_node()) return {};
    Vertex a = 0, b = 0;
    if (!uncovered.first(a, b)) {
      record_witness();
      return {};
    }
    if (budget == 0) return {};
    // Capacity prune: each further cycle supplies exactly n units of arc
    // length, every uncovered chord costs at least its minor distance.
    if (opts.use_capacity_prune &&
        util::ceil_div<std::uint64_t>(remaining_load, n) > budget)
      return {};
    DepthScratch& s = arena[chosen.size()];
    generate(a, b, s);
    return {s.ordered.data(), order_candidates(s)};
  }

  /// Choose `c` below a node with `budget` cycles left and search on;
  /// undone again unless that finds a witness.
  bool descend(SmallCycle c, std::uint64_t budget) {
    apply(c, +1);
    chosen.push_back(c);
    if (dfs(budget - 1)) return true;
    chosen.pop_back();
    apply(c, -1);
    return false;
  }

  bool dfs(std::uint64_t budget) {
    for (const SmallCycle& c : expand(budget)) {
      if (descend(c, budget)) return true;
      if (stop != Stop::kNone) return false;
    }
    return found;
  }
};

/// What one root subtree cost and how it ended.
struct Subtree {
  std::uint64_t nodes = 0;
  Stop stop = Stop::kNone;
  std::vector<Cycle> witness;  // when the subtree succeeded
};

/// Search root subtrees with `s`, claiming them in index order, until
/// none is left or one ends early (a witness or a stop). Then no worker
/// claims another: every later index would lose to the witness, and
/// after a stop the search is no proof anyway.
void claim_subtrees(Search& s, std::span<const SmallCycle> roots,
                    std::uint64_t budget, std::vector<Subtree>& out) {
  Shared& sh = *s.shared;
  while (!sh.halted.load(std::memory_order_relaxed)) {
    const std::size_t i = sh.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= roots.size()) break;
    s.root_index = i;
    const std::uint64_t before = s.nodes;
    const bool ok = s.descend(roots[i], budget);
    out[i].nodes = s.nodes - before;
    out[i].stop = s.stop;
    if (!ok && s.stop == Stop::kNone) continue;
    if (ok) {
      out[i].witness = std::move(s.best);
      std::size_t cur = sh.winner.load(std::memory_order_relaxed);
      while (i < cur && !sh.winner.compare_exchange_weak(cur, i)) {
      }
    }
    sh.halted.store(true, std::memory_order_relaxed);
    break;
  }
  sh.give_back(std::exchange(s.grant, 0));
}

/// The one search routine. The caller's Search visits the root node, whose
/// candidates (every cycle through chord (0, 1)) become the root
/// subtrees. `workers` Searches then claim them: the caller's, plus one
/// per pool thread when workers > 1. A one-worker run is the plain serial
/// DFS and starts no thread.
SolverResult run_search(std::uint32_t n, std::uint64_t budget,
                        const SolverOptions& opts, std::size_t workers,
                        const util::Interrupt& stop) {
  if (n < 3) throw std::invalid_argument("solve: n >= 3 required");
  Shared shared(opts.max_nodes);
  Search lead(n, opts, stop, &shared, budget);
  const std::span<const SmallCycle> roots = lead.expand(budget);
  SolverResult res;
  res.nodes = lead.nodes;
  bool clean = lead.stop == Stop::kNone;

  std::vector<Subtree> out(roots.size());
  // Never more workers than cores. The witness and node count do not
  // depend on the worker count while nothing stops.
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  if (workers == 0 || workers > cores) workers = cores;
  const std::size_t helpers =
      std::max<std::size_t>(std::min(workers, roots.size()), 1) - 1;
  {
    std::optional<util::ThreadPool> pool;
    util::TaskGroup group;
    if (helpers > 0) pool.emplace(helpers);
    for (std::size_t k = 0; k < helpers; ++k)
      pool->submit(group, [&] {
        Search s(n, opts, stop, &shared, budget);
        claim_subtrees(s, roots, budget, out);
      });
    claim_subtrees(lead, roots, budget, out);
    group.wait();
  }

  // Merge. The witness is the lowest successful subtree's, exactly the
  // one a one-worker search commits to, and the subtrees before it are
  // the ones that search spends its nodes on. If one of those stopped
  // early, a one-worker search might have committed elsewhere;
  // exhausted == false flags that.
  const std::size_t w = shared.winner.load();
  const std::size_t counted = w == kNoWinner ? out.size() : w + 1;
  for (std::size_t i = 0; i < counted; ++i) {
    res.nodes += out[i].nodes;
    clean = clean && out[i].stop == Stop::kNone;
    res.timed_out = res.timed_out || out[i].stop == Stop::kDeadline;
    res.cancelled = res.cancelled || out[i].stop == Stop::kCancel;
  }
  res.exhausted = clean;
  if (w != kNoWinner) {
    // A witness in hand beats a timeout: a found cover is never timed_out.
    res.found = true;
    res.timed_out = false;
    res.cancelled = false;
    res.cover = RingCover{n, std::move(out[w].witness)};
  }
  return res;
}

}  // namespace

SolverResult solve_with_budget(std::uint32_t n, std::uint64_t budget,
                               const SolverOptions& opts,
                               const util::Interrupt& stop) {
  return run_search(n, budget, opts, 1, stop);
}

SolverResult solve_with_budget_parallel(std::uint32_t n, std::uint64_t budget,
                                        const SolverOptions& opts,
                                        std::size_t threads,
                                        const util::Interrupt& stop) {
  return run_search(n, budget, opts, threads, stop);
}

std::optional<std::pair<std::uint64_t, RingCover>> solve_minimum(
    std::uint32_t n, const SolverOptions& opts) {
  // Start from the construction (an upper bound) and push downward.
  RingCover ub = build_optimal_cover(n);
  std::uint64_t best = ub.size();
  RingCover witness = ub;
  while (best > 1) {
    SolverResult res = solve_with_budget(n, best - 1, opts);
    if (res.found) {
      best = res.cover.size();
      witness = res.cover;
      continue;
    }
    if (!res.exhausted) return std::nullopt;  // inconclusive
    break;
  }
  return std::make_pair(best, witness);
}

namespace detail {

std::vector<Cycle> candidate_cycles(std::uint32_t n, Vertex a, Vertex b,
                                    const SolverOptions& opts) {
  Search s(n, opts, {}, nullptr, 0);
  Search::DepthScratch scratch;
  s.generate(a, b, scratch);
  const std::size_t k = s.order_candidates(scratch);
  std::vector<Cycle> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i)
    out.push_back(scratch.ordered[i].to_cycle());
  return out;
}

}  // namespace detail

}  // namespace ccov::covering
