#include "ccov/covering/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <limits>
#include <optional>
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
  // lexicographic order; tag[i] holds gen[i]'s freshness and whether its
  // child is a dead end, and order[] lists the gen[] indices stable-
  // bucketed by freshness. A depth's buffers are reserved for the largest
  // candidate list the first time the DFS reaches it, so the steady-state
  // DFS performs no allocation and the arena grows only as deep as the
  // search goes. A shallower dfs frame still reads its own depth's
  // scratch while deeper ones are added, hence a deque: growing it never
  // moves an element.
  static constexpr std::uint8_t kFreshMask = 0x7;  // freshness is in [0, 4]
  static constexpr std::uint8_t kDead = 0x8;
  struct DepthScratch {
    std::vector<SmallCycle> gen;
    std::vector<std::uint8_t> tag;
    std::vector<std::uint32_t> order;
  };
  std::deque<DepthScratch> arena;

  /// The empty state; no depth's scratch is allocated yet.
  Search(std::uint32_t nn, const SolverOptions& o,
         const util::Interrupt& in, Shared* sh)
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
  }

  /// The scratch of `depth`, allocated on first use. Parallel helpers
  /// start at depth 1 and never allocate depth 0.
  DepthScratch& scratch(std::size_t depth) {
    if (depth >= arena.size()) {
      arena.resize(depth + 1);
      // Largest candidate list: n-2 triangles plus quads whose two extra
      // vertices share one of the two open arcs.
      const std::size_t m = n - 2, cap = m + m * (m - 1) / 2;
      DepthScratch& s = arena.back();
      s.gen.reserve(cap);
      s.tag.reserve(cap);
      s.order.reserve(cap);
    }
    return arena[depth];
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

  /// True when no witness lies below a node with `load` > 0 arc length
  /// still uncovered and `budget` cycles left: none is left, or the
  /// capacity prune fires. Each further cycle supplies exactly n units of
  /// arc length, and every uncovered chord costs at least its minor
  /// distance.
  bool dead_end(std::uint64_t load, std::uint64_t budget) const {
    return budget == 0 ||
           (opts.use_capacity_prune &&
            util::ceil_div<std::uint64_t>(load, n) > budget);
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

  /// Tag each candidate of a node with `budget` >= 1 cycles left, then
  /// stable bucket sort by freshness, descending — the same ordering the
  /// former std::stable_sort over the lex-sorted list produced, pinned
  /// by the golden node-count tests. Freshness of a C3/C4 is in [0, 4].
  /// The same pass sums each candidate's fresh load, which settles
  /// whether choosing it leads to a dead end: a child that would leave
  /// chords uncovered with no witness below it.
  void order_candidates(DepthScratch& s, std::uint64_t budget) const {
    const std::size_t k = s.gen.size();
    s.tag.resize(k);
    s.order.resize(k);
    std::size_t cnt[5] = {0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < k; ++i) {
      std::uint8_t f = 0;
      std::uint64_t load = 0;
      for_each_chord(s.gen[i], [&](Vertex a, Vertex b) {
        if (uncovered.test(a, b)) {
          ++f;
          load += r.dist(a, b);
        }
      });
      const bool dead =
          load != remaining_load && dead_end(remaining_load - load, budget - 1);
      s.tag[i] = static_cast<std::uint8_t>(f | (dead ? kDead : 0));
      ++cnt[f];
    }
    std::size_t off[5];
    std::size_t acc = 0;
    for (int f = 4; f >= 0; --f) {
      off[f] = acc;
      acc += cnt[f];
    }
    for (std::size_t i = 0; i < k; ++i)
      s.order[off[s.tag[i] & kFreshMask]++] = static_cast<std::uint32_t>(i);
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
  /// finish on a witness, a stop or a dead end (returning null), or else
  /// return the scratch holding the candidates for the first uncovered
  /// chord, tagged and in branching order.
  const DepthScratch* expand(std::uint64_t budget) {
    if (!consume_node()) return nullptr;
    Vertex a = 0, b = 0;
    if (!uncovered.first(a, b)) {
      record_witness();
      return nullptr;
    }
    if (dead_end(remaining_load, budget)) return nullptr;
    DepthScratch& s = scratch(chosen.size());
    generate(a, b, s);
    order_candidates(s, budget);
    return &s;
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

  /// Search below a node with `budget` cycles left. A dead-end child is
  /// counted here without being entered: expand would count it and stop
  /// on the same dead_end test.
  bool dfs(std::uint64_t budget) {
    const DepthScratch* s = expand(budget);
    if (s == nullptr) return found;
    for (const std::uint32_t i : s->order) {
      if (s->tag[i] & kDead) {
        if (!consume_node()) return false;
        continue;
      }
      if (descend(s->gen[i], budget)) return true;
      if (stop != Stop::kNone) return false;
    }
    return false;
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
void claim_subtrees(Search& s, const Search::DepthScratch* root,
                    std::uint64_t budget, std::vector<Subtree>& out) {
  Shared& sh = *s.shared;
  while (!sh.halted.load(std::memory_order_relaxed)) {
    const std::size_t i = sh.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= out.size()) break;
    s.root_index = i;
    const std::uint64_t before = s.nodes;
    const bool ok = s.descend(root->gen[root->order[i]], budget);
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
/// subtrees; each is descended, dead end or not. `workers` Searches then
/// claim them: the caller's, plus one per pool thread when workers > 1.
/// A one-worker run is the plain serial DFS and starts no thread.
SolverResult run_search(std::uint32_t n, std::uint64_t budget,
                        const SolverOptions& opts, std::size_t workers,
                        const util::Interrupt& stop) {
  if (n < 3) throw std::invalid_argument("solve: n >= 3 required");
  Shared shared(opts.max_nodes);
  Search lead(n, opts, stop, &shared);
  const Search::DepthScratch* root = lead.expand(budget);
  SolverResult res;
  res.nodes = lead.nodes;
  bool clean = lead.stop == Stop::kNone;

  std::vector<Subtree> out(root == nullptr ? 0 : root->order.size());
  // Never more workers than cores. The witness and node count do not
  // depend on the worker count while nothing stops.
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  if (workers == 0 || workers > cores) workers = cores;
  const std::size_t helpers =
      std::max<std::size_t>(std::min(workers, out.size()), 1) - 1;
  {
    std::optional<util::ThreadPool> pool;
    util::TaskGroup group;
    if (helpers > 0) pool.emplace(helpers);
    for (std::size_t k = 0; k < helpers; ++k)
      pool->submit(group, [&] {
        Search s(n, opts, stop, &shared);
        claim_subtrees(s, root, budget, out);
      });
    claim_subtrees(lead, root, budget, out);
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
  Search s(n, opts, {}, nullptr);
  Search::DepthScratch& scratch = s.scratch(0);
  s.generate(a, b, scratch);
  s.order_candidates(scratch, 1);
  std::vector<Cycle> out;
  out.reserve(scratch.order.size());
  for (const std::uint32_t i : scratch.order)
    out.push_back(scratch.gen[i].to_cycle());
  return out;
}

}  // namespace detail

}  // namespace ccov::covering
