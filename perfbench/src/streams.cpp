#include "streams.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint32_t Rng::uniform(std::uint32_t lo, std::uint32_t hi) {
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - lo + 1;
  // Multiply-shift on the top 32 bits, rejecting the biased low slice.
  const std::uint64_t threshold = (0x100000000ULL - range) % range;
  for (;;) {
    const std::uint64_t m = (next() >> 32) * range;
    if ((m & 0xffffffffULL) >= threshold)
      return lo + static_cast<std::uint32_t>(m >> 32);
  }
}

namespace {

using Chord = std::pair<std::uint32_t, std::uint32_t>;

std::string k_n_line(const char* algo, std::uint32_t n, bool validate) {
  std::string s = std::string("{\"algo\":\"") + algo +
                  "\",\"n\":" + std::to_string(n);
  if (!validate) s += ",\"validate\":false";
  return s + "}";
}

std::string demand_line(std::uint32_t n, const std::vector<Chord>& chords) {
  std::string s = "{\"algo\":\"greedy\",\"n\":" + std::to_string(n) +
                  ",\"demand\":[";
  for (std::size_t i = 0; i < chords.size(); ++i) {
    if (i) s += ',';
    s += '[' + std::to_string(chords[i].first) + ',' +
         std::to_string(chords[i].second) + ']';
  }
  return s + "]}";
}

template <typename T>
void shuffle(std::vector<T>* v, Rng& rng) {
  for (std::size_t i = v->size(); i > 1; --i)
    std::swap((*v)[i - 1],
              (*v)[rng.uniform(0, static_cast<std::uint32_t>(i - 1))]);
}

/// `m` distinct random chords on n vertices (m <= n(n-1)/2).
std::vector<Chord> random_demand(std::uint32_t n, std::uint32_t m, Rng& rng) {
  std::set<Chord> seen;
  std::vector<Chord> chords;
  while (chords.size() < m) {
    std::uint32_t u = rng.uniform(0, n - 1), v = rng.uniform(0, n - 1);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (seen.insert({u, v}).second) chords.push_back({u, v});
  }
  return chords;
}

/// A random non-identity dihedral image of `chords`, in shuffled order.
std::vector<Chord> dihedral_image(std::uint32_t n,
                                  const std::vector<Chord>& chords, Rng& rng) {
  const bool reflect = rng.percent(50);
  std::uint32_t shift = rng.uniform(0, n - 1);
  if (!reflect && shift == 0) shift = 1;
  const auto map = [&](std::uint32_t v) {
    if (reflect) v = (n - v) % n;
    return (v + shift) % n;
  };
  std::vector<Chord> out;
  out.reserve(chords.size());
  for (const auto& [u, v] : chords) {
    std::uint32_t a = map(u), b = map(v);
    if (a > b) std::swap(a, b);
    out.push_back({a, b});
  }
  shuffle(&out, rng);
  return out;
}

const char* const kMalformed[] = {
    "this is not json",
    R"({"algo":"construct"})",
    R"({"algo":"no-such-algorithm","n":9})",
    R"({"op":"explode"})",
    R"({"algo":"greedy","n":12,"demand":[[0,1],[2]]})",
    R"({"algo":"construct","n":2})",
};

}  // namespace

// Odd n solve at rho(n) in under ~70k nodes, plus the small even n whose
// tight search still succeeds (n >= 10 even runs out of budget). The
// first nine stay under a millisecond.
const std::vector<std::uint32_t> kSolvable = {5,  6,  7,  8,  9,  11, 13, 15,
                                              17, 19, 21, 23, 27, 29, 35};

// ---------------------------------------------------------------------------

HitMixParams hit_mix_params(bool probe) {
  HitMixParams p;
  if (probe) {
    p.n_hi = 20;
    p.dn_hi = 24;
    p.dn_bases = 6;
  }
  return p;
}

HitMixStream::HitMixStream(std::uint64_t seed, const HitMixParams& params)
    : params_(params), rng_(seed * 0x2545f4914f6cdd1dULL + 1) {
  Rng pool_rng(seed ^ 0x6a09e667f3bcc909ULL);
  for (std::uint32_t n = params.n_lo; n <= params.n_hi; ++n) {
    for (const bool validate : {true, false}) {
      identity_pool_.push_back(k_n_line("construct", n, validate));
      identity_pool_.push_back(k_n_line("greedy", n, validate));
    }
  }
  for (const std::uint32_t n : kSolvable) {
    if (n < params.n_lo || n > params.n_hi) continue;
    for (const bool validate : {true, false})
      identity_pool_.push_back(k_n_line("solve", n, validate));
  }
  // Base sizes sit on a fixed grid over the n and chord-count ranges
  // (only the chords are drawn), so the cost spread of D_n hits, which
  // sets the tail latency, is the same for every seed.
  const std::uint32_t b = params.dn_bases;
  for (std::uint32_t i = 0; i < b; ++i) {
    Demand d;
    d.n = params.dn_lo + (params.dn_hi - params.dn_lo) * i / (b - 1);
    const std::uint32_t lo = d.n / 2, hi = 3 * d.n;
    d.chords = random_demand(d.n, lo + (hi - lo) * (i * 5 % b) / (b - 1),
                             pool_rng);
    bases_.push_back(std::move(d));
  }
  warm_ = identity_pool_;
  for (const Demand& d : bases_) warm_.push_back(demand_line(d.n, d.chords));
  shuffle(&warm_, pool_rng);
}

std::string HitMixStream::next() {
  const std::uint32_t r = rng_.uniform(0, 99);
  const std::uint32_t id_end = params_.identity_pct;
  const std::uint32_t dn_end = id_end + params_.dihedral_pct;
  const std::uint32_t rep_end = dn_end + params_.repeat_pct;
  std::string line;
  if (r < id_end || (r >= dn_end && r < rep_end && prev_.empty())) {
    line = identity_pool_[rng_.uniform(
        0, static_cast<std::uint32_t>(identity_pool_.size() - 1))];
  } else if (r < dn_end) {
    const Demand& d = bases_[rng_.uniform(
        0, static_cast<std::uint32_t>(bases_.size() - 1))];
    line = demand_line(d.n, dihedral_image(d.n, d.chords, rng_));
  } else if (r < rep_end) {
    line = prev_;
  } else {
    // The tail: half malformed lines, the rest stats and metrics verbs.
    const std::uint32_t v = rng_.uniform(0, 9);
    if (v < 5)
      line = kMalformed[rng_.uniform(
          0, static_cast<std::uint32_t>(std::size(kMalformed) - 1))];
    else if (v < 8)
      line = R"({"op":"stats"})";
    else
      line = R"({"op":"metrics"})";
  }
  prev_ = line;
  return line;
}

// ---------------------------------------------------------------------------

BulkParams bulk_params() { return BulkParams{}; }

std::vector<std::string> bulk_stream(std::uint64_t seed,
                                     const BulkParams& params) {
  Rng rng(seed ^ 0xbb67ae8584caa73bULL);
  struct Key {
    std::string line;
    std::uint32_t n = 0;
    std::vector<Chord> chords;  ///< non-empty for greedy-on-demand keys
    std::size_t last = 0;       ///< index of the last line touching it
  };
  std::vector<Key> keys;
  std::deque<std::size_t> recent;  // key index per line, newest at back

  std::vector<std::pair<std::uint32_t, bool>> constructs;  // unused (n, validate)
  for (std::uint32_t n = 3; n <= params.construct_n_max; ++n)
    for (const bool validate : {true, false}) constructs.push_back({n, validate});
  shuffle(&constructs, rng);
  std::uint64_t solve_tag = 0;

  std::vector<std::string> out;
  out.reserve(params.lines);
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < params.lines; ++i) {
    candidates.clear();
    for (std::size_t age = params.hit_min_age;
         age < params.hit_max_age && age <= recent.size(); ++age) {
      const std::size_t k = recent[recent.size() - age];
      // Each resident key once, at its latest touch.
      if (keys[k].last == i - age) candidates.push_back(k);
    }
    std::size_t k = 0;
    if (!candidates.empty() && rng.percent(params.hit_pct)) {
      k = candidates[rng.uniform(
          0, static_cast<std::uint32_t>(candidates.size() - 1))];
      const Key& key = keys[k];
      std::string text = key.line;
      if (!key.chords.empty() && rng.percent(50))
        text = demand_line(key.n, dihedral_image(key.n, key.chords, rng));
      out.push_back(std::move(text));
    } else {
      Key key;
      const std::uint32_t r = rng.uniform(0, 99);
      if (r < params.construct_pct && !constructs.empty()) {
        const auto [n, validate] = constructs.back();
        constructs.pop_back();
        key.line = k_n_line("construct", n, validate);
      } else if (r < params.construct_pct + params.solve_pct) {
        const std::uint32_t n = kSolvable[rng.uniform(0, 8)];
        // A distinct max_nodes gives a distinct key for the same search.
        key.line = "{\"algo\":\"solve\",\"n\":" + std::to_string(n) +
                   ",\"max_nodes\":" + std::to_string(1000000 + solve_tag++) +
                   "}";
      } else {
        key.n = rng.uniform(params.greedy_n_lo, params.greedy_n_hi);
        key.chords = random_demand(key.n, rng.uniform(key.n / 2, 3 * key.n), rng);
        key.line = demand_line(key.n, key.chords);
      }
      out.push_back(key.line);
      k = keys.size();
      keys.push_back(std::move(key));
    }
    keys[k].last = i;
    recent.push_back(k);
    if (recent.size() > params.hit_max_age) recent.pop_front();
  }
  return out;
}

// ---------------------------------------------------------------------------

std::vector<ScriptItem> solve_script(std::uint64_t seed, bool canary) {
  using E = ScriptItem::Expect;
  const std::pair<std::uint32_t, std::uint64_t> feasible[] = {
      {13, 819},   {15, 753},    {17, 350},   {19, 7369},
      {21, 12451}, {23, 45437},  {25, 595314}};
  std::vector<ScriptItem> items;
  for (const auto& [n, nodes] : feasible)
    items.push_back({"feasible_n" + std::to_string(n),
                     "{\"algo\":\"solve\",\"n\":" + std::to_string(n) + "}",
                     E::kFeasible, false, nodes, ""});
  items.push_back({"proof_n8", R"({"algo":"solve","n":8,"budget":8})",
                   E::kProof, false, 9823, ""});
  if (!canary) {
    items.push_back({"proof_n12", R"({"algo":"solve","n":12,"budget":18})",
                     E::kProof, false, 39310429, ""});
    for (const std::uint32_t n : {10u, 12u, 14u})
      items.push_back({"capped_n" + std::to_string(n),
                       "{\"algo\":\"solve\",\"n\":" + std::to_string(n) +
                           ",\"max_nodes\":4000000}",
                       E::kCapped, false, 4000001, ""});
  }
  Rng rng(seed ^ 0x3c6ef372fe94f82bULL);
  shuffle(&items, rng);
  if (canary)
    items.push_back(
        {"parallel_feasible_n25",
         R"({"algo":"solve-parallel","n":25,"threads":2})", E::kFeasible,
         true, 595314, "feasible_n25"});
  else
    items.push_back(
        {"parallel_proof_n12",
         R"({"algo":"solve-parallel","n":12,"budget":18,"threads":2})",
         E::kProof, true, 39310429, "proof_n12"});
  return items;
}

}  // namespace perfbench
