#include "ccov/engine/cache.hpp"

#include <algorithm>
#include <charconv>
#include <functional>
#include <utility>

#include "ccov/util/failpoint.hpp"

namespace ccov::engine {

namespace {

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Image of the demand multiset under g, normalized (u <= v per edge)
/// and sorted so equal multisets compare equal.
EdgeList transform_demand(const std::vector<graph::Edge>& demand,
                          std::uint32_t n, const DihedralElement& g) {
  EdgeList out;
  out.reserve(demand.size());
  for (const auto& e : demand) {
    std::uint32_t u = g.map(e.u, n), v = g.map(e.v, n);
    if (u > v) std::swap(u, v);
    out.emplace_back(u, v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Decimal append without a std::to_string temporary — key building sits
/// on the cache-hit hot path. Bytes match what ostringstream printed
/// (bools as 1/0 via the integer overloads).
void append_num(std::string* out, std::uint64_t v) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out->append(buf, end);
}

}  // namespace

CanonicalKey canonical_request_key(const CoverRequest& req) {
  std::string key;
  key.reserve(96);
  key += req.algorithm;
  key += "|n=";
  append_num(&key, req.n);
  key += "|b=";
  append_num(&key, req.budget);
  key += "|l=";
  append_num(&key, req.lambda);
  key += "|mcl=";
  append_num(&key, req.solver.max_cycle_len);
  key += "|mn=";
  append_num(&key, req.solver.max_nodes);
  key += "|cp=";
  append_num(&key, req.solver.use_capacity_prune ? 1 : 0);
  key += "|v=";
  append_num(&key, req.validate ? 1 : 0);

  CanonicalKey out;
  if (req.demand.empty() || req.n == 0) {
    // K_n is fixed by every element of D_n: the identity suffices.
    key += "|K_n";
  } else {
    EdgeList best;
    const bool chords_of_ring =
        std::all_of(req.demand.begin(), req.demand.end(),
                    [&](const graph::Edge& e) {
                      return e.u < req.n && e.v < req.n && e.u != e.v;
                    });
    if (!chords_of_ring) {
      // D_n acts on chords of C_n only. Any other demand is keyed as
      // given under the identity, so it never shares an entry with a
      // demand it does not equal.
      for (const graph::Edge& e : req.demand) best.emplace_back(e.u, e.v);
    } else {
      // Lexicographically least D_n-image of the demand; the minimizing
      // element maps this request's frame onto the canonical frame.
      bool have_best = false;
      for (int refl = 0; refl < 2; ++refl) {
        for (std::uint32_t s = 0; s < req.n; ++s) {
          const DihedralElement g{refl != 0, s};
          EdgeList img = transform_demand(req.demand, req.n, g);
          if (!have_best || img < best) {
            best = std::move(img);
            out.to_canonical = g;
            have_best = true;
          }
        }
      }
    }
    key += "|D";
    for (const auto& [u, v] : best) {
      key += " ";
      append_num(&key, u);
      key += "-";
      append_num(&key, v);
    }
  }
  out.key = std::move(key);
  return out;
}

covering::RingCover apply_element(covering::RingCover cover,
                                  const DihedralElement& g) {
  if (cover.n == 0) return cover;
  for (covering::Cycle& c : cover.cycles)
    for (covering::Vertex& v : c) v = g.map(v, cover.n);
  return cover;
}

covering::RingCover apply_inverse(covering::RingCover cover,
                                  const DihedralElement& g) {
  if (cover.n == 0) return cover;
  for (covering::Cycle& c : cover.cycles)
    for (covering::Vertex& v : c) v = g.unmap(v, cover.n);
  return cover;
}

CoverResponse hit_response(CoverResponse entry, const DihedralElement& g) {
  if (entry.found) entry.cover = apply_inverse(std::move(entry.cover), g);
  entry.cache_hit = true;
  entry.nodes = 0;
  entry.elapsed_ms = 0.0;
  return entry;
}

CoverCache::CoverCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity == 0 ? 1 : capacity),
      shards_(std::clamp<std::size_t>(shards, 1, capacity_)) {
  // Split the capacity exactly: base slice everywhere, one extra entry in
  // the first capacity % shards shards.
  const std::size_t count = shards_.size();
  const std::size_t base = capacity_ / count;
  const std::size_t extra = capacity_ % count;
  for (std::size_t i = 0; i < count; ++i)
    shards_[i].capacity = base + (i < extra ? 1 : 0);
}

CoverCache::Shard& CoverCache::shard_for(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::optional<CoverResponse> CoverCache::lookup(const CanonicalKey& ck) {
  std::optional<CoverResponse> entry;
  if (!probe(ck, [&](const CoverResponse& e, std::uint64_t) { entry = e; }))
    return std::nullopt;
  // Remap outside the shard lock.
  return hit_response(*std::move(entry), ck.to_canonical);
}

bool CoverCache::should_cache(const CoverResponse& resp) {
  if (!resp.ok) return false;  // genuine error: transient, retryable
  // Deadline casualties are never proofs: a timed-out search could
  // settle given more wall clock, and a degraded (greedy-fallback)
  // answer is found==true yet deliberately non-minimal — caching either
  // would pin a transient condition onto a permanent key. Shed responses
  // never reach the cache path at all.
  if (resp.timed_out || resp.degraded) return false;
  // ok && !found && !exhausted means the budget ran out before the search
  // settled the instance — a bigger budget (or luckier parallel schedule)
  // could still answer, so only exhausted negatives are proofs.
  return resp.found || resp.exhausted;
}

void CoverCache::insert(const CanonicalKey& ck, const CoverResponse& resp) {
  if (!should_cache(resp)) return;
  // Fault-injection seam: a failed insert models memory pressure. The
  // cache is an accelerator, so "fail" means "silently drop" — callers
  // never depend on an insert landing.
  if (CCOV_FAILPOINT("cache_insert")) return;
  CoverResponse stored = resp;
  stored.cache_hit = false;
  // Store the cover in the canonical frame so every D_n-equivalent
  // request shares this one entry.
  if (stored.found)
    stored.cover = apply_element(std::move(stored.cover), ck.to_canonical);
  store(ck.key, std::move(stored));
}

void CoverCache::store(const std::string& key, CoverResponse resp) {
  Shard& shard = shard_for(key);
  const std::uint64_t stamp =
      next_stamp_.fetch_add(1, std::memory_order_relaxed);
  bool evicted = false;
  {
    util::MutexLock lk(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->resp = std::move(resp);
      it->second->stamp = stamp;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.push_front(Entry{key, std::move(resp), stamp});
    shard.index[key] = shard.lru.begin();
    if (shard.lru.size() > shard.capacity) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      evicted = true;
    }
  }
  if (evicted) evictions_.fetch_add(1, std::memory_order_relaxed);
}

void CoverCache::import_entry(const std::string& key, CoverResponse resp) {
  resp.cache_hit = false;
  store(key, std::move(resp));
}

CoverCache::Stats CoverCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

std::size_t CoverCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lk(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

void CoverCache::clear() {
  for (Shard& shard : shards_) {
    util::MutexLock lk(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, CoverResponse>> CoverCache::export_entries()
    const {
  std::vector<std::pair<std::string, CoverResponse>> out;
  out.reserve(size());
  for (const Shard& shard : shards_) {
    util::MutexLock lk(shard.mu);
    for (const Entry& e : shard.lru) out.emplace_back(e.key, e.resp);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace ccov::engine
