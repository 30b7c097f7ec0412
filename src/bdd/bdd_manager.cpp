// Node arena, unique table, computed cache, reference counting, and
// mark-and-sweep garbage collection with a cache keep-alive sweep, and the
// structural passes (GC, census) that run at public-API boundaries.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "obs/control.hpp"
#include "obs/log.hpp"

namespace hsis {

namespace {

/// Unique-table bucket of a node triple: one multiply per field, top bits.
inline uint32_t uniqueBucketOf(uint32_t var, uint32_t lo, uint32_t hi,
                               uint32_t mask) {
  uint64_t h = static_cast<uint64_t>(var) * 0x9e3779b97f4a7c15ull ^
               static_cast<uint64_t>(lo) * 0xff51afd7ed558ccdull ^
               static_cast<uint64_t>(hi) * 0xc4ceb9fe1a85ec53ull;
  return static_cast<uint32_t>(h >> 32) & mask;
}

}  // namespace

// ---------------------------------------------------------------- manager

BddManager::BddManager(uint32_t numVars)
    : obsCacheLookups_(obs::counter("bdd.cache.lookups")),
      obsCacheHits_(obs::counter("bdd.cache.hits")),
      obsCacheAged_(obs::counter("bdd.cache.aged")),
      obsNodesCreated_(obs::counter("bdd.nodes.created")),
      obsGcRuns_(obs::counter("bdd.gc.runs")),
      obsGcReclaimed_(obs::counter("bdd.gc.reclaimed")),
      obsGcMicros_(obs::counter("bdd.gc.micros")),
      obsReorderings_(obs::counter("bdd.reorder.count")),
      obsCacheKept_(obs::counter("bdd.cache.gc_kept")),
      obsCacheDropped_(obs::counter("bdd.cache.gc_dropped")),
      obsUniqueSize_(obs::gauge("bdd.unique.size")),
      obsUniquePeak_(obs::gauge("bdd.unique.peak")),
      obsUniqueBuckets_(obs::gauge("bdd.unique.buckets")) {
  nodes_.reserve(1 << 12);
  // Slot 0 is reserved (no edge ever points at it; keeps arena loops and
  // level arithmetic starting at 2 as before complement edges). Slot 1 is
  // the single ONE terminal; FALSE is its complemented edge. Neither is in
  // the unique table; both carry permanent references.
  nodes_.push_back({kNoVar, kRefSaturated, 0, 0, kNil});
  nodes_.push_back({kNoVar, kRefSaturated, 1, 1, kNil});

  uniqueTable_.assign(1 << 12, kNil);
  uniqueMask_ = static_cast<uint32_t>(uniqueTable_.size() - 1);
  obsUniqueBuckets_.set(static_cast<int64_t>(uniqueTable_.size()));

  cache_.assign(size_t{1} << 13, CacheSet{});  // 2^14 entries
  cacheMask_ = static_cast<uint32_t>(cache_.size() - 1);

  for (uint32_t i = 0; i < numVars; ++i) newVar();
}

BddManager::~BddManager() { flushObs(); }

BddVar BddManager::newVar() {
  if (perm_.size() >= kMaxVars)
    throw std::length_error("BddManager: variable limit reached");
  BddVar v = static_cast<BddVar>(perm_.size());
  perm_.push_back(v);
  invPerm_.push_back(v);
  return v;
}

BddVar BddManager::newVarAtLevel(uint32_t lvl) {
  BddVar v = newVar();
  if (lvl >= perm_.size()) return v;
  // Shift levels [lvl, end) down by one and place v at lvl.
  for (uint32_t l = static_cast<uint32_t>(invPerm_.size()) - 1; l > lvl; --l) {
    invPerm_[l] = invPerm_[l - 1];
    perm_[invPerm_[l]] = l;
  }
  invPerm_[lvl] = v;
  perm_[v] = lvl;
  return v;
}

Bdd BddManager::bddVar(BddVar v) {
  assert(v < perm_.size());
  ScopedOp guard(this);
  return makeHandle(mkNode(v, kZeroEdge, kOneEdge));
}

Bdd BddManager::bddLiteral(BddVar v, bool positive) {
  ScopedOp guard(this);
  return makeHandle(positive ? mkNode(v, kZeroEdge, kOneEdge)
                             : mkNode(v, kOneEdge, kZeroEdge));
}

Bdd BddManager::bddOne() { return makeHandle(kOneEdge); }
Bdd BddManager::bddZero() { return makeHandle(kZeroEdge); }

// ------------------------------------------------------------- node layer

uint32_t BddManager::mkNode(BddVar var, uint32_t lo, uint32_t hi) {
  if (lo == hi) return lo;
  // Canonical form: the low edge is never complemented. A node whose low
  // edge would be complemented is stored as its own negation, and the
  // complement moves to the returned edge:
  //   node(v, !l, h) == !node(v, l, !h)
  uint32_t outSign = eSign(lo);
  if (outSign != 0) {
    lo = eNot(lo);
    hi = eNot(hi);
  }
  uint32_t bucket = uniqueBucketOf(var, lo, hi, uniqueMask_);
  for (uint32_t n = uniqueTable_[bucket]; n != kNil; n = nodes_[n].next) {
    const Node& nd = nodes_[n];
    if (nd.var == var && nd.lo == lo && nd.hi == hi) return n | outSign;
  }
  uint32_t idx;
  if (freeHead_ != kNil) {
    idx = popFree();
    nodes_[idx] = Node{static_cast<NodeVar>(var), 0, lo, hi, kNil};
  } else {
    idx = static_cast<uint32_t>(nodes_.size());
    if ((idx & kComplBit) != 0)
      throw std::length_error("BddManager: node arena full");
    nodes_.push_back(Node{static_cast<NodeVar>(var), 0, lo, hi, kNil});
  }
  nodes_[idx].next = uniqueTable_[bucket];
  uniqueTable_[bucket] = idx;
  ++uniqueCount_;
  ++created_;
  if (uniqueCount_ > stats_.peakLiveNodes) stats_.peakLiveNodes = uniqueCount_;
  if (uniqueCount_ > uniqueTable_.size()) growUnique();
  // Keep the operation cache proportional to the nodes in use, or deep
  // recursions degenerate into exponential recomputation.
  if (cacheDemand() > cache_.size() * 2) growCache(cache_.size() * 2);
  return idx | outSign;
}

void BddManager::growCache(size_t minSets) {
  size_t sets = cache_.size();
  while (sets < minSets) sets *= 2;
  if (sets == cache_.size()) return;
  std::vector<CacheSet> old = std::move(cache_);
  cache_.assign(sets, CacheSet{});
  cacheMask_ = static_cast<uint32_t>(cache_.size() - 1);
  ++cacheGen_;  // slot numbering changed: outstanding probes must rehash
  for (const CacheSet& s : old) {
    for (const CacheEntry& e : s.way) {
      if (e.k1 == ~0ull && e.k2 == ~0ull) continue;
      // Re-inserted entries land in way 0 of their new set; collisions
      // during the rebuild fall back to the normal 2-way replacement.
      uint32_t slot = cacheSlotOf(e.k1, e.k2 & ~kCacheAgeBit, cacheMask_);
      CacheEntry* set = cache_[slot].way;
      if (set[0].k1 == ~0ull && set[0].k2 == ~0ull) {
        set[0] = e;
      } else {
        set[1] = e;
      }
    }
  }
}

void BddManager::growCacheToMatch(const BddManager& source) {
  growCache(source.cache_.size());
}

void BddManager::uniqueInsert(uint32_t n) {
  const Node& nd = nodes_[n];
  uint32_t bucket = uniqueBucketOf(nd.var, nd.lo, nd.hi, uniqueMask_);
  nodes_[n].next = uniqueTable_[bucket];
  uniqueTable_[bucket] = n;
  ++uniqueCount_;
  // Re-inserts during level swaps grow the table too; without this the
  // peak could read below the live count right after a reordering.
  if (uniqueCount_ > stats_.peakLiveNodes) stats_.peakLiveNodes = uniqueCount_;
}

void BddManager::uniqueRemove(uint32_t n) {
  const Node& nd = nodes_[n];
  uint32_t bucket = uniqueBucketOf(nd.var, nd.lo, nd.hi, uniqueMask_);
  uint32_t* link = &uniqueTable_[bucket];
  while (*link != kNil) {
    if (*link == n) {
      *link = nodes_[n].next;
      nodes_[n].next = kNil;
      --uniqueCount_;
      return;
    }
    link = &nodes_[*link].next;
  }
  assert(false && "uniqueRemove: node not in table");
}

void BddManager::growUnique() {
  // Grow 4x: the table is rebuilt wholesale and rehashing is the dominant
  // cost of a build-up phase, so overshoot rather than rehash per doubling.
  std::vector<uint32_t> old = std::move(uniqueTable_);
  uniqueTable_.assign(old.size() * 4, kNil);
  uniqueMask_ = static_cast<uint32_t>(uniqueTable_.size() - 1);
  obsUniqueBuckets_.set(static_cast<int64_t>(uniqueTable_.size()));
  for (uint32_t head : old) {
    for (uint32_t n = head; n != kNil;) {
      uint32_t next = nodes_[n].next;
      const Node& nd = nodes_[n];
      uint32_t bucket = uniqueBucketOf(nd.var, nd.lo, nd.hi, uniqueMask_);
      nodes_[n].next = uniqueTable_[bucket];
      uniqueTable_[bucket] = n;
      n = next;
    }
  }
}

void BddManager::maybeGcOrSift() {
  if (opDepth_ > 0) return;
  // Cooperative cancellation point: we are at a public-op boundary with no
  // raw node indices live on any recursion stack, so unwinding here cannot
  // corrupt manager state.
  obs::checkAbort();
  // Census rendezvous with the sampling profiler: it raised a flag from
  // its own thread; we answer here, where nothing is mid-mutation, so the
  // sampler never reads manager structures concurrently. One relaxed load
  // when no profiler is running.
  if (obs::prof::censusRequested()) obs::prof::publishCensus(census());
  if (gcDue()) gc();
}

void BddManager::applyGcPolicy(size_t freed) {
  // A collection costs O(arena + cache) whatever it frees, so the next one
  // waits for a fixed budget of fresh nodes beyond the live set: each is
  // paid back by at least kGcBudget reclaimed slots, not by whatever a
  // threshold fixed at startup leaves above the live count. A sweep that
  // still freed under a third of the live set waits for twice the live
  // set instead, so large live sets are not rescanned for little return.
  // The threshold only rises: the arena already holds the slots a higher
  // one needs, and lowering it would only collect more often.
  const size_t live = uniqueCount_;
  gcLive_ = live;
  gcThreshold_ = std::max({gcThreshold_, live + kGcBudget,
                           freed < live / 3 ? 2 * live : 0});
  // Between collections the cache grows only with the nodes a running
  // operation holds (cacheDemand). Here it catches up with the live set,
  // twice over up to one budget: room for the results fixpoint loops reuse
  // on the live sets, which the keep-alive sweep carries over, beside the
  // fresh ones of the next collection cycle.
  const size_t want = live + std::min(live, kGcBudget);
  growCache((want + 1) / 2);
  HSIS_LOG_DEBUG("bdd.gc", "sweep complete",
                 {{"freed", freed}, {"live", live}, {"threshold", gcThreshold_}});
}

void BddManager::flushObs() {
  // These adds land on relaxed atomics in the obs registry, so managers on
  // different threads (batch replicas) flush into it race-free, and a
  // reader can snapshot the registry at any time.
  obsCacheLookups_.add(cacheLookups_ - flushedLookups_);
  flushedLookups_ = cacheLookups_;
  obsCacheHits_.add(cacheHits_ - flushedHits_);
  flushedHits_ = cacheHits_;
  obsCacheAged_.add(cacheAged_ - flushedAged_);
  flushedAged_ = cacheAged_;
  obsNodesCreated_.add(created_ - flushedCreated_);
  flushedCreated_ = created_;
  obsUniqueSize_.set(static_cast<int64_t>(uniqueCount_));
  obsUniquePeak_.updateMax(static_cast<int64_t>(stats_.peakLiveNodes));
}

const BddStats& BddManager::stats() const {
  stats_.liveNodes = uniqueCount_;
  stats_.allocatedNodes = nodes_.size();
  stats_.cacheLookups = cacheLookups_;
  stats_.cacheHits = cacheHits_;
  return stats_;
}

// ----------------------------------------------------------------- GC core

std::vector<uint8_t> BddManager::markReachable() const {
  // Every node reachable from an externally referenced node survives.
  // Iterative DFS over the arena; child edges strip the complement bit.
  // Free slots (var == kNoVar) are never roots, and children of live nodes
  // are live, so the walk cannot enter one.
  std::vector<uint8_t> marked(nodes_.size(), 0);
  marked[0] = marked[1] = 1;
  std::vector<uint32_t> stack;
  for (uint32_t i = 2; i < nodes_.size(); ++i) {
    if (nodes_[i].var != kNoVar && nodes_[i].ref > 0 && !marked[i]) {
      stack.assign(1, i);
      while (!stack.empty()) {
        uint32_t n = stack.back();
        stack.pop_back();
        if (marked[n]) continue;
        marked[n] = 1;
        uint32_t lo = eIdx(nodes_[n].lo), hi = eIdx(nodes_[n].hi);
        if (!marked[lo]) stack.push_back(lo);
        if (!marked[hi]) stack.push_back(hi);
      }
    }
  }
  return marked;
}

void BddManager::cacheKeepAlive(const std::vector<uint8_t>& marked) {
  // Keep-alive sweep: a cached result stays valid as long as every node it
  // mentions survived the collection — operand edges, the result edge, and
  // for ternary ops the third operand. Entries whose nodes all survived are
  // left in place (their slot depends only on the key, which is unchanged);
  // the rest are dropped before their arena slots can be reused.
  //
  // One pass with a single data-dependent branch (empty way or not): the
  // four fields are masked to node indices and their mark bytes ANDed.
  // Binary ops store 0 in c, Leq a boolean in the result; slots 0 and 1
  // are always marked, so those fields read as alive. Permute packs a map
  // id (not an edge) in b, which is replaced by the always-marked slot 1.
  // Every index an entry mentions is < nodes_.size() == marked.size():
  // entries referencing dead nodes are dropped at the GC that freed them,
  // so no entry outlives the arena coordinates it was keyed on.
  constexpr uint64_t kOpPermute = static_cast<uint64_t>(Op::Permute) << 32;
  constexpr uint64_t kOpMask = uint64_t{0xFF} << 32;
  const uint8_t* mk = marked.data();
  size_t kept = 0, used = 0;
  for (CacheSet& s : cache_)
  for (CacheEntry& e : s.way) {
    if (e.k1 == ~0ull) continue;  // empty: a real key never has a = ~0u
    uint32_t a = static_cast<uint32_t>(e.k1 >> 32);
    uint32_t b = static_cast<uint32_t>(e.k1);
    uint32_t c = static_cast<uint32_t>(e.k2);
    b = (e.k2 & kOpMask) == kOpPermute ? kOneEdge : b;
    uint8_t ok = mk[eIdx(a)] & mk[eIdx(b)] & mk[eIdx(c)] & mk[eIdx(e.result)];
    ++used;
    kept += ok;
    if (!ok) e = CacheEntry{};
  }
  obsCacheKept_.add(kept);
  obsCacheDropped_.add(used - kept);
}

size_t BddManager::gc() {
  // One clock reading pair per collection, none per operation.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<uint8_t> marked = markReachable();

  // Sweep by rebuilding the unique table wholesale: clearing buckets and
  // re-chaining survivors is O(arena), where unlinking each dead node
  // individually would walk its bucket chain again per death.
  std::fill(uniqueTable_.begin(), uniqueTable_.end(), kNil);
  uniqueCount_ = 0;
  size_t freed = 0;
  for (uint32_t i = 2; i < nodes_.size(); ++i) {
    if (nodes_[i].var == kNoVar) continue;  // already on the free list
    if (marked[i]) {
      uniqueInsert(i);
    } else {
      pushFree(i);
      ++freed;
    }
  }
  // The computed cache survives collection minus entries touching freed
  // nodes — fixpoint loops that negate/intersect the same live state sets
  // every iteration keep their hits across GCs.
  cacheKeepAlive(marked);
  applyGcPolicy(freed);
  ++stats_.gcRuns;
  stats_.liveNodes = uniqueCount_;
  stats_.allocatedNodes = nodes_.size();
  obsGcRuns_.add();
  obsGcReclaimed_.add(freed);
  obsGcMicros_.add(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  flushObs();
  return freed;
}

void BddManager::clearCaches() {
  for (auto& s : cache_) s = CacheSet{};
}

obs::prof::BddCensus BddManager::census() const {
  obs::prof::BddCensus c;
  c.liveNodes = uniqueCount_;
  c.allocatedNodes = nodes_.size() - 2;  // terminal + reserved slot excluded
  c.freeNodes = freeCount_;
  c.uniqueBuckets = uniqueTable_.size();
  c.cacheEntries = cache_.size() * 2;
  for (const CacheSet& s : cache_)
    for (const CacheEntry& e : s.way)
      if (e.k1 != ~0ull || e.k2 != ~0ull) ++c.cacheUsed;
  c.cacheLookups = cacheLookups_;
  c.cacheHits = cacheHits_;
  c.gcRuns = stats_.gcRuns;
  c.reorderings = stats_.reorderings;
  c.peakLiveNodes = stats_.peakLiveNodes;

  c.levelNodes.assign(perm_.size(), 0);
  for (uint32_t i = 2; i < nodes_.size(); ++i) {
    if (nodes_[i].var != kNoVar) ++c.levelNodes[perm_[nodes_[i].var]];
  }

  // Dead = in the unique table but unreachable from any externally
  // referenced node: the same mark pass gc() runs, so deadNodes is exactly
  // what the next sweep would reclaim (and 0 right after one).
  std::vector<uint8_t> marked = markReachable();
  for (uint32_t i = 2; i < nodes_.size(); ++i) {
    if (nodes_[i].var != kNoVar && !marked[i]) ++c.deadNodes;
  }
  return c;
}

}  // namespace hsis
