// Shared-phase engine: per-thread contexts, the lock-free (CAS-inserted)
// unique table, the bump/free-chunk node allocator, and the two-tier
// stop-the-world safe-point protocol.
//
// Protocol summary (see DESIGN.md "Parallel engine" for the full writeup):
//
//   sharedInsideOps_  — threads currently executing an operation.
//   stwShallow_       — a coordinator wants to mutate structure *compatible
//                       with parked mid-recursion state* (unique-table
//                       growth). Workers poll the flag at every cache
//                       lookup / node creation and park in place; their raw
//                       edges stay valid because nothing moves or dies.
//   stwDeep_          — a coordinator wants to mutate structure that
//                       invalidates un-rooted intermediate results (GC,
//                       sifting, census). Only gated at op *boundaries*:
//                       the coordinator waits for sharedInsideOps_ == 0,
//                       so no recursion is ever suspended across a deep
//                       mutation.
//
// Election for either tier is a compare-exchange on the flag itself — the
// loser simply skips (the winner is doing equivalent work) or parks at the
// gate, so there is no coordinator lock to deadlock on.
//
// Memory-model notes:
//  - enterSharedOp increments sharedInsideOps_ (seq_cst) and *then* loads
//    both flags (seq_cst): the Dekker-style store-load pairing with the
//    coordinator's flag-store/count-load guarantees one side sees the
//    other.
//  - A bucket head is the only synchronization point of the unique table:
//    publishing a node is a release-CAS on the head, and one acquire load
//    of the head covers every field of every node on the chain (fields and
//    the chain link are written before publication and never change while
//    shared — removal happens only under stop-the-world).
//  - The coordinator clears a flag under parkMu_ (parked threads resume
//    with mutex-given happens-before) with a seq_cst store (op-boundary
//    threads synchronize through their seq_cst gate loads).
#include "bdd/bdd.hpp"

#include <algorithm>
#include <stdexcept>

namespace hsis {

namespace {

/// Unique-table bucket of a node triple — must match bdd_manager.cpp.
inline uint32_t uniqueBucketOf(uint32_t var, uint32_t lo, uint32_t hi,
                               uint32_t mask) {
  uint64_t h = static_cast<uint64_t>(var) * 0x9e3779b97f4a7c15ull ^
               static_cast<uint64_t>(lo) * 0xff51afd7ed558ccdull ^
               static_cast<uint64_t>(hi) * 0xc4ceb9fe1a85ec53ull;
  return static_cast<uint32_t>(h >> 32) & mask;
}

/// Per-manager shared epochs are drawn from one process-wide counter so a
/// stale thread-local binding can never collide with a new manager that
/// happens to reuse the same address.
std::atomic<uint64_t> g_sharedEpochSource{0};

struct TlsCtxBinding {
  const void* mgr = nullptr;
  uint64_t epoch = 0;
  void* ctx = nullptr;
};
/// One-entry cache: the common case is a thread hammering a single shared
/// manager. A miss (first touch, or alternating between two shared
/// managers) falls back to the mutex-guarded registry.
thread_local TlsCtxBinding t_ctxBinding;

}  // namespace

// ------------------------------------------------------- thread contexts

BddManager::ThreadCtx& BddManager::sharedCtx() {
  if (t_ctxBinding.mgr == this && t_ctxBinding.epoch == sharedEpoch_)
    return *static_cast<ThreadCtx*>(t_ctxBinding.ctx);
  ThreadCtx& tc = attachThreadCtx();
  t_ctxBinding = TlsCtxBinding{this, sharedEpoch_, &tc};
  return tc;
}

BddManager::ThreadCtx& BddManager::attachThreadCtx() {
  std::lock_guard<std::mutex> g(ctxMu_);
  auto it = ctxByThread_.find(std::this_thread::get_id());
  if (it != ctxByThread_.end()) return *it->second;
  workerCtxs_.push_back(std::make_unique<ThreadCtx>());
  ThreadCtx* tc = workerCtxs_.back().get();
  tc->cache.assign(size_t{1} << 13, CacheSet{});  // 2^14 entries
  tc->cacheMask = static_cast<uint32_t>(tc->cache.size() - 1);
  ctxByThread_.emplace(std::this_thread::get_id(), tc);
  return *tc;
}

// ------------------------------------------------------------ shared phase

void BddManager::beginShared(size_t maxNodes) {
  if (sharedMode_)
    throw std::logic_error("BddManager::beginShared: already shared");
  if (mainCtx_.opDepth != 0)
    throw std::logic_error("BddManager::beginShared: operation active");

  // Index space is 31 bits (bit 31 is the complement mark).
  size_t cap = std::min<size_t>(maxNodes, kComplBit);
  cap = std::max(cap, nodes_.size() + (size_t(1) << 16));
  nodes_.reserve(cap);
  sharedCapacity_ = cap;

  // Pre-grow the arena window so the first burst of allocations does not
  // immediately serialize on growMu_. The bump pointer starts at the old
  // arena end; slots below it stay reachable through the global free list.
  size_t initial =
      std::min(cap, std::max(nodes_.size() * 2, size_t(1) << 16));
  uint32_t top = static_cast<uint32_t>(nodes_.size());
  nodes_.resize(initial);
  nodeTop_.store(top, std::memory_order_relaxed);
  arenaLimit_.store(static_cast<uint32_t>(initial), std::memory_order_relaxed);

  if (!shardCounts_) shardCounts_ = std::make_unique<ShardCount[]>(kNumShards);
  for (uint32_t s = 0; s < kNumShards; ++s)
    shardCounts_[s].n.store(0, std::memory_order_relaxed);

  sharedInsideOps_.store(0, std::memory_order_relaxed);
  parkedShallow_.store(0, std::memory_order_relaxed);
  stwShallow_.store(false, std::memory_order_relaxed);
  stwDeep_.store(false, std::memory_order_relaxed);

  sharedEpoch_ = g_sharedEpochSource.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    // The calling thread keeps the main context (with its warm cache);
    // worker threads attach fresh ones lazily.
    std::lock_guard<std::mutex> g(ctxMu_);
    ctxByThread_.clear();
    ctxByThread_.emplace(std::this_thread::get_id(), &mainCtx_);
  }
  t_ctxBinding = TlsCtxBinding{this, sharedEpoch_, &mainCtx_};
  sharedMode_ = true;
}

void BddManager::endShared() {
  if (!sharedMode_)
    throw std::logic_error("BddManager::endShared: not in a shared phase");
  // Caller contract: every worker thread has finished (joined) — there is
  // no concurrent activity on this manager anymore.
  assert(mainCtx_.opDepth == 0 && "endShared with an operation still active");
  flushObs(mainCtx_);
  for (auto& c : workerCtxs_) {
    assert(c->opDepth == 0 && "endShared with an operation still active");
    flushObs(*c);
  }

  // Fold the exact occupancy back into uniqueCount_ (no removals happen in
  // a shared phase, so base + shard deltas *is* exact).
  int64_t delta = 0;
  for (uint32_t s = 0; s < kNumShards; ++s) {
    delta += shardCounts_[s].n.load(std::memory_order_relaxed);
    shardCounts_[s].n.store(0, std::memory_order_relaxed);
  }
  uniqueCount_ = static_cast<size_t>(static_cast<int64_t>(uniqueCount_) + delta);
  if (uniqueCount_ > stats_.peakLiveNodes) stats_.peakLiveNodes = uniqueCount_;

  // Consolidate free slots: per-thread chunks, then the virgin region the
  // bump allocator never reached — without this the serial allocator would
  // leak every untouched slot of the resized arena.
  for (uint32_t i : mainCtx_.freeChunk) pushFree(i);
  mainCtx_.freeChunk.clear();
  for (auto& c : workerCtxs_) {
    for (uint32_t i : c->freeChunk) pushFree(i);
    c->freeChunk.clear();
  }
  for (uint32_t i = nodeTop_.load(std::memory_order_relaxed);
       i < nodes_.size(); ++i)
    pushFree(i);

  // Retire worker contexts (keep the main one and its warm cache). Their
  // lifetime tallies move to the retired accumulators so stats()/census()
  // totals do not go backwards.
  {
    std::lock_guard<std::mutex> g(ctxMu_);
    for (auto& c : workerCtxs_) {
      retiredLookups_ += c->cacheLookups;
      retiredHits_ += c->cacheHits;
      retiredCreated_ += c->created;
      retiredAged_ += c->cacheAged;
    }
    workerCtxs_.clear();
    ctxByThread_.clear();
  }

  sharedMode_ = false;
  fj_ = nullptr;
  obsUniqueSize_.set(static_cast<int64_t>(uniqueCount_));
  obsUniquePeak_.updateMax(static_cast<int64_t>(stats_.peakLiveNodes));
}

void BddManager::setParallel(par::ForkJoin* fj, size_t cutoffNodes,
                             int splitDepth) {
  fj_ = fj;
  parCutoff_ = cutoffNodes;
  parSplitDepth_ = splitDepth;
}

// --------------------------------------------------------- safe-point gate

void BddManager::enterSharedOp(ThreadCtx& tc) {
  for (;;) {
    sharedInsideOps_.fetch_add(1, std::memory_order_seq_cst);
    if (!stwShallow_.load(std::memory_order_seq_cst) &&
        !stwDeep_.load(std::memory_order_seq_cst)) {
      tc.inside = true;
      return;
    }
    sharedInsideOps_.fetch_sub(1, std::memory_order_seq_cst);
    std::unique_lock<std::mutex> lk(parkMu_);
    parkCv_.wait(lk, [&] {
      return !stwShallow_.load(std::memory_order_relaxed) &&
             !stwDeep_.load(std::memory_order_relaxed);
    });
  }
}

void BddManager::leaveSharedOp(ThreadCtx& tc) {
  tc.inside = false;
  sharedInsideOps_.fetch_sub(1, std::memory_order_seq_cst);
}

void BddManager::enterSharedTask(ThreadCtx& tc) {
  // Fork-join tasks are continuations of an operation that is already
  // inside (the forker holds the join), so they gate on the shallow flag
  // only: parking them on a deep request would deadlock the joiner the
  // deep coordinator is itself waiting out.
  for (;;) {
    sharedInsideOps_.fetch_add(1, std::memory_order_seq_cst);
    if (!stwShallow_.load(std::memory_order_seq_cst)) {
      tc.inside = true;
      return;
    }
    sharedInsideOps_.fetch_sub(1, std::memory_order_seq_cst);
    std::unique_lock<std::mutex> lk(parkMu_);
    parkCv_.wait(lk,
                 [&] { return !stwShallow_.load(std::memory_order_relaxed); });
  }
}

void BddManager::sharedSafePointSlow(ThreadCtx& tc) {
  // The coordinator's own recursion (e.g. mkNode during a sift swap while
  // it holds the deep STW, or the shallow window it opened itself) must
  // never park on its own flag.
  if (tc.stwCoordinator) return;
  parkedShallow_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lk(parkMu_);
    parkCv_.wait(lk,
                 [&] { return !stwShallow_.load(std::memory_order_relaxed); });
  }
  parkedShallow_.fetch_sub(1, std::memory_order_seq_cst);
}

bool BddManager::stwShallowRun(ThreadCtx& tc, const std::function<void()>& fn) {
  bool expected = false;
  if (!stwShallow_.compare_exchange_strong(expected, true,
                                           std::memory_order_seq_cst))
    return false;
  // Wait until every in-op thread except (possibly) ourselves is parked.
  // While the flag is up, sharedInsideOps_ can only fall (entry is gated)
  // and parkedShallow_ can only rise, so one consistent observation of
  // parked >= inside - self proves quiescence.
  int self = tc.inside ? 1 : 0;
  while (parkedShallow_.load(std::memory_order_seq_cst) <
         sharedInsideOps_.load(std::memory_order_seq_cst) - self)
    std::this_thread::yield();
  struct Clear {
    BddManager* m;
    ~Clear() {
      {
        std::lock_guard<std::mutex> g(m->parkMu_);
        m->stwShallow_.store(false, std::memory_order_seq_cst);
      }
      m->parkCv_.notify_all();
    }
  } clear{this};
  fn();
  return true;
}

bool BddManager::stwDeepRun(ThreadCtx& tc, const std::function<void()>& fn) {
  assert(tc.opDepth == 0 && "deep stop-the-world from inside an operation");
  bool expected = false;
  if (!stwDeep_.compare_exchange_strong(expected, true,
                                        std::memory_order_seq_cst))
    return false;
  while (sharedInsideOps_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  tc.stwCoordinator = true;
  struct Clear {
    BddManager* m;
    ThreadCtx* tc;
    ~Clear() {
      tc->stwCoordinator = false;
      {
        std::lock_guard<std::mutex> g(m->parkMu_);
        m->stwDeep_.store(false, std::memory_order_seq_cst);
      }
      m->parkCv_.notify_all();
    }
  } clear{this, &tc};
  fn();
  return true;
}

// ------------------------------------------------------------- allocation

uint32_t BddManager::allocSlotShared(ThreadCtx& tc) {
  if (!tc.freeChunk.empty()) {
    uint32_t idx = tc.freeChunk.back();
    tc.freeChunk.pop_back();
    return idx;
  }
  {
    std::lock_guard<std::mutex> g(freeMu_);
    if (freeHead_ != kNil) {
      // Take a chunk of up to 128 slots: one now, the rest kept locally.
      uint32_t idx = popFree();
      for (int k = 1; k < 128 && freeHead_ != kNil; ++k)
        tc.freeChunk.push_back(popFree());
      return idx;
    }
  }
  uint32_t idx = nodeTop_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= arenaLimit_.load(std::memory_order_acquire))
    growArenaShared(idx);  // returns (or throws) with arenaLimit_ > idx
  return idx;
}

void BddManager::retireSlotShared(ThreadCtx& tc, uint32_t idx) {
  // A candidate that lost its insertion race: reset the sentinel so a GC
  // sweep cannot double-free the slot, and recycle it thread-locally.
  Node& nd = nodes_[idx];
  nd.var = kNoVar;
  nd.next = kNil;
  tc.freeChunk.push_back(idx);
}

void BddManager::growArenaShared(uint32_t needIdx) {
  std::lock_guard<std::mutex> g(growMu_);
  if (arenaLimit_.load(std::memory_order_relaxed) > needIdx) return;
  size_t want = std::max(nodes_.size() * 2, static_cast<size_t>(needIdx) + 1);
  if (want > sharedCapacity_) want = sharedCapacity_;
  if (want <= needIdx)
    throw std::length_error(
        "BddManager: shared arena capacity exhausted (raise beginShared "
        "maxNodes)");
  nodes_.resize(want);  // within reserved capacity: never reallocates
  arenaLimit_.store(static_cast<uint32_t>(want), std::memory_order_release);
}

size_t BddManager::approxLive() const {
  if (!shardCounts_) return uniqueCount_;
  int64_t delta = 0;
  for (uint32_t s = 0; s < kNumShards; ++s)
    delta += shardCounts_[s].n.load(std::memory_order_relaxed);
  int64_t v = static_cast<int64_t>(uniqueCount_) + delta;
  return v < 0 ? 0 : static_cast<size_t>(v);
}

// ------------------------------------------------------ lock-free mkNode

uint32_t BddManager::mkNodeShared(ThreadCtx& tc, BddVar var, uint32_t lo,
                                  uint32_t hi) {
  // Caller (mkNode) already collapsed lo == hi and sign-factored the low
  // edge; `lo` is regular here and the result is a plain index.
  sharedSafePoint(tc);  // before reading the mask: it may change while parked
  for (;;) {
    uint32_t bucket = uniqueBucketOf(var, lo, hi, uniqueMask_);
    std::atomic_ref<uint32_t> headRef(uniqueTable_[bucket]);
    uint32_t head = headRef.load(std::memory_order_acquire);
    for (uint32_t n = head; n != kNil; n = nodes_[n].next) {
      const Node& nd = nodes_[n];
      if (nd.var == var && nd.lo == lo && nd.hi == hi) return n;
    }
    uint32_t idx = allocSlotShared(tc);
    Node& nd = nodes_[idx];
    nd.var = static_cast<NodeVar>(var);
    nd.lo = lo;
    nd.hi = hi;
    nd.ref = 0;
    nd.next = head;  // plain writes: published (only) by the CAS below
    if (headRef.compare_exchange_strong(head, idx, std::memory_order_release,
                                        std::memory_order_relaxed)) {
      shardCounts_[bucket & (kNumShards - 1)].n.fetch_add(
          1, std::memory_order_relaxed);
      ++tc.created;
      if (++tc.sinceGrowthCheck >= 256) {
        tc.sinceGrowthCheck = 0;
        size_t live = approxLive();
        if (live > uniqueTable_.size()) growUniqueShared(tc);
        if (cacheDemand(tc) > tc.cache.size() * 2) growCache(tc);
      }
      return idx;
    }
    // Lost the race on this bucket: someone else published first (possibly
    // the very node we wanted). Retire the candidate and retry from the new
    // head — bounded by actual contention, no unbounded spin.
    retireSlotShared(tc, idx);
  }
}

void BddManager::growUniqueShared(ThreadCtx& tc) {
  stwShallowRun(tc, [&] {
    // Re-check under quiescence: a concurrent winner may have grown first.
    if (approxLive() <= uniqueTable_.size()) return;
    growUnique();  // serial wholesale rebuild — everyone is parked
  });
  // Election lost: the winner is rebuilding (or just did); the next sampled
  // growth check re-evaluates. Nothing to do.
}

}  // namespace hsis
