// Reduced Ordered Binary Decision Diagrams with complement edges.
//
// This is the implicit-representation substrate of HSIS: every relation,
// state set, and transition relation in the verification engine is a Bdd
// managed by a BddManager.
//
// Design notes:
//  - An *edge* is a 32-bit word: bits 0..30 are a node index into a single
//    arena, bit 31 is a complement ("negate the function below") mark in
//    the Brace–Rudell–Bryant style. Only the ONE terminal exists (arena
//    slot 1); FALSE is the complemented edge to it. Negation is an O(1)
//    bit flip and f / !f share every node.
//  - Canonical form: the low (else) edge of a node is never complemented.
//    mkNode restores the invariant by flipping both children and
//    complementing the returned edge, so structural equality of edges is
//    functional equality, including across negation.
//  - Handles (`Bdd`) are reference-counted RAII objects; garbage collection
//    is mark-and-sweep from externally referenced nodes and runs only at
//    public-API entry points (safe points), never inside a recursion. The
//    computed cache survives collection: the sweep drops only entries that
//    mention a dead node and keeps everything else, so fixpoint loops do
//    not restart cold after every GC.
//  - Variable order is a permutation `perm` (variable id -> level) so that
//    dynamic reordering (sifting) never invalidates node indices.
//
// Concurrency (HermesBDD-style, see DESIGN.md "Parallel engine"):
//  - A manager is single-threaded by default; the serial paths pay nothing
//    for the machinery below beyond a predicted-false branch.
//  - beginShared()/endShared() bracket a *shared phase* during which any
//    number of threads may run operations concurrently on this manager:
//      * the unique table is CAS-inserted (one acquire/release point per
//        bucket head; the 64 segment counters track occupancy per shard),
//      * every thread owns a private computed cache and free-slot chunk
//        (a ThreadCtx, attached lazily on first use),
//      * the node arena never reallocates: beginShared reserves capacity
//        up front and growth is a resize-in-place under a shallow
//        stop-the-world, so raw Node pointers and handle refcounts stay
//        valid at all times,
//      * structure mutations (arena/table growth: *shallow*; GC, sifting,
//        census: *deep*) quiesce workers through the engine-wide safe-point
//        protocol generalized from the PR 3 census rendezvous: workers poll
//        one relaxed flag per cache lookup / node creation and park there,
//      * reference counts flip to std::atomic_ref CAS loops (saturating).
//  - setParallel() additionally enables the fine-grained fork-join apply:
//    and/ite/andExists split on cofactor subproblems onto a ForkJoin task
//    deque above a node-count cutoff; below it recursion stays serial.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"
#include "obs/prof.hpp"

namespace hsis {

class BddManager;
class BddTransfer;
namespace par {
class ForkJoin;
}

using BddVar = uint32_t;

/// A handle to a BDD edge (node index + complement bit). Copying/destroying
/// maintains the external reference count on the underlying node. A
/// default-constructed handle is "null" and belongs to no manager.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& o);
  Bdd(Bdd&& o) noexcept;
  Bdd& operator=(const Bdd& o);
  Bdd& operator=(Bdd&& o) noexcept;
  ~Bdd();

  [[nodiscard]] bool isNull() const { return mgr_ == nullptr; }
  [[nodiscard]] bool isZero() const;
  [[nodiscard]] bool isOne() const;
  [[nodiscard]] bool isConstant() const { return isZero() || isOne(); }

  /// Structural equality (canonical, so also functional equality).
  bool operator==(const Bdd& o) const {
    return mgr_ == o.mgr_ && idx_ == o.idx_;
  }
  bool operator!=(const Bdd& o) const { return !(*this == o); }

  Bdd operator&(const Bdd& o) const;
  Bdd operator|(const Bdd& o) const;
  Bdd operator^(const Bdd& o) const;
  Bdd operator!() const;
  Bdd& operator&=(const Bdd& o);
  Bdd& operator|=(const Bdd& o);
  Bdd& operator^=(const Bdd& o);
  /// f.implies(g): the BDD of !f | g.
  [[nodiscard]] Bdd implies(const Bdd& o) const;
  /// Containment test: does f -> g hold everywhere? (No result BDD built.)
  [[nodiscard]] bool leq(const Bdd& o) const;

  /// Top variable id (not level). Precondition: non-constant.
  [[nodiscard]] BddVar var() const;
  /// Cofactors as seen through this edge (complement bit applied).
  [[nodiscard]] Bdd low() const;
  [[nodiscard]] Bdd high() const;

  [[nodiscard]] BddManager* manager() const { return mgr_; }
  /// The raw edge word (node index | complement bit). Edges compare
  /// canonically; use only for identity/debugging, not arena arithmetic.
  [[nodiscard]] uint32_t index() const { return idx_; }
  /// Number of nodes in this BDD (including the terminal when reached).
  [[nodiscard]] size_t nodeCount() const;

 private:
  friend class BddManager;
  Bdd(BddManager* m, uint32_t i);

  BddManager* mgr_ = nullptr;
  uint32_t idx_ = 0;
};

/// Per-manager statistics view. The counters are backed by the hsis_obs
/// registry (which additionally aggregates them across all managers under
/// the `bdd.*` metric names); this struct keeps the legacy accessor shape.
struct BddStats {
  size_t liveNodes = 0;      ///< nodes currently in the unique table
  size_t allocatedNodes = 0; ///< arena size (live + freed slots)
  size_t gcRuns = 0;
  size_t cacheLookups = 0;
  size_t cacheHits = 0;
  size_t peakLiveNodes = 0;
  size_t reorderings = 0;
};

class BddManager {
 public:
  explicit BddManager(uint32_t numVars = 0);
  ~BddManager();
  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  // ---- variables and constants ----

  /// Create a new variable at the bottom of the current order. Throws
  /// std::length_error past kMaxVars (65,535) variables.
  BddVar newVar();
  /// Create a new variable at the given level, shifting others down.
  BddVar newVarAtLevel(uint32_t level);
  [[nodiscard]] uint32_t numVars() const { return static_cast<uint32_t>(perm_.size()); }
  [[nodiscard]] Bdd bddVar(BddVar v);
  /// Literal: the variable if `positive`, else its negation.
  [[nodiscard]] Bdd bddLiteral(BddVar v, bool positive);
  [[nodiscard]] Bdd bddOne();
  [[nodiscard]] Bdd bddZero();

  [[nodiscard]] uint32_t level(BddVar v) const { return perm_[v]; }
  /// The current order as a level -> variable sequence (a copy; feed it to
  /// another manager's setOrder to replicate this manager's order).
  [[nodiscard]] std::vector<BddVar> varOrder() const { return invPerm_; }

  // ---- core operations ----

  Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);
  Bdd andOp(const Bdd& f, const Bdd& g);
  Bdd orOp(const Bdd& f, const Bdd& g);
  Bdd xorOp(const Bdd& f, const Bdd& g);
  /// O(1): flips the complement bit, allocates nothing.
  Bdd notOp(const Bdd& f);

  /// Existentially quantify all variables of `cube` (a positive-literal
  /// conjunction) out of f.
  Bdd exists(const Bdd& f, const Bdd& cube);
  Bdd forall(const Bdd& f, const Bdd& cube);
  /// Relational product: exists(f & g, cube) without building f & g.
  /// This is the workhorse of image computation and early quantification.
  Bdd andExists(const Bdd& f, const Bdd& g, const Bdd& cube);

  /// Cofactor with respect to a single literal.
  Bdd cofactor(const Bdd& f, BddVar v, bool positive);
  /// Coudert-Madre generalized cofactor ("constrain"). c must be != 0.
  Bdd constrain(const Bdd& f, const Bdd& c);
  /// Coudert-Madre restrict: like constrain but sibling-substitution based,
  /// never introduces variables outside supp(f) ∪ supp(c); used for
  /// don't-care minimization. c must be != 0.
  Bdd restrict(const Bdd& f, const Bdd& c);

  /// Rename variables: map[v] gives the replacement variable for v (identity
  /// entries allowed; map may be shorter than numVars, treated as identity
  /// beyond its size). Replacement variables must not occur in f unless they
  /// are fixed points of the map restricted to supp(f) — the usual use is
  /// swapping disjoint present/next-state rails.
  Bdd permute(const Bdd& f, const std::vector<BddVar>& map);

  [[nodiscard]] bool leq(const Bdd& f, const Bdd& g);

  // ---- structural queries ----

  std::vector<BddVar> support(const Bdd& f);
  Bdd supportCube(const Bdd& f);
  /// Positive cube: the conjunction of `vars`, in any order, duplicates
  /// allowed. Sorted by current level and built deepest level first, so it
  /// costs one node per distinct variable, under any order (also after
  /// sift()). Build every quantification cube here, not by folding bddVar.
  Bdd cube(std::span<const BddVar> vars);
  /// Number of satisfying assignments over an `nvars`-variable space.
  /// support(f) must fit inside that space: throws std::invalid_argument
  /// when f depends on more than `nvars` variables (the density recursion
  /// is level-independent, so a too-small space would silently undercount).
  double satCount(const Bdd& f, uint32_t nvars);
  /// satCount(f, nvars) of every root in one walk: one density memo and
  /// one support check (the roots' joint support must fit in `nvars`).
  /// Each count equals the single-root call bit for bit.
  std::vector<double> satCounts(std::span<const Bdd> fs, uint32_t nvars);
  /// satCount over an explicit variable set: the assignment space is
  /// exactly `vars` (each variable at most once). Throws
  /// std::invalid_argument when support(f) is not a subset of `vars`.
  double satCount(const Bdd& f, std::span<const BddVar> vars);
  /// One satisfying cube as a vector indexed by variable id:
  /// -1 don't-care, 0 negative, 1 positive. Empty if f == 0.
  std::vector<int8_t> pickCube(const Bdd& f);
  /// Build the conjunction of literals described by `assign` (same encoding
  /// as pickCube; -1 entries skipped).
  Bdd cubeFromAssignment(std::span<const int8_t> assign);
  size_t nodeCount(const Bdd& f) const;
  size_t sharedNodeCount(std::span<const Bdd> roots) const;

  // ---- reordering ----

  /// Sifting: move each variable through the order, keep the best position.
  /// Handles and cached results remain valid (swaps preserve node
  /// functions in place). In a shared phase this quiesces every worker
  /// through a deep stop-the-world before touching the table.
  void sift();
  /// Reorder so the given variables sit at the top in the given sequence.
  void setOrder(const std::vector<BddVar>& order);

  // ---- shared (multi-threaded) phase ----

  /// Enter shared mode: until endShared(), any thread may run operations on
  /// this manager concurrently. `maxNodes` bounds the arena for the whole
  /// phase (the arena is reserved up front and never reallocates, so raw
  /// node storage stays put while lock-free readers are active); exceeding
  /// it throws std::length_error. Must be called with no operation active.
  void beginShared(size_t maxNodes = size_t(1) << 22);
  /// Leave shared mode. All worker threads must have finished (joined);
  /// their caches are dropped, their tallies flushed, and the free lists
  /// consolidated. The manager is single-threaded again afterwards.
  void endShared();
  [[nodiscard]] bool sharedMode() const { return sharedMode_; }
  /// Enable the fine-grained fork-join parallel apply inside a shared
  /// phase: and/ite/andExists subproblems above `cutoffNodes` (operand
  /// size) split on their top-variable cofactors onto `fj` until
  /// `splitDepth` levels deep. Pass nullptr to disable.
  void setParallel(par::ForkJoin* fj, size_t cutoffNodes = 2048,
                   int splitDepth = 3);

  // ---- memory ----

  size_t gc();
  [[nodiscard]] size_t liveNodeCount() const {
    return sharedMode_ ? approxLive() : uniqueCount_;
  }
  /// Point-in-time statistics (live/allocated refreshed on each call).
  [[nodiscard]] const BddStats& stats() const;
  /// Exact population census: live nodes per level, unique-table and
  /// cache occupancy, lifetime event totals, and the dead-node count a
  /// mark-and-sweep would reclaim right now. O(arena + cache) scan — meant
  /// for the sampling profiler's rendezvous (at most one per tick) and for
  /// tests, not for hot paths. Must be called at a point where no operation
  /// is mid-recursion: any public-API boundary in serial mode, or under the
  /// deep stop-the-world in a shared phase (maybeGcOrSift arranges both).
  [[nodiscard]] obs::prof::BddCensus census() const;
  void clearCaches();
  /// Grow the computed cache to at least `source`'s set count. The cache
  /// otherwise grows only with this manager's own live nodes, seen at its
  /// collections, so a copy filled by BddTransfer would start at the
  /// default size while the source's has grown. Serial mode only.
  void growCacheToMatch(const BddManager& source);

  // ---- io ----

  std::string toDot(std::span<const Bdd> roots,
                    std::span<const std::string> rootNames,
                    const std::vector<std::string>& varNames = {}) const;

 private:
  friend class Bdd;
  friend class BddTransfer;

  static constexpr uint32_t kTermLevel = 0xFFFFFFFFu;
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  /// A node's variable id: 16 bits, so a node is 16 bytes (four per
  /// cache line). kNoVar marks free slots and the terminals.
  using NodeVar = uint16_t;
  static constexpr NodeVar kNoVar = 0xFFFF;
  /// Variables a manager can hold (ids 0 .. kMaxVars - 1).
  static constexpr uint32_t kMaxVars = kNoVar;

  struct Node {
    // NSDMI defaults make a value-initialized slot read as *free*
    // (var == kNoVar): the shared-phase arena is resized ahead of the bump
    // allocator, and every scan recognizes untouched slots by the sentinel.
    NodeVar var = kNoVar;
    uint16_t ref = 0;         ///< external reference count (saturating)
    uint32_t lo = 0, hi = 0;  ///< child edges; `lo` is always a regular edge
    uint32_t next = kNil;     ///< unique-table chain, or free-list link
  };
  static_assert(sizeof(Node) == 16);

  /// The age bit lives in k2's top bit (operand c occupies bits 0..31, the
  /// op byte bits 32..39; 40..62 are always zero, 63 is free).
  static constexpr uint64_t kCacheAgeBit = 1ull << 63;

  struct CacheEntry {
    uint64_t k1 = ~0ull, k2 = ~0ull;
    uint32_t result = 0;
  };

  /// A 2-way set, padded and aligned to one cache line so a probe (which
  /// scans both ways on the common miss) touches exactly one line — same
  /// memory traffic as a direct-mapped cache.
  struct alignas(64) CacheSet {
    CacheEntry way[2];
  };
  static_assert(sizeof(CacheSet) == 64);

  /// One computed-cache probe: keys, slot, and the cache generation the
  /// slot was computed under. A lookup fills it; a later insert reuses the
  /// slot without rehashing unless the cache was grown in between.
  struct CacheProbe {
    uint64_t k1 = 0, k2 = 0;
    uint32_t slot = 0;
    uint64_t gen = 0;
  };

  /// Per-thread operation state. In serial mode there is exactly one (the
  /// main context); a shared phase attaches one per participating thread,
  /// lazily, on first use. The computed cache is *private to the thread* —
  /// the HermesBDD recipe — so lookups and inserts never synchronize.
  struct ThreadCtx {
    std::vector<CacheSet> cache;  ///< 2-way sets; capacity = size() * 2 entries
    uint32_t cacheMask = 0;       ///< set count - 1 (set count is a power of 2)
    uint64_t cacheGen = 0;  ///< bumped whenever slot numbering changes

    /// Private chunk of free arena slots (refilled from the global free
    /// list under freeMu_, or carved from the bump pointer).
    std::vector<uint32_t> freeChunk;

    // Plain per-thread tallies; flushObs batches them into the shared
    // relaxed-atomic registry counters once per outermost operation.
    uint64_t cacheLookups = 0, cacheHits = 0, created = 0;
    uint64_t cacheAged = 0;  ///< age-steered victim choices (2-way cache)
    uint64_t flushedLookups = 0, flushedHits = 0, flushedCreated = 0;
    uint64_t flushedAged = 0;

    int opDepth = 0;        ///< >0 while a public op is active on this thread
    uint64_t opCreatedBase = 0;  ///< `created` when the outermost op began
    bool inside = false;    ///< currently counted in sharedInsideOps_
    bool stwCoordinator = false;  ///< owns the current stop-the-world
    uint32_t sinceGrowthCheck = 0;
  };

  // ---- edges ----
  static constexpr uint32_t kComplBit = 0x80000000u;
  static constexpr uint32_t kOneEdge = 1u;
  static constexpr uint32_t kZeroEdge = kOneEdge | kComplBit;

  /// Node index of an edge.
  [[nodiscard]] static constexpr uint32_t eIdx(uint32_t e) { return e & ~kComplBit; }
  /// Is the edge complemented?
  [[nodiscard]] static constexpr bool eIsNeg(uint32_t e) { return (e & kComplBit) != 0; }
  /// Negation: O(1) bit flip.
  [[nodiscard]] static constexpr uint32_t eNot(uint32_t e) { return e ^ kComplBit; }
  /// The complement bit of an edge (0 or kComplBit), for sign propagation.
  [[nodiscard]] static constexpr uint32_t eSign(uint32_t e) { return e & kComplBit; }

  /// A node with this many handles becomes permanent: it and everything
  /// below it survive every collection.
  static constexpr uint16_t kRefSaturated = 0xFFFF;

  // node layer
  uint32_t mkNode(BddVar var, uint32_t lo, uint32_t hi);
  uint32_t mkNodeShared(ThreadCtx& tc, BddVar var, uint32_t lo, uint32_t hi);
  uint32_t allocSlotShared(ThreadCtx& tc);
  void retireSlotShared(ThreadCtx& tc, uint32_t idx);
  void uniqueInsert(uint32_t n);
  void uniqueRemove(uint32_t n);
  void growUnique();
  void growCache(ThreadCtx& tc);
  void maybeGcOrSift();
  /// The collection trigger, for the serial and the shared-phase path.
  [[nodiscard]] bool gcDue() const { return liveNodeCount() > gcThreshold_; }
  /// The collection policy, applied after every sweep (serial or shared,
  /// triggered or explicit) that freed `freed` slots: sets the node count
  /// at which the next collection is due and fits the computed caches to
  /// the live set.
  void applyGcPolicy(size_t freed);
  /// Nodes `tc`'s computed cache is sized for: the live count at the last
  /// collection plus the nodes the running operation has created. Garbage
  /// left by finished operations, which the next collection frees, does
  /// not count.
  [[nodiscard]] size_t cacheDemand(const ThreadCtx& tc) const {
    return gcLive_ + static_cast<size_t>(tc.created - tc.opCreatedBase);
  }
  void incRef(uint32_t e) {
    uint16_t& r = nodes_[eIdx(e)].ref;
    if (!sharedMode_) [[likely]] {
      if (r != kRefSaturated) ++r;
      return;
    }
    std::atomic_ref<uint16_t> ar(r);
    uint16_t cur = ar.load(std::memory_order_relaxed);
    while (cur != kRefSaturated &&
           !ar.compare_exchange_weak(cur, static_cast<uint16_t>(cur + 1),
                                     std::memory_order_relaxed)) {
    }
  }
  void decRef(uint32_t e) {
    uint16_t& r = nodes_[eIdx(e)].ref;
    if (!sharedMode_) [[likely]] {
      assert(r > 0);
      if (r != kRefSaturated) --r;
      return;
    }
    std::atomic_ref<uint16_t> ar(r);
    uint16_t cur = ar.load(std::memory_order_relaxed);
    while (cur != kRefSaturated &&
           !ar.compare_exchange_weak(cur, static_cast<uint16_t>(cur - 1),
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] bool isTerm(uint32_t e) const { return eIdx(e) <= 1; }
  [[nodiscard]] uint32_t nodeLevel(uint32_t e) const {
    return isTerm(e) ? kTermLevel : perm_[nodes_[eIdx(e)].var];
  }

  // GC internals. markReachable runs the shared mark DFS (every node
  // reachable from an externally referenced one, terminals always marked)
  // used by gc(), census(), and the cache keep-alive sweep. Free arena
  // slots are recognized by their var == kNoVar sentinel — no separate
  // free-slot mask pass. Byte mask, not vector<bool>: the sweep and
  // keep-alive loops read it per node/entry.
  [[nodiscard]] std::vector<uint8_t> markReachable() const;
  /// Drop computed-cache entries that mention a dead node; keep the rest.
  /// Sweeps one thread's cache; gc() applies it to every attached context.
  void cacheKeepAlive(ThreadCtx& tc, const std::vector<uint8_t>& marked);
  /// The sweep itself; callers guarantee quiescence (serial mode, or the
  /// deep stop-the-world / coordinator role in a shared phase).
  size_t gcImpl();

  /// Push the plain per-thread tallies (lookups, hits, nodes created,
  /// age-steered evictions) into the shared registry metrics — one batch of
  /// relaxed atomic adds per outermost operation; the recursive workers
  /// themselves never touch an atomic. Gauges (unique size/peak) are
  /// updated here only in serial mode; a shared phase refreshes them at
  /// stop-the-world points instead.
  void flushObs(ThreadCtx& tc);

  // ---- shared-phase engine (bdd_concurrent.cpp) ----

  /// The calling thread's context: the main context in serial mode, the
  /// lazily attached per-thread one in a shared phase.
  ThreadCtx& ctx() {
    if (!sharedMode_) [[likely]] return mainCtx_;
    return sharedCtx();
  }
  [[nodiscard]] const ThreadCtx& ctx() const {
    return const_cast<BddManager*>(this)->ctx();
  }
  ThreadCtx& sharedCtx();
  ThreadCtx& attachThreadCtx();

  /// Op-boundary gate: counts the thread into sharedInsideOps_, parking
  /// first while any stop-the-world (shallow or deep) is pending.
  void enterSharedOp(ThreadCtx& tc);
  void leaveSharedOp(ThreadCtx& tc);
  /// Mid-op variant for fork-join task execution: the forking thread is
  /// already inside and holds the join, so tasks gate on the *shallow*
  /// flag only — parking them on a deep request would deadlock the joiner
  /// the deep coordinator is waiting on.
  void enterSharedTask(ThreadCtx& tc);

  /// Polled at every cache lookup and node creation (one relaxed load when
  /// idle). When a shallow stop-the-world is pending the thread steps out
  /// of sharedInsideOps_, parks, and steps back in — mid-recursion state
  /// (raw edges) stays valid because shallow mutations never move or free
  /// a node.
  void sharedSafePoint(ThreadCtx& tc) {
    if (!stwShallow_.load(std::memory_order_relaxed)) return;
    sharedSafePointSlow(tc);
  }
  void sharedSafePointSlow(ThreadCtx& tc);

  /// Run `fn` as the shallow stop-the-world coordinator (in-op mutations:
  /// arena or unique-table growth). Returns false when the election was
  /// lost — the winner is doing equivalent work; re-check and retry.
  bool stwShallowRun(ThreadCtx& tc, const std::function<void()>& fn);
  /// Run `fn` as the deep stop-the-world coordinator (op-boundary
  /// mutations: GC, sifting, census). Returns false when the election was
  /// lost. Must be called with tc.opDepth == 0.
  bool stwDeepRun(ThreadCtx& tc, const std::function<void()>& fn);

  void growUniqueShared(ThreadCtx& tc);
  /// Arena growth needs no stop-the-world: the backing store was reserved
  /// at beginShared, so resize-in-place touches only fresh slots and the
  /// vector's end marker — which no concurrent reader looks at (they index
  /// through the data pointer, bounded by arenaLimit_). growMu_ serializes
  /// growers against each other.
  void growArenaShared(uint32_t needIdx);

  [[nodiscard]] size_t approxLive() const;
  [[nodiscard]] size_t arenaEnd() const {
    return sharedMode_ ? nodeTop_.load(std::memory_order_relaxed)
                       : nodes_.size();
  }

  /// RAII guard for a public operation: GC stays deferred while the
  /// recursion holds raw node indices, and the registry metrics are
  /// flushed exactly once when the outermost operation completes. In a
  /// shared phase the outermost entry/exit also gates on the stop-the-world
  /// flags (unless this thread *is* the coordinator).
  class ScopedOp {
   public:
    explicit ScopedOp(BddManager* m) : m_(m), tc_(m->ctx()) {
      if (tc_.opDepth++ == 0) {
        tc_.opCreatedBase = tc_.created;
        if (m_->sharedMode_ && !tc_.stwCoordinator) m_->enterSharedOp(tc_);
      }
    }
    ~ScopedOp() {
      if (--tc_.opDepth == 0) {
        m_->flushObs(tc_);
        if (m_->sharedMode_ && !tc_.stwCoordinator) m_->leaveSharedOp(tc_);
      }
    }
    ScopedOp(const ScopedOp&) = delete;
    ScopedOp& operator=(const ScopedOp&) = delete;

   private:
    BddManager* m_;
    ThreadCtx& tc_;
  };

  // cache layer
  enum class Op : uint8_t {
    Ite, And, Xor, Exists, AndExists, Constrain, Restrict, Permute, Leq,
  };
  /// Set index of a key pair: two multiplies, top bits, masked. Quality
  /// matters less than latency here — the cache is lossy anyway.
  [[nodiscard]] static uint32_t cacheSlotOf(uint64_t k1, uint64_t k2,
                                            uint32_t mask) {
    return static_cast<uint32_t>(
               (k1 * 0x9e3779b97f4a7c15ull ^ k2 * 0xc4ceb9fe1a85ec53ull) >> 32) &
           mask;
  }
  /// 2-way set-associative probe with an age (reference) bit: a hit marks
  /// the entry recently used; the insert victimizes the un-aged way (see
  /// cacheInsert). Thread-private, so no synchronization anywhere here.
  bool cacheLookup(Op op, uint32_t a, uint32_t b, uint32_t c, uint32_t& out,
                   CacheProbe& probe) {
    ThreadCtx& tc = ctx();
    if (sharedMode_) sharedSafePoint(tc);
    ++tc.cacheLookups;
    probe.k1 = (static_cast<uint64_t>(a) << 32) | b;
    probe.k2 = (static_cast<uint64_t>(static_cast<uint8_t>(op)) << 32) | c;
    probe.slot = cacheSlotOf(probe.k1, probe.k2, tc.cacheMask);
    probe.gen = tc.cacheGen;
    CacheEntry* set = tc.cache[probe.slot].way;
    for (int w = 0; w < 2; ++w) {
      if (set[w].k1 == probe.k1 && (set[w].k2 & ~kCacheAgeBit) == probe.k2) {
        // Conditional store: repeat hits on an already-aged entry stay
        // read-only on the line.
        if ((set[w].k2 & kCacheAgeBit) == 0) set[w].k2 |= kCacheAgeBit;
        out = set[w].result;
        ++tc.cacheHits;
        return true;
      }
    }
    return false;
  }
  void cacheInsert(const CacheProbe& probe, uint32_t res) {
    ThreadCtx& tc = ctx();
    uint32_t slot = probe.slot;
    if (probe.gen != tc.cacheGen) {
      // The cache was grown between the lookup and this insert (a mkNode in
      // the recursion in between); the slot numbering changed, rehash once.
      slot = cacheSlotOf(probe.k1, probe.k2, tc.cacheMask);
    }
    CacheEntry* set = tc.cache[slot].way;
    int way = -1;
    for (int w = 0; w < 2; ++w) {
      // Reuse a way holding the same key or an empty one outright.
      if ((set[w].k1 == probe.k1 &&
           (set[w].k2 & ~kCacheAgeBit) == probe.k2) ||
          (set[w].k1 == ~0ull && set[w].k2 == ~0ull)) {
        way = w;
        break;
      }
    }
    if (way < 0) {
      // Both ways occupied: evict the one whose age bit is clear; when the
      // bits disagree this is the age-steered choice the `bdd.cache.aged`
      // counter tracks. Both aged: clear both (CLOCK-style decay), take 0.
      bool a0 = (set[0].k2 & kCacheAgeBit) != 0;
      bool a1 = (set[1].k2 & kCacheAgeBit) != 0;
      if (a0 != a1) {
        way = a0 ? 1 : 0;
        ++tc.cacheAged;
      } else {
        if (a0) {
          set[0].k2 &= ~kCacheAgeBit;
          set[1].k2 &= ~kCacheAgeBit;
        }
        way = 0;
      }
    }
    // Fresh entries start recently-used so a burst of inserts cannot evict
    // a still-hot sibling without at least one decay round.
    set[way] = CacheEntry{probe.k1, probe.k2 | kCacheAgeBit, res};
  }

  // recursive workers (raw edges; no GC may run while these are active)
  uint32_t iteRec(uint32_t f, uint32_t g, uint32_t h);
  uint32_t andRec(uint32_t f, uint32_t g);
  uint32_t xorRec(uint32_t f, uint32_t g);
  uint32_t orRec(uint32_t f, uint32_t g) { return eNot(andRec(eNot(f), eNot(g))); }
  uint32_t existsRec(uint32_t f, uint32_t cube);
  uint32_t andExistsRec(uint32_t f, uint32_t g, uint32_t cube);
  uint32_t constrainRec(uint32_t f, uint32_t c);
  uint32_t restrictRec(uint32_t f, uint32_t c);
  uint32_t permuteRec(uint32_t f, const std::vector<BddVar>& map, uint32_t mapId);
  bool leqRec(uint32_t f, uint32_t g);
  void supportRec(uint32_t f, std::vector<bool>& seen, std::vector<bool>& inSupp);
  /// Shared satCount core: the density of each root under one memo,
  /// marking every support variable in `inSupp` (sized numVars()) along
  /// the way.
  std::vector<double> satDensities(std::span<const Bdd> roots,
                                   std::vector<char>& inSupp);
  /// Conjunction of literals over `vars`: variable v is positive unless
  /// `phase` is non-empty and phase[v] == 0. One mkNode per distinct
  /// variable, deepest level first (cube and cubeFromAssignment).
  Bdd cubeOf(std::vector<BddVar> vars, std::span<const int8_t> phase);

  // fork-join parallel apply (bdd_ops.cpp). The *Par workers mirror their
  // serial kernels but split the two cofactor subproblems across the task
  // deque while `depth < parSplitDepth_` and the operands look larger than
  // parCutoff_; below that they fall straight through to the serial kernel.
  struct ParTask;
  [[nodiscard]] bool parEnabled() const {
    return sharedMode_ && fj_ != nullptr;
  }
  /// True when the combined operand size clearly exceeds the cutoff (walk
  /// aborted at the cap — approximate by design, never touches shared
  /// scratch).
  bool biggerThanCutoff(std::initializer_list<uint32_t> roots) const;
  uint32_t andPar(uint32_t f, uint32_t g, int depth);
  uint32_t itePar(uint32_t f, uint32_t g, uint32_t h, int depth);
  uint32_t andExistsPar(uint32_t f, uint32_t g, uint32_t cube, int depth);
  void runParTask(ParTask& t);
  void joinParTask(ParTask& t);

  // reordering internals
  size_t swapAdjacentLevels(uint32_t l);
  void siftImpl();
  void setOrderImpl(const std::vector<BddVar>& order);
  Bdd makeHandle(uint32_t idx);

  // structural-walk scratch: a per-manager visit-stamp array so nodeCount
  // and sharedNodeCount run without hashing or per-call clearing. A walk
  // bumps the epoch; a node is visited iff its stamp equals the epoch.
  // Not safe for concurrent walks: shared-phase callers serialize on
  // visitMu_ (the count queries are off the hot path).
  [[nodiscard]] uint32_t beginVisit() const;
  size_t countFrom(std::vector<uint32_t>& stack, uint32_t epoch) const;

  std::vector<Node> nodes_;
  /// Free arena slots, linked through Node::next: a free slot has
  /// var == kNoVar and is in no unique-table chain, so its link field is
  /// spare and the free list costs no memory of its own.
  uint32_t freeHead_ = kNil;
  size_t freeCount_ = 0;
  void pushFree(uint32_t i) {
    nodes_[i].var = kNoVar;  // sentinel: slot is free (reorder scans rely on it)
    nodes_[i].next = freeHead_;
    freeHead_ = i;
    ++freeCount_;
  }
  uint32_t popFree() {
    uint32_t i = freeHead_;
    freeHead_ = nodes_[i].next;
    --freeCount_;
    return i;
  }
  std::vector<uint32_t> uniqueTable_;  ///< bucket heads
  size_t uniqueCount_ = 0;
  uint32_t uniqueMask_ = 0;

  std::vector<uint32_t> perm_;     ///< var -> level
  std::vector<BddVar> invPerm_;    ///< level -> var

  /// The main thread context, inline in the manager so the serial hot path
  /// (every cacheLookup/cacheInsert goes through ctx()) touches the same
  /// cache lines as the rest of the manager — no extra heap indirection.
  /// Shared-phase worker contexts live in workerCtxs_ instead.
  ThreadCtx mainCtx_;

  /// Registered permute maps. A deque for reference stability: in a shared
  /// phase one thread can register a new map (under permMu_) while others
  /// still hold references to previously registered ones.
  std::deque<std::vector<BddVar>> permMaps_;

  /// Fresh nodes a collection waits for beyond the live set (and the
  /// first threshold): the one constant of the collection policy.
  static constexpr size_t kGcBudget = size_t{1} << 14;
  size_t gcThreshold_ = kGcBudget;
  size_t gcLive_ = 0;  ///< live nodes after the last collection
  double maxGrowth_ = 1.2;

  mutable BddStats stats_;
  // Tallies of thread contexts dropped at endShared (so lifetime totals in
  // stats()/census() survive worker teardown).
  uint64_t retiredLookups_ = 0, retiredHits_ = 0, retiredCreated_ = 0;
  uint64_t retiredAged_ = 0;

  mutable std::vector<uint32_t> visitStamp_;  ///< nodeCount walk scratch
  mutable uint32_t visitEpoch_ = 0;
  mutable std::mutex visitMu_;  ///< guards the walk scratch in a shared phase

  // ---- shared-phase state ----
  bool sharedMode_ = false;
  uint64_t sharedEpoch_ = 0;  ///< bumped per beginShared (invalidates TLS)
  size_t sharedCapacity_ = 0;
  std::atomic<uint32_t> nodeTop_{0};     ///< bump allocator (shared phase)
  std::atomic<uint32_t> arenaLimit_{0};  ///< nodes_.size() while shared

  /// Unique-table occupancy, segmented: insert counters striped over 64
  /// cache-line-padded shards (shard = bucket & 63) so concurrent inserts
  /// never contend on one counter. approxLive() = uniqueCount_ + Σ shards;
  /// gc/endShared fold them back into the exact count.
  struct alignas(64) ShardCount {
    std::atomic<int64_t> n{0};
  };
  static constexpr uint32_t kNumShards = 64;
  std::unique_ptr<ShardCount[]> shardCounts_;

  /// Threads currently executing an operation (outermost ScopedOp or a
  /// fork-join task). Gated at entry by both stop-the-world flags; a deep
  /// coordinator waits for it to reach zero.
  std::atomic<int> sharedInsideOps_{0};
  /// In-op threads parked at a safe point while a shallow stop-the-world is
  /// pending. They stay counted in sharedInsideOps_ (their recursion state
  /// is live); the shallow coordinator waits for
  /// parkedShallow_ >= insideOps - (coordinator inside ? 1 : 0).
  std::atomic<int> parkedShallow_{0};
  std::atomic<bool> stwShallow_{false};
  std::atomic<bool> stwDeep_{false};
  std::mutex parkMu_;
  std::condition_variable parkCv_;
  std::mutex freeMu_;   ///< global free-list chunk handout
  std::mutex growMu_;   ///< arena resize-in-place serialization
  std::mutex permMu_;   ///< permMaps_ registration
  mutable std::mutex ctxMu_;  ///< thread-context registry

  /// Shared-phase worker contexts (lazily attached; mainCtx_ is separate).
  std::vector<std::unique_ptr<ThreadCtx>> workerCtxs_;
  std::unordered_map<std::thread::id, ThreadCtx*> ctxByThread_;

  par::ForkJoin* fj_ = nullptr;
  size_t parCutoff_ = 2048;
  int parSplitDepth_ = 3;

  // Registry-backed observability (process-wide totals across managers).
  // References are resolved once at construction; the recursive workers
  // bump plain per-thread tallies and flushObs() batches them into these
  // shared metrics once per outermost operation.
  obs::Counter& obsCacheLookups_;
  obs::Counter& obsCacheHits_;
  obs::Counter& obsCacheAged_;
  obs::Counter& obsNodesCreated_;
  obs::Counter& obsGcRuns_;
  obs::Counter& obsGcReclaimed_;
  obs::Counter& obsGcMicros_;
  obs::Counter& obsReorderings_;
  obs::Counter& obsCacheKept_;
  obs::Counter& obsCacheDropped_;
  obs::Gauge& obsUniqueSize_;
  obs::Gauge& obsUniquePeak_;
  obs::Gauge& obsUniqueBuckets_;
};

/// Structural copy of BDDs between managers (the coarse-grain transfer: a
/// property-batch worker receives the design once, into its own manager).
/// The destination must have at least the source's variable count and is
/// put into the source's variable order on construction. Copies are
/// memoized across calls, so shared subgraphs (the transition-relation
/// clusters, reached sets, fairness constraints of one design) transfer
/// once; every memoized node is pinned by a handle so a destination GC
/// between calls cannot invalidate the memo.
class BddTransfer {
 public:
  BddTransfer(BddManager& src, BddManager& dst);

  /// Copy f (a src BDD) into dst, preserving structure and polarity.
  Bdd copy(const Bdd& f);
  /// Convenience: copy a whole vector.
  std::vector<Bdd> copy(const std::vector<Bdd>& fs);

  [[nodiscard]] BddManager& src() const { return *src_; }
  [[nodiscard]] BddManager& dst() const { return *dst_; }
  /// Nodes created in dst on behalf of this transfer so far.
  [[nodiscard]] size_t copiedNodes() const { return memo_.size(); }

 private:
  uint32_t copyRec(uint32_t e);

  BddManager* src_;
  BddManager* dst_;
  std::unordered_map<uint32_t, uint32_t> memo_;  ///< regular src -> dst edge
  std::vector<Bdd> keep_;  ///< pins memoized dst nodes across dst GCs
};

// ---- inline handle lifecycle ----
//
// Handle construction, destruction, and the operator forwards are on the
// hot path of every layer above (the FSM image loop copies state-set
// handles constantly), so they live in the header where they inline into
// callers across translation units.

inline Bdd::Bdd(BddManager* m, uint32_t i) : mgr_(m), idx_(i) {
  if (mgr_ != nullptr) mgr_->incRef(idx_);
}

inline Bdd::Bdd(const Bdd& o) : mgr_(o.mgr_), idx_(o.idx_) {
  if (mgr_ != nullptr) mgr_->incRef(idx_);
}

inline Bdd::Bdd(Bdd&& o) noexcept : mgr_(o.mgr_), idx_(o.idx_) {
  o.mgr_ = nullptr;
  o.idx_ = 0;
}

inline Bdd& Bdd::operator=(const Bdd& o) {
  if (this == &o) return *this;
  if (o.mgr_ != nullptr) o.mgr_->incRef(o.idx_);
  if (mgr_ != nullptr) mgr_->decRef(idx_);
  mgr_ = o.mgr_;
  idx_ = o.idx_;
  return *this;
}

inline Bdd& Bdd::operator=(Bdd&& o) noexcept {
  if (this == &o) return *this;
  if (mgr_ != nullptr) mgr_->decRef(idx_);
  mgr_ = o.mgr_;
  idx_ = o.idx_;
  o.mgr_ = nullptr;
  o.idx_ = 0;
  return *this;
}

inline Bdd::~Bdd() {
  if (mgr_ != nullptr) mgr_->decRef(idx_);
}

inline bool Bdd::isZero() const {
  return mgr_ != nullptr && idx_ == BddManager::kZeroEdge;
}
inline bool Bdd::isOne() const {
  return mgr_ != nullptr && idx_ == BddManager::kOneEdge;
}

inline BddVar Bdd::var() const {
  assert(mgr_ != nullptr && !mgr_->isTerm(idx_));
  return mgr_->nodes_[BddManager::eIdx(idx_)].var;
}

inline Bdd Bdd::low() const {
  assert(mgr_ != nullptr && !mgr_->isTerm(idx_));
  const auto& nd = mgr_->nodes_[BddManager::eIdx(idx_)];
  return mgr_->makeHandle(nd.lo ^ BddManager::eSign(idx_));
}

inline Bdd Bdd::high() const {
  assert(mgr_ != nullptr && !mgr_->isTerm(idx_));
  const auto& nd = mgr_->nodes_[BddManager::eIdx(idx_)];
  return mgr_->makeHandle(nd.hi ^ BddManager::eSign(idx_));
}

inline Bdd Bdd::operator&(const Bdd& o) const { return mgr_->andOp(*this, o); }
inline Bdd Bdd::operator|(const Bdd& o) const { return mgr_->orOp(*this, o); }
inline Bdd Bdd::operator^(const Bdd& o) const { return mgr_->xorOp(*this, o); }
inline Bdd Bdd::operator!() const { return mgr_->notOp(*this); }
inline Bdd& Bdd::operator&=(const Bdd& o) { return *this = mgr_->andOp(*this, o); }
inline Bdd& Bdd::operator|=(const Bdd& o) { return *this = mgr_->orOp(*this, o); }
inline Bdd& Bdd::operator^=(const Bdd& o) { return *this = mgr_->xorOp(*this, o); }

inline Bdd Bdd::implies(const Bdd& o) const {
  // !f | g: one specialized-kernel call on complemented inputs.
  return mgr_->orOp(!*this, o);
}

inline bool Bdd::leq(const Bdd& o) const { return mgr_->leq(*this, o); }

inline size_t Bdd::nodeCount() const {
  return mgr_ == nullptr ? 0 : mgr_->nodeCount(*this);
}

inline Bdd BddManager::makeHandle(uint32_t idx) { return Bdd(this, idx); }

}  // namespace hsis
