// hsis::obs::prof — the in-process sampling profiler.
//
// The sampler is one entry on the obs ticker (obs/control), the thread
// that also drives the watchdogs. Every `intervalMs`
// (default 10 ms) it records one ProfSample:
//
//  (a) the live per-thread phase stacks (obs/control) folded into
//      `phaseA;phaseB;phaseC` frames — what each thread is inside right
//      now, for watching a run live;
//  (b) the most recent BddCensus published by a BddManager (live nodes per
//      variable level, unique-table load, cache traffic, GC/reorder event
//      counts, dead-node fraction) plus the process RSS.
//
// The census is pulled through a cooperative rendezvous rather than by
// touching manager internals from the ticker thread: the sampler raises a
// request flag (one relaxed load to poll), and the manager publishes an
// exact census at its next safe point — the same public-op boundary where
// GC and abort checks already live — so no BDD data structure is ever read
// concurrently with a mutation.
//
// Samples land in a fixed-capacity in-memory ring (read by the Chrome-trace
// counter tracks); when `jsonlPath` is set, start() writes the
// `hsis-prof-v1` header there and every sample is appended as one JSONL
// record as it is taken, so even a run killed by the watchdog leaves a
// complete time series of *where* the time and the nodes went. The
// flamegraph is not sampled: writeProfileFiles folds the tracer's span
// tree (obs::toFolded), which holds every phase however short.
//
// Under HSIS_OBS_DISABLE the sampler never schedules (the spill file still
// gets its header); the BddCensus struct and the rendezvous stay compiled
// so BddManager::census() remains usable as plain introspection.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hsis::obs::prof {

// ------------------------------------------------------------- BDD census

/// One exact population snapshot of a BddManager, computed by the manager
/// itself (owning thread, safe point) via BddManager::census(). All counts
/// refer to that single manager; when several managers are alive the last
/// publisher wins, which matches how the `bdd.*` registry gauges behave.
struct BddCensus {
  uint64_t seq = 0;   ///< publication sequence number (stamped on publish)
  uint64_t tNs = 0;   ///< monotonic publication time (stamped on publish)

  uint64_t liveNodes = 0;       ///< nodes currently in the unique table
  uint64_t allocatedNodes = 0;  ///< arena slots, terminals excluded
  uint64_t freeNodes = 0;       ///< free-list length
  /// Nodes in the unique table but unreachable from any externally
  /// referenced node — exactly what the next mark-and-sweep would reclaim.
  uint64_t deadNodes = 0;
  uint64_t uniqueBuckets = 0;   ///< unique-table bucket count
  uint64_t cacheEntries = 0;    ///< operation-cache capacity
  uint64_t cacheUsed = 0;       ///< occupied operation-cache slots
  uint64_t cacheLookups = 0;    ///< manager-lifetime totals (ITE/quantify/...)
  uint64_t cacheHits = 0;
  uint64_t gcRuns = 0;
  uint64_t reorderings = 0;
  uint64_t peakLiveNodes = 0;
  /// Live nodes per variable level (index = level). Invariant:
  /// sum(levelNodes) == liveNodes.
  std::vector<uint64_t> levelNodes;

  [[nodiscard]] double deadFraction() const {
    return liveNodes == 0
               ? 0.0
               : static_cast<double>(deadNodes) / static_cast<double>(liveNodes);
  }
  [[nodiscard]] double uniqueLoad() const {
    return uniqueBuckets == 0 ? 0.0
                              : static_cast<double>(liveNodes) /
                                    static_cast<double>(uniqueBuckets);
  }
};

// Census rendezvous. Live in both build modes (it is control flow, like
// the abort flag): the sampler — or a test — raises the request, the
// manager answers at its next safe point with a single relaxed load of
// overhead on every other public op.
namespace detail {
extern std::atomic_bool g_censusRequested;
}  // namespace detail

[[nodiscard]] bool censusRequested() noexcept;
void requestCensus() noexcept;
/// Store `c` as the latest census (stamps seq/tNs) and lower the request
/// flag. Called by BddManager at a safe point.
void publishCensus(BddCensus c);
/// The most recently published census, or nullopt when none ever was.
[[nodiscard]] std::optional<BddCensus> latestCensus();
/// Forget the latest census and lower the request flag (tests).
void clearCensus();

// ---------------------------------------------------------------- sampler

/// One profiler tick.
struct ProfSample {
  uint64_t seq = 0;
  uint64_t tNs = 0;       ///< monotonic clock — aligns with span startNs
  double tSeconds = 0.0;  ///< since the profiler started
  uint64_t rssKb = 0;
  /// One `a;b;c` folded stack per thread that had open phase spans at
  /// sample time (outermost frame first), the record's `stacks`. Empty
  /// when the process was idle.
  std::vector<std::string> folded;
  /// Latest published census; absent until a manager first publishes.
  /// `census->seq` dedups repeats when the engine outruns publication.
  std::optional<BddCensus> census;
  /// Census deltas vs the previous sample's census (0 on the first).
  uint64_t dCacheLookups = 0;
  uint64_t dCacheHits = 0;
  uint64_t dGcRuns = 0;
  uint64_t dReorderings = 0;

  /// One JSONL record, no trailing newline ({"kind": "sample", ...}).
  [[nodiscard]] std::string toJsonl() const;
};

struct ProfOptions {
  uint64_t intervalMs = 10;
  size_t ringCapacity = 1 << 14;  ///< samples kept in memory
  /// When set, start() truncates this file to the header line and every
  /// sample is appended as it is taken, so the series survives any kind
  /// of death.
  std::string jsonlPath;
};

/// The background sampler. start() is idempotent (restarts with the new
/// options and a cleared ring) and returns false, starting nothing, when
/// `jsonlPath` cannot be written; stop() fences its ticker entry and
/// closes the spill file. `sampleOnce()` is the exact per-tick body, public so
/// tests drive deterministic ticks without a ticker or a clock.
class Profiler {
 public:
  static Profiler& instance();

  bool start(ProfOptions options);
  void stop();
  [[nodiscard]] bool running() const;
  /// Drop all samples (the ring stays allocated).
  void clear();

  /// Take one sample right now (also what the ticker calls every tick).
  void sampleOnce();

  [[nodiscard]] uint64_t sampleCount() const;  ///< lifetime, incl. dropped
  [[nodiscard]] uint64_t droppedSamples() const;
  [[nodiscard]] std::vector<ProfSample> samples() const;  ///< ring copy

  /// The `{"schema": "hsis-prof-v1", "kind": "header", ...}` first line.
  [[nodiscard]] std::string headerJson() const;

 private:
  Profiler() = default;
  struct Impl;
  Impl& impl() const;
};

/// The exit-time export used by the shared CLI flag handling: stop the
/// profiler (closing `<base>.census.jsonl`, which the sampler wrote
/// through from start()) and write `<base>.folded` = obs::toFolded of
/// every span the tracer holds. A tracer that dropped spans says so on
/// stderr. Safe to call multiple times; in a disabled build or after an
/// aborted run the file is still written (empty without spans).
void writeProfileFiles(const std::string& basePath);

}  // namespace hsis::obs::prof
