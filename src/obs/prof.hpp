// hsis::obs::prof — the in-process sampling profiler.
//
// The sampler is one entry on the obs ticker (obs/control), the thread
// that also drives the watchdogs. Every `intervalMs`
// (default 10 ms) it records one ProfSample:
//
//  (a) the live per-thread phase stacks (obs/control) folded into
//      `phaseA;phaseB;phaseC` frames — the aggregate over a run is the
//      classic folded-stack format consumed directly by flamegraph.pl and
//      speedscope;
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
// Samples land in a fixed-capacity in-memory ring; when `jsonlPath` is set
// every sample is additionally spilled as one JSONL record (schema
// `hsis-prof-v1`, header line first), so even a run killed by the watchdog
// leaves a complete time series of *where* the time and the nodes went.
//
// Under HSIS_OBS_DISABLE the sampler never schedules and every query returns
// an empty (but valid) document; the BddCensus struct and the rendezvous
// stay compiled so BddManager::census() remains usable as plain
// introspection.
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
  /// sample time (outermost frame first). Empty when the process was idle.
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
  /// When set, every sample is appended to this file as it is taken
  /// (header line first), so the series survives any kind of death.
  std::string jsonlPath;
};

/// The background sampler. start() is idempotent (restarts with the new
/// options and a cleared ring); stop() fences its ticker entry and closes
/// the spill file. `sampleOnce()` is the exact per-tick body, public so
/// tests drive deterministic ticks without a ticker or a clock.
class Profiler {
 public:
  static Profiler& instance();

  void start(ProfOptions options);
  void stop();
  [[nodiscard]] bool running() const;
  /// Drop all samples and folded-stack aggregates (ring stays allocated).
  void clear();

  /// Take one sample right now (also what the ticker calls every tick).
  void sampleOnce();

  [[nodiscard]] uint64_t sampleCount() const;  ///< lifetime, incl. dropped
  [[nodiscard]] uint64_t droppedSamples() const;
  [[nodiscard]] std::vector<ProfSample> samples() const;  ///< ring copy

  /// Aggregated folded stacks: one `phaseA;phaseB;phaseC <count>` line per
  /// distinct stack, sorted, newline-terminated. Feed to flamegraph.pl.
  [[nodiscard]] std::string foldedStacks() const;
  /// The `{"schema": "hsis-prof-v1", "kind": "header", ...}` first line.
  [[nodiscard]] std::string headerJson() const;
  /// Header plus every ring sample as JSONL (for when no spill file ran).
  [[nodiscard]] std::string censusJsonl() const;
  /// The configured spill path ("" when none). Lets writeProfileFiles
  /// avoid truncating a write-through spill with the shorter ring view.
  [[nodiscard]] std::string spillPath() const;

 private:
  Profiler() = default;
  struct Impl;
  Impl& impl() const;
};

/// The exit-time export used by the shared CLI flag handling: stop the
/// profiler (if running) and write `<base>.folded` plus
/// `<base>.census.jsonl`. Safe to call multiple times. Both files are
/// written even in a disabled build or after an aborted run (the census
/// file is then header-only), so downstream scripts never hit a missing
/// file; a write-through spill already at `<base>.census.jsonl` is left
/// untouched rather than truncated to the ring view.
void writeProfileFiles(const std::string& basePath);

}  // namespace hsis::obs::prof
