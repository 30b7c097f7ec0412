// The hsis_serve worker pool: a fixed set of workers, each owning one
// hsis::Session (one BddManager, one resident compiled design), fed by an
// admission-controlled queue and routed through the LRU compiled-design
// cache (cache.hpp).
//
// Scheduling: a check request is routed to the worker whose Session holds
// its design digest; an unmapped digest takes the LRU worker, evicting
// that worker's cold design. Requests for one digest therefore serialize
// on one worker (and hit its warm Session), while requests for different
// designs run genuinely in parallel — the HermesBDD-motivated coarse
// grain: independent properties over separate read-mostly managers.
//
// Budgets: every request runs under the worker's own obs::Watchdog armed
// with the request's wall/RSS budget, targeting the worker's TaskAbort
// slot; a breach unwinds that request at the next engine safe point
// (AbortedError), the request answers `verdict: "aborted"`, and the
// worker's Session survives to serve the next request.
//
// Every finished request appends one hsis-ledger-v1 record and bumps the
// serve.* metrics, so hsis_report and the obs exports work on server runs
// unchanged.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace hsis::serve {

struct PoolOptions {
  size_t workers = 2;
  /// Admission control: maximum queued-not-yet-running requests across the
  /// pool; submissions beyond it are rejected with an error frame.
  size_t maxQueue = 64;
  /// Applied when a request leaves a budget dimension 0.
  Budget defaultBudget{30.0, 0};
  /// Hard ceiling per dimension (0 = none): request budgets are clamped.
  Budget maxBudget{0.0, 0};
  /// Ledger file for per-request records ("" = no ledger).
  std::string ledgerPath;
  /// "driver" field of the ledger records.
  std::string driverName = "hsis_serve";
  /// Slow-request auto-capture: a request whose wall time (enqueue -> done)
  /// exceeds this gets its profile/trace/census written under artifactDir,
  /// in a directory named by its trace id. 0 or an empty dir disables.
  double slowThresholdSeconds = 0.0;
  std::string artifactDir;
  /// Property-batch fan-out per request: a request carrying more than one
  /// property is checked by par::checkBatch on up to this many workers
  /// (the pool worker on its session, each other one on its own replica
  /// manager) instead of serially on the session. 1 = off. Verdict frames are then emitted after the batch
  /// completes, in property order, rather than streamed one by one.
  int batchJobs = 1;
  Session::Options session;
};

/// Where a request's frames go. Called from the submitting thread
/// (accepted/error) and from the worker thread (loaded/verdict/done);
/// implementations must be thread-safe and must not throw.
using FrameSink = std::function<void(const std::string& frameLine)>;

class SessionPool {
 public:
  explicit SessionPool(PoolOptions options);
  ~SessionPool();  ///< shutdown(true)
  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Admission: route + enqueue the request and emit an `accepted` frame,
  /// or reject (queue full / shutting down) with an `error` frame and
  /// return false.
  bool submit(CheckRequest request, FrameSink sink);

  /// Stop accepting, then drain: with abortInFlight, queued requests are
  /// answered with error frames and running requests are aborted at their
  /// next safe point; without it, everything queued still runs. Joins the
  /// workers. Idempotent.
  void shutdown(bool abortInFlight);

  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;  ///< pass or fail
    uint64_t failed = 0;     ///< error verdicts
    uint64_t aborted = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t evictions = 0;
    size_t queueDepth = 0;
    size_t workers = 0;
    size_t busyWorkers = 0;
    /// Coverage summaries (hsis_cov): count of requests that produced one,
    /// plus the most recent summary (all 0 until the first CTL request
    /// completes with coverage enabled).
    uint64_t covReports = 0;
    double covLastStateFraction = 0.0;
    uint64_t covLastValuesReached = 0;
    uint64_t covLastValuesTotal = 0;
    uint64_t covLastBinsHit = 0;
    uint64_t covLastBinsTotal = 0;
    /// Requests whose failing check produced a counterexample artifact
    /// (hsis_cex) under the artifact dir.
    uint64_t cexCaptures = 0;
    std::vector<std::string> resident;  ///< digest per worker ("" = empty)
  };
  [[nodiscard]] Stats stats() const;
  /// Stats as a rendered JSON object (for the stats frame).
  [[nodiscard]] std::string statsJsonObject() const;
  /// The hsis-serve-stats-v1 time-series payload for one stats-stream
  /// tick: pool counters plus RSS and the per-stage latency quantiles from
  /// the serve.latency.* histograms.
  [[nodiscard]] std::string statsStreamJson() const;

 private:
  struct Worker;
  struct Job;
  void workerMain(Worker& worker);
  void runJob(Worker& worker, Job& job);

  PoolOptions opts_;
  uint64_t startNs_ = 0;  ///< pool construction time, t_s origin
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool joined_ = false;
  size_t queuedTotal_ = 0;
  DesignCache cache_;
  Stats counters_;  ///< guarded by mu_ (queueDepth/resident derived)
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace hsis::serve
