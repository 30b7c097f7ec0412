// One benchmark job: a design checked against its whole PIF property set.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "designs.hpp"
#include "trace.hpp"

namespace perfbench {

using Verdicts = std::vector<std::pair<std::string, bool>>;

struct JobResult {
  double ms = 0;       ///< whole job, load to last verdict
  double checkMs = 0;  ///< the property checks after reachability
  bool cold = true;    ///< the job compiled its design
  double reached = -1; ///< exact reachable-state count (< 0: not reported)
  double engineReached = -1;  ///< Session::reachedStates(), a double
  Verdicts verdicts;
  std::string error;   ///< exception text, empty on success
};

/// "" when `r` matches the design's known answer, else what differs.
std::string verify(const Design& d, const JobResult& r);

/// Per-job counts the traced run reads at layer boundaries.
struct LayerCounts {
  double trClusters = 0, trNodes = 0, reachSteps = 0;
  double ctlChecks = 0, ctlEfd = 0, preimageCalls = 0, fixpointIters = 0;
  double lcHullIters = 0, lcReachSteps = 0;
  double cacheLookups = 0, cacheHits = 0, gcRuns = 0;
  double peakLiveNodes = 0, allocatedNodes = 0;
  double parWallMs = 0, parTransferMs = 0, parTransferredNodes = 0;
  double parBusyMs = 0, parWorkerMs = 0, parSpeedupBound = 0;
};

/// What hsis_cli does, on a fresh hsis::Session: load, build, reach, then
/// every property in order. With `tracer`, the Session's calls are
/// replayed one public layer function at a time under spans instead, with
/// the Session's default options.
JobResult serialJob(const Design& d, Tracer* tracer = nullptr,
                    uint64_t jobId = 0, LayerCounts* counts = nullptr);

/// A fresh Session loads, builds and reaches, then par::checkBatch checks
/// every property on `jobs` worker threads. With `tracer`, spans cover
/// the Session calls and the batch.
JobResult batchJob(const Design& d, int jobs, Tracer* tracer = nullptr,
                   uint64_t jobId = 0, LayerCounts* counts = nullptr);

}  // namespace perfbench
