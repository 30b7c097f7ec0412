// hsis::serve slow-request auto-capture.
//
// When a request's wall time crosses the daemon's --slow-threshold-s, the
// worker calls writeSlowRequestArtifacts() exactly once for that request,
// and the full diagnostic bundle for the offending request lands in
// `<artifactRoot>/<trace-id>/`:
//
//   request.json    — metadata + verdict + per-stage micros
//   trace.json      — Chrome-trace (chrome://tracing / Perfetto) of the
//                     spans stamped with this request's trace id
//   profile.folded  — flamegraph-ready folded self-times of those spans
//                     (obs::toFolded)
//   census.jsonl    — hsis-prof-v1: the profiler's header, then one sample
//                     with the latest published BDD census (its census
//                     fields null when no manager published one)
//
// The directory is named by the trace id, so a slow request found in
// `hsis_report requests`, a log event, or a stats dashboard resolves to
// its artifacts by the same key. Capture runs on the worker thread after
// the done frame is emitted — the client's latency is unaffected.
#pragma once

#include <cstdint>
#include <string>

#include "serve/protocol.hpp"

namespace hsis::serve {

struct SlowRequestInfo {
  uint64_t traceId = 0;
  std::string requestId;
  std::string name;     ///< subject name (or digest)
  std::string digest;
  std::string verdict;
  std::string detail;
  bool cacheHit = false;
  double wallSeconds = 0.0;
  double thresholdSeconds = 0.0;
  StageMicros stages;
};

/// Write the artifact bundle for one slow request. Returns the artifact
/// directory path, or "" on I/O failure (never throws). `artifactRoot` is
/// created if missing.
std::string writeSlowRequestArtifacts(const std::string& artifactRoot,
                                      const SlowRequestInfo& info);

}  // namespace hsis::serve
