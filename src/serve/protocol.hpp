// hsis::serve wire protocol (schema hsis-serve-v1): line-delimited JSON
// over a Unix-domain socket. One request per line (client -> server), a
// stream of frames per request (server -> client), every frame tagged with
// the request id so responses for concurrent requests can interleave on
// one connection.
//
// Requests:
//   {"op": "check", "id": ID, "name": NAME,
//    "design": {"kind": "verilog"|"blifmv", "text": SRC, "top": TOP},
//    "pif": PIF, "budget": {"wall_s": S, "rss_mb": M}, "want_trace": BOOL
//    [, "trace_id": HEX16]}     // client-chosen trace id; the server
//                               // assigns one when absent, echoes it back
//   {"op": "ping", "id": ID}
//   {"op": "stats", "id": ID}
//   {"op": "stats-stream", "id": ID, "interval_ms": N}  // N=0 cancels
//   {"op": "shutdown", "id": ID}
//
// Frames (each one line; "schema" on every frame). Request-scoped frames
// (accepted/loaded/verdict/done) also carry the request's 16-hex-digit
// trace id as "trace_id" — distinct from the verdict frame's "trace",
// which remains the counterexample text:
//   {"event": "accepted", "id": ID, "queue_depth": N, "trace_id": HEX}
//   {"event": "loaded",   "id": ID, "cache": "hit"|"miss", "read_micros": N,
//    "trace_id": HEX}
//   {"event": "verdict",  "id": ID, "property": P, "paradigm": "ctl"|"lc",
//    "holds": BOOL, "seconds": S[, "trace": TEXT], "trace_id": HEX}
//   {"event": "done",     "id": ID, "verdict": "pass"|"fail"|"aborted"|
//    "error", "detail": TEXT, "stats": {"cache": ..., "read_micros": N,
//    "wall_s": S, "properties": N, "failures": N, "stages": {"queue": US,
//    "parse": US, "tr": US, "reach": US, "check": US, "render": US}
//    [, "coverage": {"state_fraction": F, "values_reached": N,
//    "values_total": N, "bins_hit": N, "bins_total": N}]
//    [, "cex": {"path": DIR, "replay": "verified"|"unverified"}]},
//    "trace_id": HEX}
//   {"event": "pong",     "id": ID, "version": TEXT}
//   {"event": "stats",    "id": ID, "server": {...}}
//   {"event": "bye",      "id": ID}
//   {"event": "error",    "id": ID, "message": TEXT}
//
// Stats-stream ticks use their own schema (hsis-serve-stats-v1), one frame
// per interval until the subscription is cancelled or the connection ends:
//   {"schema": "hsis-serve-stats-v1", "event": "stats-tick", "id": ID,
//    "seq": N, "stats": {"t_s": S, "queue_depth": N, "workers": N,
//    "busy_workers": N, "rss_kb": N, "requests": {...}, "cache": {...},
//    "latency_us": {STAGE: {"count": N, "p50": N, "p90": N, "p99": N,
//    "max": N}, ...} (quantiles null while count is 0),
//    "coverage": {"reports": N, "state_fraction": F, "values_reached": N,
//    "values_total": N, "bins_hit": N, "bins_total": N}}}
//
// Parsing and rendering both go through obs/jsonlite (`parse` and
// `Writer`, like every other JSONL artifact). All functions are pure — no
// sockets here — so the tests cover the protocol without a server.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "hsis/session.hpp"
#include "obs/jsonlite.hpp"

namespace hsis::serve {

inline constexpr std::string_view kSchema = "hsis-serve-v1";

/// Malformed request line / frame. The connection survives: the server
/// answers with an error frame instead of dying.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

// ---------------------------------------------------------------- requests

/// Per-request resource budget; 0 = take the server default (which may
/// itself be "unlimited").
struct Budget {
  double wallSeconds = 0.0;
  uint64_t rssMb = 0;
};

struct CheckRequest {
  std::string id;    ///< client-chosen, echoed on every frame
  std::string name;  ///< display/subject name ("" = digest prefix)
  Session::DesignSource design;
  std::string pif;   ///< properties + fairness (PIF text)
  Budget budget;
  bool wantTrace = true;
  /// Client-chosen trace id (16 hex digits, "" = server assigns one).
  std::string traceId;
};

struct Request {
  enum class Op : uint8_t { Check, Ping, Stats, StatsStream, Shutdown };
  Op op = Op::Ping;
  std::string id;
  CheckRequest check;  ///< valid when op == Op::Check
  /// StatsStream only: tick period in ms (0 = cancel the subscription).
  uint64_t statsIntervalMs = 0;
};

/// Parse one request line. Throws ProtocolError on malformed input.
Request parseRequest(const std::string& line);
/// Render a request as one line (client side), no trailing newline.
std::string renderRequest(const Request& request);

// ------------------------------------------------------------------ frames

struct VerdictInfo {
  std::string property;
  bool languageContainment = false;
  bool holds = false;
  double seconds = 0.0;
  std::string trace;  ///< rendered counterexample text ("" = none)
};

/// Per-stage wall micros of one request's pipeline. `queue` is admission
/// to dequeue; the rest are worker time. Stages a request never entered
/// (e.g. `reach` for a pure language-containment PIF) stay 0 but are still
/// rendered, so the frame shape is constant.
struct StageMicros {
  uint64_t queue = 0;   ///< admission-enqueue -> worker-dequeue
  uint64_t parse = 0;   ///< design parse + flatten + FSM (and PIF parse)
  uint64_t tr = 0;      ///< transition-relation construction
  uint64_t reach = 0;   ///< reachable-state fixpoint (CTL properties)
  uint64_t check = 0;   ///< per-property model checking
  uint64_t render = 0;  ///< counterexample trace rendering
  [[nodiscard]] uint64_t total() const {
    return queue + parse + tr + reach + check + render;
  }
};

struct DoneStats {
  bool cacheHit = false;
  uint64_t readMicros = 0;
  double wallSeconds = 0.0;
  size_t properties = 0;
  size_t failures = 0;
  StageMicros stages;
  /// Coverage summary (hsis_cov), computed during the reach stage for CTL
  /// requests. Rendered as a "coverage" object inside "stats" only when
  /// hasCoverage is set, so pre-coverage clients see the legacy shape.
  bool hasCoverage = false;
  double covStateFraction = 0.0;
  uint64_t covValuesReached = 0;
  uint64_t covValuesTotal = 0;
  uint64_t covBinsHit = 0;
  uint64_t covBinsTotal = 0;
  /// Counterexample artifact pointer (hsis_cex), set when a failing check
  /// wrote a cex.json/cex.vcd pair under the server's artifact dir.
  /// Rendered as a "cex" object inside "stats" only when hasCex is set.
  bool hasCex = false;
  std::string cexPath;    ///< artifact directory (holds cex.json + cex.vcd)
  std::string cexReplay;  ///< "verified" | "unverified"
};

/// Request-scoped frame builders take the request's trace id (hex, "" =
/// omit the field, for pre-admission errors that never got one).
std::string acceptedFrame(std::string_view id, size_t queueDepth,
                          std::string_view traceId = {});
std::string loadedFrame(std::string_view id, bool cacheHit,
                        uint64_t readMicros, std::string_view traceId = {});
std::string verdictFrame(std::string_view id, const VerdictInfo& verdict,
                         std::string_view traceId = {});
std::string doneFrame(std::string_view id, std::string_view verdict,
                      std::string_view detail, const DoneStats& stats,
                      std::string_view traceId = {});
std::string pongFrame(std::string_view id, std::string_view version);
/// `serverJsonObject` must be a pre-rendered JSON object (e.g. from
/// SessionPool::statsJsonObject).
std::string statsFrame(std::string_view id, std::string_view serverJsonObject);
/// One hsis-serve-stats-v1 time-series frame; `statsJsonObject` is a
/// pre-rendered JSON object (SessionPool::statsStreamJson).
std::string statsTickFrame(std::string_view id, uint64_t seq,
                           std::string_view statsJsonObject);
std::string byeFrame(std::string_view id);
std::string errorFrame(std::string_view id, std::string_view message);

/// A parsed server frame (client side). `body` keeps every field.
struct Frame {
  std::string event;
  std::string id;
  obs::jsonlite::Value body;
};

/// Parse one frame line. Throws ProtocolError on malformed input.
Frame parseFrame(const std::string& line);

/// The body of obs::jsonlite::appendQuoted(s), without the quotes.
std::string escapeJson(std::string_view s);

}  // namespace hsis::serve
