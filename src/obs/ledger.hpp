// hsis::obs::ledger — the cross-run verification ledger.
//
// Every driver (hsis_cli, hsis_bench, the bench_* experiments) appends one
// JSONL record per verification run to a shared history file — by default
// `~/.hsis/ledger.jsonl`, overridden by $HSIS_LEDGER or `--ledger PATH`
// (`--ledger none` disables). A record (schema `hsis-ledger-v1`) carries
// the run identity (run id, wall-clock timestamp, driver, git sha, config),
// the subject (design / property / suite case), the outcome (pass / fail /
// aborted / crashed, with a counterexample digest or abort reason), and the
// cost (wall seconds, peak RSS).
//
// Appends use O_APPEND plus an exclusive flock so concurrent drivers (a
// parallel bench sweep, CI shards on a shared volume) interleave whole
// lines, never bytes. The ledger stays LIVE under HSIS_OBS_DISABLE: run
// identity is control flow, not measurement.
//
// CRASH ARMING. A crashed process cannot run its exit path, so a driver
// arms a pre-rendered "crashed" record up front: the line (minus the
// signal name) is serialized and the ledger fd opened at arm time, and the
// flight recorder's signal handler completes and appends it with
// async-signal-safe writes only. A normal exit disarms and appends the
// real record instead.
//
// `tools/hsis_report` (list / show / diff / regressions) reads this file;
// the query + rendering logic lives here so tests cover it directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hsis::obs::ledger {

// ------------------------------------------------------------------ record

struct Record {
  std::string runId;      ///< "<unix-seconds>-<pid>"; shared by one process
  std::string time;       ///< ISO-8601 UTC, e.g. "2026-08-07T12:34:56Z"
  std::string driver;     ///< "hsis_cli", "hsis_bench", "hsis_serve", ...
  std::string subject;    ///< design / "suite/case" / property name
  std::string result;     ///< "pass" | "fail" | "aborted" | "crashed" |
                          ///< "completed" (no pass/fail semantics)
  std::string detail;     ///< failing properties, abort reason, ...
  std::string digest;     ///< counterexample digest ("" when none)
  double wallSeconds = 0.0;
  uint64_t peakRssKb = 0;
  std::string gitSha;
  std::string config;     ///< free-form flag/config summary
  /// Request trace id in hex (hsis_serve requests; "" elsewhere). Joins
  /// the record against the daemon's log events, spans, and slow-request
  /// artifact directory for the same request.
  std::string traceId;
  /// Per-stage wall micros (e.g. "queue", "parse", "tr", "reach", "check",
  /// "render"), in stage order. Empty for drivers without stage timing.
  std::vector<std::pair<std::string, uint64_t>> stages;
  /// Coverage summary (hsis_cov); rendered only when hasCoverage is set so
  /// pre-coverage records keep their exact byte shape.
  bool hasCoverage = false;
  double covStateFraction = 0.0;
  uint64_t covValuesReached = 0;
  uint64_t covValuesTotal = 0;
  uint64_t covBinsHit = 0;
  uint64_t covBinsTotal = 0;
  /// Counterexample artifact pointer (hsis_cex): the directory holding
  /// cex.json/cex.vcd for this request's failing check, and the replay
  /// stamp. Both "" when no artifact was captured.
  std::string cexPath;
  std::string cexReplay;  ///< "verified" | "unverified" | ""
  bool obsEnabled = true;
  std::string signalName; ///< "SIGSEGV" etc. for crashed records, else ""
};

/// This process's run id (stable for the process lifetime).
std::string runId();
/// Wall-clock timestamp "YYYY-MM-DDTHH:MM:SSZ" (UTC), now.
std::string timestampUtc();
/// FNV-1a hex digest of arbitrary text (counterexample digests).
std::string digestOf(std::string_view text);

/// One JSONL line, no trailing newline.
std::string toJsonl(const Record& record);

/// Resolve the ledger path: `flagValue` (from --ledger) wins, then
/// $HSIS_LEDGER, then `~/.hsis/ledger.jsonl`. "none" (from either source)
/// or an unresolvable home yields "" = ledger disabled.
std::string resolvePath(const std::string& flagValue);

/// Append one record under O_APPEND + flock(LOCK_EX). Creates the parent
/// directory. Returns false (and warns on stderr) on I/O failure; never
/// throws. Empty path = disabled = true.
bool append(const std::string& path, const Record& record);

// ------------------------------------------------------------------- query

/// Parse ledger text (JSONL). Lines that are not valid hsis-ledger-v1
/// records are skipped (a torn crash line must not poison the history);
/// `skipped`, when given, receives the count.
std::vector<Record> parse(std::string_view text, size_t* skipped = nullptr);
/// Read + parse a ledger file ({} when missing).
std::vector<Record> load(const std::string& path, size_t* skipped = nullptr);

/// One row of a cross-run comparison.
struct DiffRow {
  std::string subject;
  double oldWallS = 0.0, newWallS = 0.0;
  double wallRatio = 0.0;  ///< new/old, 0 when either side missing
  uint64_t oldRssKb = 0, newRssKb = 0;
  double rssRatio = 0.0;
  bool wallRegression = false;
  bool rssRegression = false;
  std::string note;  ///< "", "only in old", "only in new", "aborted", ...
};

struct DiffResult {
  std::string oldLabel, newLabel;  ///< run ids or shas being compared
  std::vector<DiffRow> rows;
  int wallRegressions = 0;
  int rssRegressions = 0;
};

/// Diff the most recent run of `shaOld` against the most recent run of
/// `shaNew`, per subject. Thresholds in percent flag regressions (<= 0
/// disables that dimension).
DiffResult diffByGitSha(const std::vector<Record>& records,
                        const std::string& shaOld, const std::string& shaNew,
                        double wallThresholdPct, double rssThresholdPct);

/// Diff the latest run (by run id, in file order) against the previous
/// one, per subject — the `hsis_report regressions` statistic. Returns
/// nullopt when the ledger holds fewer than two runs.
std::optional<DiffResult> diffLatestRuns(const std::vector<Record>& records,
                                         double wallThresholdPct,
                                         double rssThresholdPct);

/// Render a DiffResult as an aligned text table or a markdown table, with
/// wall and RSS columns and a regression summary line.
std::string renderDiff(const DiffResult& diff, bool markdown);
/// One line per record: run id, time, driver, subject, result, wall, RSS.
std::string renderList(const std::vector<Record>& records, size_t limit);
/// Every field of the records of one run id, human-readable.
std::string renderShow(const std::vector<Record>& records,
                       const std::string& runIdPrefix);
/// Per-request view: one row per record carrying stage timings (hsis_serve
/// traffic), with trace id, per-stage milliseconds, and a SLOW flag when
/// the wall time exceeds `slowThresholdSeconds` (<= 0 disables). `limit`
/// keeps only the most recent N rows (0 = all); `outliers`, when given,
/// receives the flagged-row count.
std::string renderRequests(const std::vector<Record>& records,
                           double slowThresholdSeconds, size_t limit,
                           size_t* outliers = nullptr);

// ------------------------------------------------------------ crash arming

/// Pre-render a "crashed" record for `record` (result/signal filled at
/// crash time) and open `path` O_APPEND so the flight recorder's signal
/// handler can complete it with async-signal-safe writes only. Re-arming
/// replaces the pending record. Empty path disarms.
void armCrashRecord(const std::string& path, const Record& record);
/// Forget the armed record and close its fd (normal exit path).
void disarmCrashRecord();

namespace detail {
/// Signal path: append the armed record with the given signal name using
/// only write(). No-op when nothing is armed. Called by the flight
/// recorder's handler.
void writeArmedCrashRecord(const char* signalName) noexcept;
}  // namespace detail

}  // namespace hsis::obs::ledger
