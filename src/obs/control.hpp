// hsis::obs control surfaces — the parts of the observability subsystem
// that act on a run instead of merely recording it:
//
//  - a process-wide cooperative ABORT FLAG with a reason and phase. Long
//    loops (BDD manager safe points, reachability, CTL fixpoints, the LC
//    hull) poll `checkAbort()`; a breach unwinds via `AbortedError` so
//    callers can still dump a valid stats snapshot with `"aborted"` set.
//  - RESOURCE WATCHDOGS that trip the abort flag when a wall-clock or
//    RSS limit is exceeded.
//  - shared `--timeout-s/--mem-limit-mb/--stats-json/--profile/...` flag
//    handling for every driver (hsis_cli, hsis_bench, the tools).
//
// One thread, the TICKER (`obs.ticker`), does all obs timing: the
// sampling profiler (obs/prof) and every Watchdog are entries in its list
// of due times, and it sleeps until the earliest.
//
// Unlike the metrics/span instrumentation, everything here stays LIVE
// under HSIS_OBS_DISABLE: aborting a runaway run is control flow, not
// measurement. In a disabled build the ticker still runs and the watchdog
// still aborts — only the breach *phase* is empty, because phase tracking
// rides on the compiled-out spans.
#pragma once

#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ledger.hpp"

namespace hsis::obs {

// ------------------------------------------------------------ abort flag

struct AbortInfo {
  std::string reason;  ///< e.g. "wall-clock limit 1.0s exceeded (1.05s)"
  std::string phase;   ///< innermost active span when the flag was raised
};

/// Thrown by `checkAbort()` at a cooperative safe point after an abort was
/// requested. Catch it at the driver level, dump stats, exit cleanly.
class AbortedError : public std::runtime_error {
 public:
  AbortedError(std::string reason, std::string phase);
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }
  [[nodiscard]] const std::string& phase() const noexcept { return phase_; }

 private:
  std::string reason_;
  std::string phase_;
};

/// A per-task cancellation slot for multi-tenant processes (the hsis_serve
/// worker pool): one slot per worker, bound to the thread running its
/// requests. `checkAbort()` honors both the process-wide flag and the slot
/// bound to the calling thread, so a per-request watchdog can abort one
/// worker's request without unwinding its neighbors. Slots are reusable:
/// clear() re-arms the slot for the next request.
class TaskAbort {
 public:
  /// Raise this slot's flag. First request wins until clear(). `phase`
  /// defaults to the innermost open span of the thread that bound it last.
  void request(std::string_view reason, std::string_view phase = {});
  /// Lower the flag and forget the stored reason (between requests).
  void clear();
  /// Hot-path query: one relaxed load.
  [[nodiscard]] bool requested() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }
  /// The stored reason/phase, or nullopt when not requested.
  [[nodiscard]] std::optional<AbortInfo> info() const;

 private:
  friend TaskAbort* bindTaskAbort(TaskAbort* slot);
  std::atomic<bool> flag_{false};
  std::atomic<uint64_t> boundThread_{0};  ///< currentThreadId(); 0 = never
  mutable std::mutex mu_;
  std::string reason_;
  std::string phase_;
};

namespace detail {
extern std::atomic<bool> g_abortRequested;
extern thread_local TaskAbort* t_taskAbort;
}  // namespace detail

/// Bind `slot` as the calling thread's task-abort slot (nullptr unbinds).
/// Safe points reached on this thread then observe slot aborts too. The
/// slot must outlive the binding. Returns the slot bound before, so a
/// caller that binds its own slot for a while can restore it.
TaskAbort* bindTaskAbort(TaskAbort* slot);

/// Hot-path query: a relaxed load of the process flag plus, when the
/// calling thread has a bound task slot, one more relaxed load.
inline bool abortRequested() noexcept {
  if (detail::g_abortRequested.load(std::memory_order_relaxed)) return true;
  TaskAbort* slot = detail::t_taskAbort;
  return slot != nullptr && slot->requested();
}

/// Raise the flag. First request wins; later ones are ignored. `phase`
/// defaults to currentPhase(), as the flag stops every thread.
void requestAbort(std::string_view reason, std::string_view phase = {});
/// Lower the flag and forget the stored reason (tests, per-case resets).
void clearAbort();
/// The stored reason/phase, or nullopt when no abort is pending.
std::optional<AbortInfo> abortInfo();

[[noreturn]] void throwAborted();  ///< cold path of checkAbort()

/// Cooperative cancellation point: throws AbortedError iff an abort has
/// been requested. Costs one relaxed load when it has not.
inline void checkAbort() {
  if (abortRequested()) throwAborted();
}

// ----------------------------------------------------------- phase stack
//
// What each thread is running, for the abort flag, profiler and flight
// recorder. Each thread's open spans live on its own stack
// (obs/trace.cpp), which is in a registry while the thread lives; these
// readers walk the registry. Empty under HSIS_OBS_DISABLE.

/// Name of the innermost open span with the highest span id across all
/// threads (the most recently started still-open one), or "" if none.
std::string currentPhase();

/// One thread's open phase spans at a point in time, outermost first.
/// `threadId` is currentThreadId() of that thread.
struct PhaseStackSnapshot {
  uint64_t threadId = 0;
  std::vector<std::string> frames;

  /// The flamegraph folded form: `outer;middle;inner`.
  [[nodiscard]] std::string folded() const;
};

/// Snapshot every thread's live phase stack (threads with no open span are
/// omitted), ordered by thread id. This is what the sampling profiler
/// (obs/prof) records every tick.
std::vector<PhaseStackSnapshot> phaseStacks();

// --------------------------------------------------------- process memory

/// Current resident set size in KiB (Linux /proc/self/status VmRSS;
/// 0 where unavailable).
uint64_t currentRssKb();
/// Peak resident set size in KiB (VmHWM; 0 where unavailable).
uint64_t peakRssKb();

// ----------------------------------------------------------------- ticker

namespace detail {
/// Runs on the ticker thread, no ticker lock held, with WallTimer::nowNs();
/// returns the entry's next due time, or 0 to retire it. Callbacks run
/// one at a time, so a slow one delays every other entry.
using TickFn = std::function<uint64_t(uint64_t nowNs)>;
/// Add an entry first due at `dueNs`; returns its id (never 0).
uint64_t scheduleTick(uint64_t dueNs, TickFn fn);
/// A period of `ms` milliseconds in ns, clamped to [1 ms, ~30 years] so a
/// flag value can neither spin the ticker nor overflow a due time.
uint64_t periodNs(uint64_t ms);
/// Remove an entry (0 and retired ids are no-ops). Once it returns, the
/// callback is not running and never runs again. Never call it from a
/// callback, nor while holding a lock that the callback takes.
void cancelTick(uint64_t id);
}  // namespace detail

// --------------------------------------------------------------- watchdog

struct WatchdogOptions {
  double wallLimitSeconds = 0.0;  ///< 0 = no wall-clock limit
  uint64_t memLimitKb = 0;        ///< RSS limit; 0 = none, read every 20 ms
  /// Read current RSS (VmRSS) instead of peak RSS (VmHWM). VmHWM is
  /// monotonic over the process lifetime, so a watchdog re-armed per
  /// request would trip forever once any earlier request peaked past the
  /// limit — per-request budgets want the current level.
  bool useCurrentRss = false;
  /// Breach target: raise this task slot instead of the process-wide
  /// abort flag (the hsis_serve per-request budget path).
  TaskAbort* target = nullptr;
};

/// A ticker entry that raises the abort flag (process-wide or a TaskAbort
/// slot) on a breach, then retires. The wall limit fires at its deadline,
/// start() + limit; nothing polls it. Once stop() returns, the target may
/// die. start() with neither limit set arms nothing.
///
/// Watchdogs are re-armable: start() after a stop — or after a breach —
/// begins a fresh countdown with no state carried over (fired() resets,
/// the wall clock restarts). `instance()` is the shared process-level
/// watchdog driven by --timeout-s/--mem-limit-mb; drivers with per-request
/// budgets construct their own instances.
class Watchdog {
 public:
  Watchdog();
  ~Watchdog();  ///< stops a running watchdog
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  static Watchdog& instance();
  void start(WatchdogOptions options);
  void stop();
  /// Armed and neither fired nor stopped yet.
  [[nodiscard]] bool running() const;
  /// True when the watchdog breached a limit since the last start().
  [[nodiscard]] bool fired() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// -------------------------------------------------------------- CLI flags

/// The shared observability flag set every driver understands:
///   --stats-json PATH        dump the hsis-obs-v1 snapshot at exit
///   --timeout-s S            watchdog wall-clock limit
///   --mem-limit-mb M         watchdog peak-RSS limit
///   --profile                start the sampling profiler (obs/prof): the
///                            census series goes to hsis-prof.census.jsonl
///                            as it is sampled (10 ms), the span tree's
///                            self times to hsis-prof.folded at exit
///   --profile-out BASE       ... writing BASE.census.jsonl + BASE.folded
///   --log-level LVL          trace|debug|info|warn|error|off; also turns
///                            on human-readable log lines on stderr
///   --log-file F             append hsis-log-v1 JSONL events to F
///   --ledger PATH            run-ledger file ("none" disables; default
///                            $HSIS_LEDGER or ~/.hsis/ledger.jsonl)
///   --flight-dir DIR         install the crash flight recorder, dumps
///                            land in DIR (default $HSIS_FLIGHT_DIR)
struct ObsCliOptions {
  std::string statsJsonPath;
  double timeoutSeconds = 0.0;
  uint64_t memLimitMb = 0;
  bool profile = false;            ///< --profile or --profile-out seen
  std::string profileBasePath;     ///< empty = default "hsis-prof"
  std::string logLevel;            ///< "" = default (info, ring only)
  std::string logFile;             ///< "" = no JSONL log sink
  std::string ledgerPath;          ///< "" = default resolution, "none" = off
  std::string flightDir;           ///< "" = $HSIS_FLIGHT_DIR or off
  /// --cov-json FILE: where the driver writes its hsis-cov-v1 coverage
  /// report. Parsed here so every driver spells the flag the same way, but
  /// always driver-owned (obs cannot depend on cov): the exit exporters
  /// never touch it.
  std::string covJsonPath;
};

/// `text` as a T when all of it is one, else nullopt: how every driver
/// reads its numeric flags ("5x", " 5", "-1" as an unsigned and
/// out-of-range values are not numbers).
template <typename T>
std::optional<T> parseNumber(const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || ptr == text) return std::nullopt;
  return value;
}

/// The value of numeric flag `flag`; throws std::invalid_argument
/// ("FLAG needs a number, got 'TEXT'") when `text` is not one, which the
/// drivers report as "error: ..." with exit code 2.
template <typename T>
T flagNumber(const char* flag, const char* text) {
  std::optional<T> v = parseNumber<T>(text);
  if (!v)
    throw std::invalid_argument(std::string(flag) + " needs a number, got '" +
                                text + "'");
  return *v;
}

/// Scan argv, remove every recognized flag (and value), return the result.
/// A malformed numeric value throws std::invalid_argument (flagNumber).
ObsCliOptions stripObsCliFlags(int& argc, char** argv);
/// Start watchdog/profiler/logger/flight recorder per the
/// options (names the calling thread "main" for trace exports) and
/// register the exit exporters. Throws std::invalid_argument, having
/// started nothing, when the profiler's census file cannot be written.
void applyObsCliOptions(const ObsCliOptions& options);
/// Stop the process watchdog and the profiler, then join
/// the ticker thread if no other entry (a per-request watchdog) is left.
void stopObsThreads();

// ------------------------------------------------------------ driver setup
//
// The one-call observability bootstrap every driver shares (bench_*,
// hsis_bench, hsis_cli) — previously a per-driver header copy
// (bench/obs_dump.hpp). It strips the shared flags, applies them, arms the
// run-ledger record for this process, and registers the EXIT EXPORTERS,
// which run exactly once, in this fixed order (see docs/observability.md):
//
//   1. stop the ticker entries (watchdog, sampling profiler)
//      and the ticker thread, so nothing mutates the registry mid-export;
//   2. when --profile ran: close BASE.census.jsonl (written through since
//      start) and write BASE.folded, the tracer's spans folded to self µs;
//   3. the --stats-json snapshot + its .trace.json Chrome view (unless the
//      driver owns that flag itself, e.g. hsis_bench's baseline);
//   4. the run-ledger record (result, wall, peak RSS, abort state), then
//      the crash-armed record is disarmed.
//
// The flight recorder is NOT an exit exporter: it fires at abort/crash
// time (requestAbort or a fatal signal), before this sequence begins.
// Abort paths unwind via AbortedError into driverGuard, which records the
// abort and returns exit code 3; the atexit exporters then still run.

struct DriverObsInit {
  std::string driverName;    ///< ledger "driver" field, e.g. "hsis_bench"
  bool ownStatsJson = false; ///< driver interprets --stats-json itself
  bool ownLedger = false;    ///< driver appends per-case ledger records
};

/// Strip + apply the shared flags and set up the exit exporters for a
/// driver process. Call first thing in main, before other arg parsing.
/// A malformed numeric flag value or an unwritable --stats-json or
/// --profile-out path prints "error: ..." and exits with 2.
ObsCliOptions initDriverObs(int& argc, char** argv,
                            const DriverObsInit& init);

/// The resolved ledger path for this process ("" = disabled). Valid after
/// initDriverObs; for drivers that append their own per-case records.
std::string activeLedgerPath();
/// A ledger record pre-filled with this process's run identity (run id,
/// timestamp, driver, git sha, config, obs_enabled). Valid after
/// initDriverObs.
ledger::Record baseLedgerRecord();
/// Set the subject / result of the process-level ledger record appended by
/// the exit exporters. Drivers call this once the outcome is known; the
/// default is "completed" (or "aborted"/reason when the abort flag is up).
void noteRunSubject(std::string_view subject);
void noteRunResult(std::string_view result, std::string_view detail,
                   std::string_view digest = {});

/// Best-effort commit id: a non-empty $HSIS_GIT_SHA (set by CI), else the
/// short hash of HEAD with "-dirty" appended when tracked files have
/// uncommitted changes, else "unknown".
std::string gitSha();

/// Run the driver body; on a watchdog/user abort print what happened,
/// record the abort in the run ledger, and return exit code 3 (the exit
/// exporters still write every artifact, with "aborted" set).
template <typename Fn>
int driverGuard(Fn&& body) {
  try {
    return body();
  } catch (const AbortedError& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "\naborted: %s", e.reason().c_str());
    if (!e.phase().empty()) std::fprintf(stderr, " (in %s)", e.phase().c_str());
    std::fprintf(stderr, "\n");
    noteRunResult("aborted", e.reason());
    return 3;
  }
}

}  // namespace hsis::obs
