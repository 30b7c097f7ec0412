// Abort flag, RSS probes, the obs ticker with its watchdog entries, and
// the shared CLI flag handling. Compiled identically in enabled and
// HSIS_OBS_DISABLE builds: cancelling a runaway run is control flow, not
// measurement (see control.hpp).
#include "obs/control.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/prof.hpp"

namespace hsis::obs {

// ------------------------------------------------------------ abort flag

namespace detail {
std::atomic<bool> g_abortRequested{false};
}  // namespace detail

namespace {

std::mutex& abortMutex() {
  static std::mutex mu;
  return mu;
}

AbortInfo& abortStore() {
  static AbortInfo* info = new AbortInfo;  // leaked, like the registry
  return *info;
}

std::string formatMb(uint64_t kb) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1fMB", static_cast<double>(kb) / 1024.0);
  return buf;
}

}  // namespace

AbortedError::AbortedError(std::string reason, std::string phase)
    : std::runtime_error("aborted: " + reason +
                         (phase.empty() ? "" : " (phase " + phase + ")")),
      reason_(std::move(reason)),
      phase_(std::move(phase)) {}

void requestAbort(std::string_view reason, std::string_view phase) {
  {
    std::lock_guard<std::mutex> lock(abortMutex());
    if (detail::g_abortRequested.load(std::memory_order_relaxed)) return;
    AbortInfo& info = abortStore();
    info.reason = std::string(reason);
    info.phase = phase.empty() ? currentPhase() : std::string(phase);
    detail::g_abortRequested.store(true, std::memory_order_release);
  }
  // Last-gasp evidence at breach time, before the abort unwinds anything:
  // the flight recorder (when installed) captures the ring, phase stacks,
  // and latest census as they were when the limit was hit.
  if (flight::installed()) {
    HSIS_LOG_WARN("obs.abort", "abort requested",
                  {{"reason", std::string_view(reason)}});
    flight::dump("abort: " + std::string(reason));
  }
}

void clearAbort() {
  std::lock_guard<std::mutex> lock(abortMutex());
  detail::g_abortRequested.store(false, std::memory_order_release);
  abortStore() = AbortInfo{};
}

std::optional<AbortInfo> abortInfo() {
  std::lock_guard<std::mutex> lock(abortMutex());
  if (!detail::g_abortRequested.load(std::memory_order_acquire))
    return std::nullopt;
  return abortStore();
}

void throwAborted() {
  // A task-slot abort on this thread wins over the process flag: it names
  // the request being cancelled, which is the reason the unwind happens.
  if (TaskAbort* slot = detail::t_taskAbort;
      slot != nullptr && slot->requested()) {
    std::optional<AbortInfo> info = slot->info();
    if (info.has_value()) throw AbortedError(info->reason, info->phase);
  }
  std::optional<AbortInfo> info = abortInfo();
  if (!info.has_value()) info = AbortInfo{"abort requested", ""};
  throw AbortedError(info->reason, info->phase);
}

// ------------------------------------------------------- task abort slots

namespace detail {
thread_local TaskAbort* t_taskAbort = nullptr;
}  // namespace detail

void TaskAbort::request(std::string_view reason, std::string_view phase) {
  // The default phase is what the bound thread runs: the newest span of
  // the process may belong to a neighbouring worker.
  std::string where(phase);
  if (phase.empty()) {
    const uint64_t bound = boundThread_.load(std::memory_order_relaxed);
    for (const PhaseStackSnapshot& s : phaseStacks())
      if (s.threadId == bound) where = s.frames.back();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (flag_.load(std::memory_order_relaxed)) return;  // first request wins
    reason_ = std::string(reason);
    phase_ = std::move(where);
    flag_.store(true, std::memory_order_release);
  }
  if (flight::installed()) {
    HSIS_LOG_WARN("obs.abort", "task abort requested",
                  {{"reason", std::string_view(reason)}});
  }
}

void TaskAbort::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  flag_.store(false, std::memory_order_release);
  reason_.clear();
  phase_.clear();
}

std::optional<AbortInfo> TaskAbort::info() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!flag_.load(std::memory_order_acquire)) return std::nullopt;
  return AbortInfo{reason_, phase_};
}

TaskAbort* bindTaskAbort(TaskAbort* slot) {
  if (slot != nullptr)
    slot->boundThread_.store(currentThreadId(), std::memory_order_relaxed);
  return std::exchange(detail::t_taskAbort, slot);
}

// --------------------------------------------------------- process memory

namespace {

/// Parse a "Vm...: N kB" line from /proc/self/status.
uint64_t procStatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  if (!in) return 0;
  std::string line;
  size_t keyLen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, keyLen, key) != 0) continue;
    return static_cast<uint64_t>(
        std::strtoull(line.c_str() + keyLen, nullptr, 10));
  }
  return 0;
}

}  // namespace

uint64_t currentRssKb() { return procStatusKb("VmRSS:"); }
uint64_t peakRssKb() { return procStatusKb("VmHWM:"); }

// ----------------------------------------------------------------- ticker

namespace {

struct TickEntry {
  uint64_t id;
  uint64_t dueNs;
  detail::TickFn fn;
};

/// The one obs timer thread (see control.hpp). Entries live in a list, so
/// the entry whose callback runs (with the lock dropped) stays put while
/// others come and go. `cv` wakes the thread on a new entry or a stop, and
/// wakes a cancelTick() waiting for the running callback to return.
struct Ticker {
  std::mutex mu;
  std::condition_variable cv;
  std::list<TickEntry> entries;
  uint64_t nextId = 1;
  uint64_t runningId = 0;  ///< entry whose callback runs now; 0 = none
  uint64_t gen = 0;        ///< bumped by stopTickerIfIdle; older threads exit
  std::thread thread;
};

Ticker& ticker() {
  static Ticker* t = new Ticker;  // leaked, see registry.cpp
  return *t;
}

void runTicker(uint64_t gen) {
  setThreadName("obs.ticker");
  Ticker& t = ticker();
  std::unique_lock<std::mutex> lock(t.mu);
  while (gen == t.gen) {
    auto next = std::min_element(t.entries.begin(), t.entries.end(),
                                 [](const TickEntry& a, const TickEntry& b) {
                                   return a.dueNs < b.dueNs;
                                 });
    const uint64_t now = WallTimer::nowNs();
    if (next == t.entries.end()) {
      t.cv.wait(lock);
    } else if (now < next->dueNs) {
      t.cv.wait_for(lock, std::chrono::nanoseconds(next->dueNs - now));
    } else {
      t.runningId = next->id;
      lock.unlock();
      uint64_t due = 0;  // a callback that throws is retired
      try {
        due = next->fn(now);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "obs.ticker: entry retired: %s\n", e.what());
      }
      lock.lock();
      t.runningId = 0;
      next->dueNs = due;
      if (due == 0) t.entries.erase(next);
      t.cv.notify_all();
    }
  }
}

/// Join the thread unless an entry is left (a per-request watchdog keeps
/// it serving); the next scheduleTick() starts a new one.
void stopTickerIfIdle() {
  Ticker& t = ticker();
  std::thread old;
  {
    std::lock_guard<std::mutex> lock(t.mu);
    if (!t.entries.empty()) return;
    ++t.gen;
    old = std::move(t.thread);
  }
  t.cv.notify_all();
  if (old.joinable()) old.join();
}

/// Watchdog RSS limits are read at this one fixed period.
constexpr uint64_t kRssPeriodNs = 20'000'000;

}  // namespace

namespace detail {

uint64_t scheduleTick(uint64_t dueNs, TickFn fn) {
  Ticker& t = ticker();
  std::lock_guard<std::mutex> lock(t.mu);
  t.entries.push_back(TickEntry{t.nextId, dueNs, std::move(fn)});
  if (!t.thread.joinable())
    t.thread = std::thread([gen = t.gen] { runTicker(gen); });
  t.cv.notify_all();
  return t.nextId++;
}

uint64_t periodNs(uint64_t ms) {
  return std::clamp<uint64_t>(ms, 1, 1'000'000'000'000) * 1'000'000;
}

void cancelTick(uint64_t id) {
  if (id == 0) return;
  Ticker& t = ticker();
  std::unique_lock<std::mutex> lock(t.mu);
  t.cv.wait(lock, [&] { return t.runningId != id; });
  t.entries.remove_if([id](const TickEntry& e) { return e.id == id; });
}

}  // namespace detail

// --------------------------------------------------------------- watchdog

struct Watchdog::Impl {
  std::mutex mu;  ///< guards start/stop; the tick callback never takes it
  uint64_t tick = 0;
  std::atomic<bool> fired{false};
  WatchdogOptions opts;
  uint64_t startNs = 0;
  uint64_t wallDueNs = 0;

  /// The earlier of the wall deadline and the next RSS read; 0 = neither.
  [[nodiscard]] uint64_t nextDue(uint64_t now) const {
    uint64_t due = opts.memLimitKb > 0 ? now + kRssPeriodNs : 0;
    if (opts.wallLimitSeconds > 0 && (due == 0 || wallDueNs < due))
      due = wallDueNs;
    return due;
  }

  /// The tick callback. On a breach it raises the configured flag first
  /// (a target slot cancels just that task, else the whole process
  /// aborts), then records the breach and retires.
  uint64_t check(uint64_t now) {
    char msg[128] = "";
    if (opts.wallLimitSeconds > 0 && now >= wallDueNs) {
      std::snprintf(msg, sizeof msg,
                    "wall-clock limit %gs exceeded (%.2fs elapsed)",
                    opts.wallLimitSeconds,
                    static_cast<double>(now - startNs) * 1e-9);
    } else if (opts.memLimitKb > 0) {
      uint64_t rss = opts.useCurrentRss ? currentRssKb() : peakRssKb();
      if (rss > opts.memLimitKb)
        std::snprintf(msg, sizeof msg, "memory limit %s exceeded (%s %s)",
                      formatMb(opts.memLimitKb).c_str(),
                      opts.useCurrentRss ? "RSS" : "peak RSS",
                      formatMb(rss).c_str());
    }
    if (msg[0] == '\0') return nextDue(now);
    if (opts.target != nullptr) {
      opts.target->request(msg);
    } else {
      requestAbort(msg);
    }
    fired.store(true, std::memory_order_release);
    return 0;
  }
};

Watchdog::Watchdog() : impl_(std::make_unique<Impl>()) {}

Watchdog::~Watchdog() { stop(); }

Watchdog& Watchdog::instance() {
  // Leaked like the registry: the process-level watchdog may be observed
  // by atexit exporters, so it must not die in static destruction.
  static Watchdog* w = new Watchdog;
  return *w;
}

void Watchdog::start(WatchdogOptions options) {
  stop();  // fences any previous arming — no state carries over
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  im.opts = options;
  im.fired.store(false, std::memory_order_relaxed);
  im.startNs = WallTimer::nowNs();
  // Clamped to ~30 years so any limit is a deadline the ticker can wait for.
  if (options.wallLimitSeconds > 0)
    im.wallDueNs = im.startNs + static_cast<uint64_t>(std::min(
                                    options.wallLimitSeconds * 1e9, 1e18));
  if (const uint64_t due = im.nextDue(im.startNs); due != 0)
    im.tick = detail::scheduleTick(
        due, [&im](uint64_t now) { return im.check(now); });
}

void Watchdog::stop() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  detail::cancelTick(std::exchange(im.tick, 0));
}

bool Watchdog::running() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  return im.tick != 0 && !im.fired.load(std::memory_order_acquire);
}

bool Watchdog::fired() const {
  return impl_->fired.load(std::memory_order_acquire);
}

// -------------------------------------------------------------- CLI flags

namespace {

/// Remove argv[i..i+n) and shift the rest down (argv stays NULL-terminated).
void eraseArgs(int& argc, char** argv, int i, int n) {
  for (int j = i; j + n <= argc; ++j) argv[j] = argv[j + n];
  argc -= n;
  argv[argc] = nullptr;
}

}  // namespace

ObsCliOptions stripObsCliFlags(int& argc, char** argv) {
  ObsCliOptions opts;
  for (int i = 1; i < argc;) {
    const char* a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (std::strcmp(a, "--stats-json") == 0 && hasValue) {
      opts.statsJsonPath = argv[i + 1];
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--timeout-s") == 0 && hasValue) {
      opts.timeoutSeconds = flagNumber<double>(a, argv[i + 1]);
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--mem-limit-mb") == 0 && hasValue) {
      opts.memLimitMb = flagNumber<uint64_t>(a, argv[i + 1]);
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--profile") == 0) {
      opts.profile = true;
      eraseArgs(argc, argv, i, 1);
    } else if (std::strcmp(a, "--profile-out") == 0 && hasValue) {
      opts.profile = true;
      opts.profileBasePath = argv[i + 1];
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--profile-interval-ms") == 0 && hasValue) {
      opts.profile = true;
      opts.profileIntervalMs = flagNumber<uint64_t>(a, argv[i + 1]);
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--log-level") == 0 && hasValue) {
      opts.logLevel = argv[i + 1];
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--log-file") == 0 && hasValue) {
      opts.logFile = argv[i + 1];
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--ledger") == 0 && hasValue) {
      opts.ledgerPath = argv[i + 1];
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--flight-dir") == 0 && hasValue) {
      opts.flightDir = argv[i + 1];
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--cov-json") == 0 && hasValue) {
      opts.covJsonPath = argv[i + 1];
      eraseArgs(argc, argv, i, 2);
    } else {
      ++i;
    }
  }
  return opts;
}

// ----------------------------------------------------------- exit exporters
//
// One atexit hook owns every exit-time artifact, in a fixed order (the old
// scheme of per-artifact atexit registrations depended on LIFO registration
// order across translation units — see control.hpp for the contract):
//
//   1. stop the ticker         nothing mutates the registry mid-export
//   2. profiler files          read the final census/sample state
//   3. stats snapshot + trace  read the final registry/span state
//   4. ledger record, disarm   records cost, so it goes last
//
// The flight recorder is deliberately absent: it fires at crash/abort time.

namespace {

struct ExitState {
  std::mutex mu;
  std::atomic<bool> ran{false};
  bool registered = false;
  bool profile = false;
  std::string profileBase;
  std::string statsJsonPath;  ///< exporter-owned --stats-json dump
  std::string ledgerPath;     ///< "" = ledger disabled for this process
  bool processRecord = false; ///< append `pending` at exit (not ownLedger)
  bool resultSet = false;     ///< driver called noteRunResult
  ledger::Record pending;
  std::string driverName;
  uint64_t startNs = 0;
};

ExitState& exitState() {
  static ExitState* st = new ExitState;  // leaked, see registry.cpp
  return *st;
}

void writeStatsSnapshot(const std::string& path) {
  Snapshot snap = snapshot();
  {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
      return;
    }
    out << toJson(snap);
  }
  std::ofstream trace(path + ".trace.json");
  if (trace) trace << toChromeTrace(snap);
}

void runExitExporters() {
  ExitState& st = exitState();
  if (st.ran.exchange(true)) return;
  stopObsThreads();
  std::lock_guard<std::mutex> lock(st.mu);
  if (st.profile) prof::writeProfileFiles(st.profileBase);
  if (!st.statsJsonPath.empty()) writeStatsSnapshot(st.statsJsonPath);
  if (st.processRecord && !st.ledgerPath.empty()) {
    ledger::Record rec = st.pending;
    if (!st.resultSet) {
      if (std::optional<AbortInfo> abort = abortInfo()) {
        rec.result = "aborted";
        rec.detail = abort->reason;
      }
    }
    rec.wallSeconds =
        static_cast<double>(WallTimer::nowNs() - st.startNs) * 1e-9;
    rec.peakRssKb = peakRssKb();
    ledger::append(st.ledgerPath, rec);
  }
  ledger::disarmCrashRecord();
}

}  // namespace

void applyObsCliOptions(const ObsCliOptions& options) {
  setThreadName("main");
  ExitState& st = exitState();
  if (!options.logLevel.empty()) {
    log::setLevel(log::parseLevel(options.logLevel));
    // An explicit level is a request to SEE the events, so attach the
    // human sink; the default (ring-only) keeps driver stdout/stderr clean.
    log::setHumanSink(stderr);
  }
  if (!options.logFile.empty()) log::openJsonlSink(options.logFile);
  std::string flightDir = options.flightDir;
  if (flightDir.empty()) {
    const char* env = std::getenv("HSIS_FLIGHT_DIR");
    if (env != nullptr) flightDir = env;
  }
  if (!flightDir.empty()) {
    std::lock_guard<std::mutex> lock(st.mu);
    flight::install(flightDir, st.driverName);
  }
  Watchdog::instance().start({.wallLimitSeconds = options.timeoutSeconds,
                              .memLimitKb = options.memLimitMb * 1024});
  if (options.profile) {
    const std::string base = options.profileBasePath.empty()
                                 ? std::string("hsis-prof")
                                 : options.profileBasePath;
    {
      std::lock_guard<std::mutex> lock(st.mu);
      st.profile = true;
      st.profileBase = base;
    }
    prof::ProfOptions po;
    if (options.profileIntervalMs > 0) po.intervalMs = options.profileIntervalMs;
    // Write-through spill: even a SIGKILLed run leaves the census series.
    po.jsonlPath = base + ".census.jsonl";
    prof::Profiler::instance().start(po);
  }
  {
    std::lock_guard<std::mutex> lock(st.mu);
    if (!st.registered) {
      st.registered = true;
      std::atexit(runExitExporters);
    }
  }
}

void stopObsThreads() {
  Watchdog::instance().stop();
  prof::Profiler::instance().stop();
  stopTickerIfIdle();
}

// ------------------------------------------------------------ driver setup

std::string gitSha() {
  if (const char* env = std::getenv("HSIS_GIT_SHA"); env && *env) return env;
  // The short commit id, "-dirty" when tracked files differ from it. Tags
  // are excluded so the id is always a bare hash.
  std::string sha;
  if (std::FILE* p = ::popen(
          "git describe --always --dirty --exclude='*' 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
      sha = buf;
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    }
    ::pclose(p);
  }
  return sha.empty() ? "unknown" : sha;
}

ObsCliOptions initDriverObs(int& argc, char** argv,
                            const DriverObsInit& init) {
  ObsCliOptions opts;
  try {
    opts = stripObsCliFlags(argc, argv);
  } catch (const std::invalid_argument& e) {
    // A malformed flag value is a usage error, reported before anything
    // is armed.
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
  // An exporter-owned snapshot path is opened once here, so an unwritable
  // one is a usage error before any work, not a note at exit. Appending
  // leaves the file as it was: a run killed before exit leaves no empty
  // snapshot behind.
  if (const std::string& path = opts.statsJsonPath;
      !init.ownStatsJson && !path.empty()) {
    const bool existed = std::filesystem::exists(path);
    if (!std::ofstream(path, std::ios::app)) {
      std::fprintf(stderr, "error: --stats-json: cannot write %s\n",
                   path.c_str());
      std::exit(2);
    }
    if (!existed) std::filesystem::remove(path);
  }
  ExitState& st = exitState();
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.startNs = WallTimer::nowNs();
    st.driverName = init.driverName;
    if (!init.ownStatsJson) st.statsJsonPath = opts.statsJsonPath;
    st.ledgerPath = ledger::resolvePath(opts.ledgerPath);

    ledger::Record r;
    r.runId = ledger::runId();
    r.time = ledger::timestampUtc();
    r.driver = init.driverName;
    r.result = "completed";
    r.gitSha = gitSha();
    r.obsEnabled = kEnabled;
    // The post-strip argv is the driver-specific configuration.
    for (int i = 1; i < argc; ++i) {
      if (i > 1) r.config += ' ';
      r.config += argv[i];
    }
    st.pending = r;
    st.processRecord = !init.ownLedger;
    st.resultSet = false;
    // Arm the crash record even for ownLedger drivers: a crash forfeits
    // their per-case records, so the process-level "crashed" line is the
    // only trace left.
    if (!st.ledgerPath.empty()) ledger::armCrashRecord(st.ledgerPath, r);
  }
  applyObsCliOptions(opts);
  return opts;
}

std::string activeLedgerPath() {
  ExitState& st = exitState();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.ledgerPath;
}

ledger::Record baseLedgerRecord() {
  ExitState& st = exitState();
  std::lock_guard<std::mutex> lock(st.mu);
  ledger::Record r = st.pending;
  r.subject.clear();
  r.result = "completed";
  r.detail.clear();
  r.digest.clear();
  return r;
}

void noteRunSubject(std::string_view subject) {
  ExitState& st = exitState();
  std::lock_guard<std::mutex> lock(st.mu);
  st.pending.subject = std::string(subject);
}

void noteRunResult(std::string_view result, std::string_view detail,
                   std::string_view digest) {
  ExitState& st = exitState();
  std::lock_guard<std::mutex> lock(st.mu);
  st.pending.result = std::string(result);
  st.pending.detail = std::string(detail);
  st.pending.digest = std::string(digest);
  st.resultSet = true;
}

}  // namespace hsis::obs
