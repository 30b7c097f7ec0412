// Abort flag, phase stack, RSS probes, heartbeat reporter, resource
// watchdog, and the shared CLI flag handling. Compiled identically in
// enabled and HSIS_OBS_DISABLE builds: cancelling a runaway run is control
// flow, not measurement (see control.hpp).
#include "obs/control.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/jsonlite.hpp"
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (flag_.load(std::memory_order_relaxed)) return;  // first request wins
    reason_ = std::string(reason);
    phase_ = phase.empty() ? currentPhase() : std::string(phase);
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

void bindTaskAbort(TaskAbort* slot) { detail::t_taskAbort = slot; }

TaskAbort* boundTaskAbort() { return detail::t_taskAbort; }

// ----------------------------------------------------------- phase stack

namespace {

struct PhaseEntry {
  uint64_t threadId;
  uint64_t spanId;
  std::string name;
};

struct PhaseStack {
  std::mutex mu;
  // All open spans process-wide in start order (so per-thread frames fall
  // out in nesting order). The back entry is "the most recently started
  // still-open phase", which is the right answer for watchdog/heartbeat
  // reporting; the per-thread grouping is what the sampling profiler folds.
  std::vector<PhaseEntry> active;
};

PhaseStack& phaseStack() {
  static PhaseStack* ps = new PhaseStack;  // leaked, see registry.cpp
  return *ps;
}

/// Re-render every thread's live stack as `{"kind": "phase_stack", ...}`
/// JSONL for the flight recorder's pre-serialized buffer. Caller holds
/// ps.mu, so the rendered block is a consistent cut; publishing under the
/// lock keeps the buffer ordered with the stack mutations.
void publishPhaseLinesLocked(const PhaseStack& ps) {
  // Same grouping as phaseStacks(): one line per thread, frames in start
  // (== nesting) order, rendered in the folded flamegraph form.
  std::vector<uint64_t> tids;
  for (const PhaseEntry& e : ps.active) {
    if (std::find(tids.begin(), tids.end(), e.threadId) == tids.end())
      tids.push_back(e.threadId);
  }
  std::string block;
  for (uint64_t tid : tids) {
    block += "{\"kind\": \"phase_stack\", \"tid\": " + std::to_string(tid) +
             ", \"frames\": \"";
    bool first = true;
    for (const PhaseEntry& e : ps.active) {
      if (e.threadId != tid) continue;
      if (!first) block += ';';
      first = false;
      block += e.name;
    }
    block += "\"}\n";
  }
  flight::detail::publishPhaseLines(block);
}

}  // namespace

namespace detail {

void notePhaseStart(uint64_t threadId, uint64_t spanId, std::string_view name) {
  PhaseStack& ps = phaseStack();
  std::lock_guard<std::mutex> lock(ps.mu);
  ps.active.push_back(PhaseEntry{threadId, spanId, std::string(name)});
  if (flight::detail::wantsPublish()) publishPhaseLinesLocked(ps);
}

void notePhaseEnd(uint64_t threadId, uint64_t spanId) {
  PhaseStack& ps = phaseStack();
  std::lock_guard<std::mutex> lock(ps.mu);
  for (size_t i = ps.active.size(); i-- > 0;) {
    if (ps.active[i].threadId == threadId && ps.active[i].spanId == spanId) {
      ps.active.erase(ps.active.begin() + static_cast<long>(i));
      if (flight::detail::wantsPublish()) publishPhaseLinesLocked(ps);
      return;
    }
  }
}

}  // namespace detail

std::string currentPhase() {
  PhaseStack& ps = phaseStack();
  std::lock_guard<std::mutex> lock(ps.mu);
  return ps.active.empty() ? std::string() : ps.active.back().name;
}

std::string PhaseStackSnapshot::folded() const {
  std::string out;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i != 0) out += ';';
    out += frames[i];
  }
  return out;
}

std::vector<PhaseStackSnapshot> phaseStacks() {
  PhaseStack& ps = phaseStack();
  std::lock_guard<std::mutex> lock(ps.mu);
  // Group by thread, preserving the start order within each thread (spans
  // are strictly scoped per thread, so start order == nesting order).
  std::vector<PhaseStackSnapshot> out;
  for (const PhaseEntry& e : ps.active) {
    PhaseStackSnapshot* snap = nullptr;
    for (PhaseStackSnapshot& s : out) {
      if (s.threadId == e.threadId) {
        snap = &s;
        break;
      }
    }
    if (snap == nullptr) {
      out.push_back(PhaseStackSnapshot{e.threadId, {}});
      snap = &out.back();
    }
    snap->frames.push_back(e.name);
  }
  std::sort(out.begin(), out.end(),
            [](const PhaseStackSnapshot& a, const PhaseStackSnapshot& b) {
              return a.threadId < b.threadId;
            });
  return out;
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

// -------------------------------------------------------------- heartbeat

HeartbeatSource::HeartbeatSource() : startNs_(WallTimer::nowNs()) {}

HeartbeatRecord HeartbeatSource::next() {
  HeartbeatRecord r;
  r.seq = seq_++;
  r.tSeconds = static_cast<double>(WallTimer::nowNs() - startNs_) * 1e-9;
  r.phase = currentPhase();
  r.rssKb = currentRssKb();
  r.liveNodes = gauge("bdd.unique.size").value();
  r.nodesCreated = counter("bdd.nodes.created").value();
  r.cacheLookups = counter("bdd.cache.lookups").value();
  r.cacheHits = counter("bdd.cache.hits").value();
  r.reachIterations = counter("fsm.reach.iterations").value();
  r.frontierNodes = gauge("fsm.reach.frontier.last").value();
  r.hullIterations = counter("lc.hull.iterations").value();

  r.dNodesCreated = r.nodesCreated - lastNodesCreated_;
  r.dReachIterations = r.reachIterations - lastReach_;
  r.dHullIterations = r.hullIterations - lastHull_;
  uint64_t dLookups = r.cacheLookups - lastLookups_;
  uint64_t dHits = r.cacheHits - lastHits_;
  r.cacheHitRate =
      dLookups == 0 ? 0.0
                    : static_cast<double>(dHits) / static_cast<double>(dLookups);

  lastNodesCreated_ = r.nodesCreated;
  lastLookups_ = r.cacheLookups;
  lastHits_ = r.cacheHits;
  lastReach_ = r.reachIterations;
  lastHull_ = r.hullIterations;
  return r;
}

std::string HeartbeatRecord::toTableLine() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "[hsis-hb %llu] t=%.1fs phase=%s rss=%s live=%lld "
                "+nodes=%llu hit=%.1f%% reach=%llu(+%llu) frontier=%lld "
                "hull=%llu(+%llu)",
                static_cast<unsigned long long>(seq), tSeconds,
                phase.empty() ? "-" : phase.c_str(), formatMb(rssKb).c_str(),
                static_cast<long long>(liveNodes),
                static_cast<unsigned long long>(dNodesCreated),
                cacheHitRate * 100.0,
                static_cast<unsigned long long>(reachIterations),
                static_cast<unsigned long long>(dReachIterations),
                static_cast<long long>(frontierNodes),
                static_cast<unsigned long long>(hullIterations),
                static_cast<unsigned long long>(dHullIterations));
  return buf;
}

std::string HeartbeatRecord::toJsonl() const {
  std::string out;
  jsonlite::Writer w(out);
  w.beginObject().key("seq").value(seq).key("t_s").value(tSeconds);
  w.key("phase").value(phase).key("rss_kb").value(rssKb);
  w.key("live_nodes").value(liveNodes);
  w.key("nodes_created").value(nodesCreated);
  w.key("d_nodes").value(dNodesCreated);
  w.key("cache_hit_rate").value(cacheHitRate);
  w.key("reach_iterations").value(reachIterations);
  w.key("d_reach_iterations").value(dReachIterations);
  w.key("frontier_nodes").value(frontierNodes);
  w.key("hull_iterations").value(hullIterations);
  w.key("d_hull_iterations").value(dHullIterations).endObject();
  return out;
}

struct Heartbeat::Impl {
  std::mutex mu;
  std::condition_variable cv;
  bool stopRequested = false;
  bool running = false;
  std::thread worker;
  HeartbeatOptions opts;
};

Heartbeat& Heartbeat::instance() {
  static Heartbeat h;
  return h;
}

Heartbeat::Impl& Heartbeat::impl() const {
  static Impl* impl = new Impl;  // leaked, see registry.cpp
  return *impl;
}

void Heartbeat::start(HeartbeatOptions options) {
  stop();
  Impl& im = impl();
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.opts = std::move(options);
    if (im.opts.intervalMs == 0) im.opts.intervalMs = 1;
    im.stopRequested = false;
    im.running = true;
  }
  im.worker = std::thread([&im] {
    setThreadName("obs.heartbeat");
    HeartbeatSource source;
    std::ofstream jsonl;
    if (!im.opts.jsonlPath.empty())
      jsonl.open(im.opts.jsonlPath, std::ios::app);
    std::unique_lock<std::mutex> lock(im.mu);
    while (!im.cv.wait_for(lock, std::chrono::milliseconds(im.opts.intervalMs),
                           [&im] { return im.stopRequested; })) {
      lock.unlock();
      HeartbeatRecord rec = source.next();
      if (jsonl.is_open()) {
        jsonl << rec.toJsonl() << '\n';
        jsonl.flush();
      } else {
        std::fprintf(stderr, "%s\n", rec.toTableLine().c_str());
      }
      lock.lock();
    }
  });
}

void Heartbeat::stop() {
  Impl& im = impl();
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (!im.running) return;
    im.stopRequested = true;
  }
  im.cv.notify_all();
  if (im.worker.joinable()) im.worker.join();
  std::lock_guard<std::mutex> lock(im.mu);
  im.running = false;
}

bool Heartbeat::running() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.running;
}

// --------------------------------------------------------------- watchdog

struct Watchdog::Impl {
  std::mutex mu;
  std::condition_variable cv;
  bool stopRequested = false;
  bool running = false;
  bool fired = false;
  std::thread worker;
  WatchdogOptions opts;
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
  stop();  // joins any previous arming — no state carries over
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.opts = options;
    if (im.opts.pollMs == 0) im.opts.pollMs = 1;
    im.stopRequested = false;
    im.fired = false;
    im.running = true;
  }
  im.worker = std::thread([&im] {
    setThreadName("obs.watchdog");
    WallTimer timer;  // the budget clock starts at start()
    auto breach = [&im](const char* msg) {
      // Raise the configured flag first, then record the breach. A target
      // slot cancels just that task; otherwise the whole process aborts.
      if (im.opts.target != nullptr) {
        im.opts.target->request(msg);
      } else {
        requestAbort(msg);
      }
      std::lock_guard<std::mutex> lock(im.mu);
      im.fired = true;
      im.running = false;
    };
    std::unique_lock<std::mutex> lock(im.mu);
    while (!im.cv.wait_for(lock, std::chrono::milliseconds(im.opts.pollMs),
                           [&im] { return im.stopRequested; })) {
      const WatchdogOptions& o = im.opts;
      lock.unlock();
      double wall = timer.seconds();
      if (o.wallLimitSeconds > 0 && wall > o.wallLimitSeconds) {
        char msg[128];
        std::snprintf(msg, sizeof msg,
                      "wall-clock limit %gs exceeded (%.2fs elapsed)",
                      o.wallLimitSeconds, wall);
        breach(msg);
        return;
      }
      if (o.memLimitKb > 0) {
        uint64_t rss = o.useCurrentRss ? currentRssKb() : peakRssKb();
        if (rss > o.memLimitKb) {
          char msg[128];
          std::snprintf(msg, sizeof msg, "memory limit %s exceeded (%s %s)",
                        formatMb(o.memLimitKb).c_str(),
                        o.useCurrentRss ? "RSS" : "peak RSS",
                        formatMb(rss).c_str());
          breach(msg);
          return;
        }
      }
      lock.lock();
    }
  });
}

void Watchdog::stop() {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.stopRequested = true;
  }
  im.cv.notify_all();
  // Join even when the worker already fired and parked (running == false
  // but the thread object is still joinable) — the old early-return on
  // !running left a fired watchdog's thread unjoined across re-arms.
  if (im.worker.joinable()) im.worker.join();
  std::lock_guard<std::mutex> lock(im.mu);
  im.running = false;
}

bool Watchdog::running() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  return im.running;
}

bool Watchdog::fired() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  return im.fired;
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
    } else if (std::strcmp(a, "--heartbeat") == 0 && hasValue) {
      opts.heartbeatMs =
          static_cast<uint64_t>(std::strtoull(argv[i + 1], nullptr, 10));
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--heartbeat-file") == 0 && hasValue) {
      opts.heartbeatFile = argv[i + 1];
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--timeout-s") == 0 && hasValue) {
      opts.timeoutSeconds = std::strtod(argv[i + 1], nullptr);
      eraseArgs(argc, argv, i, 2);
    } else if (std::strcmp(a, "--mem-limit-mb") == 0 && hasValue) {
      opts.memLimitMb =
          static_cast<uint64_t>(std::strtoull(argv[i + 1], nullptr, 10));
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
      opts.profileIntervalMs =
          static_cast<uint64_t>(std::strtoull(argv[i + 1], nullptr, 10));
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
//   1. stop reporter threads   nothing mutates the registry mid-export
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
  if (options.heartbeatMs > 0 || !options.heartbeatFile.empty()) {
    HeartbeatOptions ho;
    ho.intervalMs = options.heartbeatMs > 0 ? options.heartbeatMs : 1000;
    ho.jsonlPath = options.heartbeatFile;
    Heartbeat::instance().start(ho);
  }
  if (options.timeoutSeconds > 0 || options.memLimitMb > 0) {
    WatchdogOptions wo;
    wo.wallLimitSeconds = options.timeoutSeconds;
    wo.memLimitKb = options.memLimitMb * 1024;
    Watchdog::instance().start(wo);
  }
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
  Heartbeat::instance().stop();
  Watchdog::instance().stop();
  prof::Profiler::instance().stop();
}

// ------------------------------------------------------------ driver setup

std::string gitSha() {
  if (const char* env = std::getenv("HSIS_GIT_SHA"); env && *env) return env;
  std::string sha;
  if (std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
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
  ObsCliOptions opts = stripObsCliFlags(argc, argv);
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
