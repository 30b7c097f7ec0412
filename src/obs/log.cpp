// Structured logger (leveled events -> ring + JSONL/human sinks) and the
// crash-safe flight recorder. See log.hpp for the design; the signal path
// at the bottom of this file touches only pre-serialized buffers with
// async-signal-safe calls.
#include "obs/log.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "obs/control.hpp"
#include "obs/jsonlite.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "obs/tracectx.hpp"

namespace hsis::obs::log {

// ----------------------------------------------------------------- levels

namespace detail {
std::atomic<int> g_level{static_cast<int>(Level::Info)};
}  // namespace detail

std::string_view levelName(Level level) noexcept {
  switch (level) {
    case Level::Trace: return "trace";
    case Level::Debug: return "debug";
    case Level::Info: return "info";
    case Level::Warn: return "warn";
    case Level::Error: return "error";
    case Level::Off: return "off";
  }
  return "info";
}

Level parseLevel(std::string_view name) noexcept {
  for (Level l : {Level::Trace, Level::Debug, Level::Info, Level::Warn,
                  Level::Error, Level::Off}) {
    if (name == levelName(l)) return l;
  }
  return Level::Info;
}

void setLevel(Level level) noexcept {
  detail::g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

Level level() noexcept {
  return static_cast<Level>(detail::g_level.load(std::memory_order_relaxed));
}

// -------------------------------------------------------------- rendering

namespace {

/// Logger epoch: the first event's timestamp anchors the human sink's
/// relative seconds.
uint64_t epochNs() {
  static const uint64_t epoch = WallTimer::nowNs();
  return epoch;
}

// ------------------------------------------------------------------- ring
//
// Fixed slots written lock-free: a writer claims an index with one
// fetch_add, invalidates the slot (len = 0), copies the rendered line, and
// publishes the length with release. The crash handler reads lengths with
// acquire and write()s only slots that are whole. A torn slot (writer
// preempted mid-copy on another thread at crash time) stays invisible.

struct RingSlot {
  std::atomic<uint32_t> len{0};
  char data[log::kRingSlotBytes];
};

RingSlot g_ring[log::kRingSlots];
std::atomic<uint64_t> g_ringCursor{0};  // total accepted events

// ------------------------------------------------------------------ sinks

struct Sinks {
  std::mutex mu;
  std::ofstream jsonl;
  std::string jsonlPath;
  std::FILE* human = nullptr;
};

Sinks& sinks() {
  static Sinks* s = new Sinks;  // leaked, see registry.cpp
  return *s;
}

}  // namespace

void openJsonlSink(const std::string& path) {
  Sinks& s = sinks();
  std::lock_guard<std::mutex> lock(s.mu);
  s.jsonl.close();
  s.jsonlPath.clear();
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::path p(path);
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), ec);
  bool fresh = !std::filesystem::exists(p, ec) ||
               std::filesystem::file_size(p, ec) == 0;
  s.jsonl.open(path, std::ios::app);
  if (!s.jsonl) {
    std::fprintf(stderr, "log: cannot write %s\n", path.c_str());
    return;
  }
  s.jsonlPath = path;
  if (fresh) {
    s.jsonl << "{\"schema\": \"hsis-log-v1\", \"kind\": \"header\", "
               "\"enabled\": "
            << (kEnabled ? "true" : "false") << ", \"pid\": " << ::getpid()
            << "}\n";
  }
}

void setHumanSink(std::FILE* f) {
  Sinks& s = sinks();
  std::lock_guard<std::mutex> lock(s.mu);
  s.human = f;
}

void closeSinks() {
  Sinks& s = sinks();
  std::lock_guard<std::mutex> lock(s.mu);
  s.jsonl.close();
  s.jsonlPath.clear();
  s.human = nullptr;
}

// ------------------------------------------------------------------ record

void event(Level level, std::string_view component, std::string_view message,
           std::initializer_list<Field> fields) {
  if (!enabled(level)) return;
  // Epoch first: it latches on the first call, so sampling the clock before
  // it would put the first event a hair before its own epoch and wrap the
  // unsigned elapsed-seconds below.
  const uint64_t epoch = epochNs();
  const uint64_t tNs = WallTimer::nowNs();
  thread_local uint64_t tseq = 0;
  ++tseq;
  const uint64_t tid = currentThreadId();
  const uint64_t trace = currentTraceId();

  // One rendering serves the ring and both sinks. The head (everything
  // up to and including "msg") is shared with the ring's stand-in line.
  auto head = [&](std::string& out, std::string_view msg) {
    jsonlite::Writer w(out);
    w.beginObject().key("kind").value("event");
    w.key("lvl").value(levelName(level));
    w.key("t_ns").value(tNs).key("tid").value(tid).key("tseq").value(tseq);
    if (trace != 0) w.key("trace").value(traceIdHex(trace));
    w.key("comp").value(component).key("msg").value(msg);
    return w;
  };
  std::string line;
  line.reserve(192);
  jsonlite::Writer w = head(line, message);
  if (fields.size() != 0) {
    w.key("fields").beginObject();
    for (const Field& f : fields) {
      w.key(f.key);
      switch (f.kind) {
        case Field::Kind::I64: w.value(f.i); break;
        case Field::Kind::U64: w.value(f.u); break;
        case Field::Kind::F64: w.value(f.d); break;
        case Field::Kind::Bool: w.value(f.u != 0); break;
        case Field::Kind::Str: w.value(f.s); break;
      }
    }
    w.endObject();
  }
  w.endObject();

  // Ring: claim a slot, invalidate, copy, publish. Lines that do not fit
  // are replaced by a short valid stand-in so the crash dump never carries
  // a torn JSON document.
  {
    std::string ringLine;
    const std::string* src = &line;
    if (line.size() > kRingSlotBytes) {
      jsonlite::Writer r = head(ringLine, message.substr(0, 128));
      r.key("truncated").value(true).endObject();
      src = &ringLine;
    }
    const uint64_t idx =
        g_ringCursor.fetch_add(1, std::memory_order_relaxed) % kRingSlots;
    RingSlot& slot = g_ring[idx];
    slot.len.store(0, std::memory_order_release);
    const size_t n = src->size() < kRingSlotBytes ? src->size() : kRingSlotBytes;
    std::memcpy(slot.data, src->data(), n);
    slot.len.store(static_cast<uint32_t>(n), std::memory_order_release);
  }

  Sinks& s = sinks();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.jsonl.is_open()) {
    s.jsonl << line << '\n';
    s.jsonl.flush();
  }
  if (s.human != nullptr) {
    std::string human;
    human.reserve(128);
    human += "[hsis ";
    human += levelName(level);
    char t[32];
    std::snprintf(t, sizeof t, " +%.3fs ",
                  static_cast<double>(tNs - epoch) * 1e-9);
    human += t;
    human += component;
    human += "] ";
    human += message;
    for (const Field& f : fields) {
      human += ' ';
      human += f.key;
      human += '=';
      switch (f.kind) {
        case Field::Kind::I64: human += std::to_string(f.i); break;
        case Field::Kind::U64: human += std::to_string(f.u); break;
        case Field::Kind::F64: {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%g", f.d);
          human += buf;
          break;
        }
        case Field::Kind::Bool: human += f.u ? "true" : "false"; break;
        case Field::Kind::Str: human += f.s; break;
      }
    }
    std::fprintf(s.human, "%s\n", human.c_str());
  }
}

// -------------------------------------------------------------- ring reads

std::vector<std::string> ringLines() {
  std::vector<std::string> out;
  const uint64_t total = g_ringCursor.load(std::memory_order_acquire);
  const uint64_t count = total < kRingSlots ? total : kRingSlots;
  const uint64_t first = total - count;
  out.reserve(count);
  for (uint64_t i = first; i < total; ++i) {
    RingSlot& slot = g_ring[i % kRingSlots];
    uint32_t n = slot.len.load(std::memory_order_acquire);
    if (n == 0 || n > kRingSlotBytes) continue;
    std::string line(slot.data, n);
    // A writer may have recycled the slot mid-copy; only keep lines whose
    // length is still the one we read.
    if (slot.len.load(std::memory_order_acquire) == n)
      out.push_back(std::move(line));
  }
  return out;
}

void clearRing() {
  for (RingSlot& slot : g_ring) slot.len.store(0, std::memory_order_release);
  g_ringCursor.store(0, std::memory_order_release);
}

uint64_t eventCount() {
  return g_ringCursor.load(std::memory_order_relaxed);
}

namespace detail {

const char* ringSlot(uint64_t index, uint32_t* len) noexcept {
  if (index >= kRingSlots) {
    *len = 0;
    return nullptr;
  }
  *len = g_ring[index].len.load(std::memory_order_acquire);
  return g_ring[index].data;
}

}  // namespace detail

}  // namespace hsis::obs::log

// --------------------------------------------------------- flight recorder

namespace hsis::obs::flight {

namespace {

/// Double-buffered pre-rendered block: writers render into the inactive
/// half (serialized by pubMu; publish never runs in signal context) and
/// flip; the signal handler copies whichever half is published. Two
/// publishes during that copy would rewrite the half it reads, so each
/// half has a sequence count, odd while it is rewritten, and the handler
/// writes its copy only when the count did not move (detail::copyIfStable).
/// A dump from normal context holds pubMu instead, so its copy is always
/// stable. `active == -1` means never published.
struct PreRendered {
  static constexpr size_t kCap = 16384;
  char buf[2][kCap];
  std::atomic<uint32_t> len[2]{};
  std::atomic<uint32_t> seq[2]{};
  std::atomic<int> active{-1};
  std::mutex pubMu;

  /// Render and swap in under one lock, so concurrent publishers land in
  /// the order they rendered.
  template <typename Render>
  void publish(Render&& render) {
    std::lock_guard<std::mutex> lock(pubMu);
    const std::string s = render();
    int cur = active.load(std::memory_order_relaxed);
    int next = cur == 0 ? 1 : 0;
    size_t n = s.size() < kCap ? s.size() : 0;  // oversized -> drop, stay valid
    const uint32_t count = seq[next].load(std::memory_order_relaxed);
    seq[next].store(count + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    std::memcpy(buf[next], s.data(), n);
    len[next].store(static_cast<uint32_t>(n), std::memory_order_relaxed);
    seq[next].store(count + 2, std::memory_order_release);
    active.store(next, std::memory_order_release);
  }

  /// Copy the published half into `out` (kCap bytes) and return its
  /// length, or 0 when nothing is published or a publish tore the copy.
  size_t copyPublished(char* out) const noexcept {
    const int a = active.load(std::memory_order_acquire);
    if (a < 0) return 0;
    uint32_t n = 0;
    const bool stable = detail::copyIfStable(seq[a], [&] {
      n = len[a].load(std::memory_order_relaxed);
      if (n <= kCap) std::memcpy(out, buf[a], n);
    });
    return stable && n <= kCap ? n : 0;
  }
};

struct FlightState {
  std::atomic<bool> installed{false};
  std::atomic<bool> dumping{false};
  // Pre-rendered at install/identity time. Fixed buffers so the signal
  // path never touches a std::string.
  char path[512];
  char headerPrefix[1024];  // up to but excluding the "reason" value
  size_t headerPrefixLen = 0;
  long pageKb = 4;
  PreRendered phases;
  PreRendered census;
  std::mutex mu;  // guards install/uninstall/identity (cold)
  std::string dir;
  std::string driver;
};

FlightState& state() {
  static FlightState* s = new FlightState;  // leaked, see registry.cpp
  return *s;
}

// ---- async-signal-safe formatting helpers

size_t safeAppend(char* dst, size_t cap, size_t at, const char* s, size_t n) {
  if (at >= cap) return at;
  size_t room = cap - at;
  if (n > room) n = room;
  std::memcpy(dst + at, s, n);
  return at + n;
}

size_t safeAppendStr(char* dst, size_t cap, size_t at, const char* s) {
  return safeAppend(dst, cap, at, s, std::strlen(s));
}

size_t safeAppendU64(char* dst, size_t cap, size_t at, uint64_t v) {
  char tmp[24];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) {
    if (at < cap) dst[at++] = tmp[n - 1 - i];
  }
  return at;
}

/// 16 zero-padded lowercase hex digits (the trace-id wire format), without
/// snprintf — safe in a handler.
size_t safeAppendHex16(char* dst, size_t cap, size_t at, uint64_t v) {
  static const char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    if (at < cap) dst[at++] = kHex[(v >> shift) & 0xf];
  }
  return at;
}

/// Current RSS in KiB via /proc/self/statm (field 2, pages). Only
/// open/read/close — safe in a handler.
uint64_t signalSafeRssKb(long pageKb) {
  int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  char buf[128];
  ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  // skip first field (size), parse second (resident pages)
  char* p = buf;
  while (*p != '\0' && *p != ' ') ++p;
  while (*p == ' ') ++p;
  uint64_t pages = 0;
  while (*p >= '0' && *p <= '9') pages = pages * 10 + (*p++ - '0');
  return pages * static_cast<uint64_t>(pageKb);
}

void writeAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data + off, n - off);
    if (w <= 0) return;
    off += static_cast<size_t>(w);
  }
}

/// The dump writer shared by the signal handler and the normal-context
/// path: open/write/close over pre-serialized buffers only.
void writeDump(const char* reason) {
  FlightState& st = state();
  int fd = ::open(st.path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;

  // Header: pre-rendered prefix + reason + live RSS.
  char head[1400];
  size_t at = 0;
  at = safeAppend(head, sizeof head, at, st.headerPrefix, st.headerPrefixLen);
  // reason is trusted internal text (signal name / watchdog message); strip
  // the two JSON-breaking characters instead of full escaping.
  for (const char* p = reason; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\' || static_cast<unsigned char>(*p) < 0x20)
      continue;
    if (at < sizeof head) head[at++] = *p;
  }
  at = safeAppendStr(head, sizeof head, at, "\", \"rss_kb\": ");
  at = safeAppendU64(head, sizeof head, at, signalSafeRssKb(st.pageKb));
  at = safeAppendStr(head, sizeof head, at, ", \"ring_events_total\": ");
  at = safeAppendU64(head, sizeof head, at, log::eventCount());
  at = safeAppendStr(head, sizeof head, at, "}\n");
  writeAll(fd, head, at);

  // In-flight request traces: one line per bound TraceContext, read from
  // the lock-free active-trace table, so a crash mid-request names the
  // request(s) that were running. Same hex format as the log events'
  // "trace" field.
  for (size_t i = 0; i < trace_detail::kMaxActiveTraces; ++i) {
    uint64_t tid = 0, traceId = 0;
    if (!trace_detail::activeTraceSlot(i, &tid, &traceId)) continue;
    char line[128];
    size_t n = 0;
    n = safeAppendStr(line, sizeof line, n,
                      "{\"kind\": \"active_trace\", \"tid\": ");
    n = safeAppendU64(line, sizeof line, n, tid);
    n = safeAppendStr(line, sizeof line, n, ", \"trace\": \"");
    n = safeAppendHex16(line, sizeof line, n, traceId);
    n = safeAppendStr(line, sizeof line, n, "\"}\n");
    writeAll(fd, line, n);
  }

  // Phase stacks, then census (each a pre-rendered, newline-terminated
  // block), each copied out first and skipped when a publish tore it.
  char block[PreRendered::kCap];
  for (const PreRendered* pr : {&st.phases, &st.census}) {
    const size_t n = pr->copyPublished(block);
    if (n > 0) writeAll(fd, block, n);
  }

  // The event ring, oldest slot first, via the signal-safe raw accessor
  // (the public copy API allocates). Slots being rewritten at crash time
  // read len == 0 and are skipped.
  const uint64_t cursor = log::eventCount();
  const uint64_t total =
      cursor < log::kRingSlots ? cursor : log::kRingSlots;
  for (uint64_t i = cursor - total; i < cursor; ++i) {
    uint32_t n = 0;
    const char* data = log::detail::ringSlot(i % log::kRingSlots, &n);
    if (data == nullptr || n == 0 || n > log::kRingSlotBytes) continue;
    writeAll(fd, data, n);
    writeAll(fd, "\n", 1);
  }
  ::close(fd);
}

void handleSignal(int sig) {
  FlightState& st = state();
  // One dump per process; a fault inside the dump falls through to the
  // default action immediately.
  if (!st.dumping.exchange(true)) {
    const char* name = sig == SIGSEGV   ? "SIGSEGV"
                       : sig == SIGABRT ? "SIGABRT"
                       : sig == SIGBUS  ? "SIGBUS"
                                        : "signal";
    char reason[64];
    size_t at = 0;
    at = safeAppendStr(reason, sizeof reason - 1, at, "crash: ");
    at = safeAppendStr(reason, sizeof reason - 1, at, name);
    reason[at] = '\0';
    writeDump(reason);
    ledger::detail::writeArmedCrashRecord(name);
  }
  // SA_RESETHAND restored the default handler; re-deliver so the process
  // dies with the original signal status (death tests assert on it).
  ::raise(sig);
}

}  // namespace

void install(const std::string& dir, const std::string& driver) {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  st.dir = dir;
  if (!driver.empty()) st.driver = driver;
  std::string path =
      (std::filesystem::path(dir) /
       ("hsis-flight-" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  std::snprintf(st.path, sizeof st.path, "%s", path.c_str());
  st.pageKb = ::sysconf(_SC_PAGESIZE) / 1024;
  if (st.pageKb <= 0) st.pageKb = 4;

  // Pre-render the header up to (and including) the opening quote of the
  // "reason" value; writeDump appends the reason, RSS, and closes the
  // object.
  const char* sha = std::getenv("HSIS_GIT_SHA");
  std::string prefix = "{\"schema\": \"hsis-flight-v1\", \"kind\": \"header\"";
  prefix += ", \"pid\": " + std::to_string(::getpid());
  prefix += ", \"obs_enabled\": ";
  prefix += kEnabled ? "true" : "false";
  prefix += ", \"driver\": \"" + st.driver + "\"";
  prefix += ", \"git_sha\": \"" + std::string(sha != nullptr ? sha : "unknown") +
            "\"";
  prefix += ", \"reason\": \"";
  st.headerPrefixLen = prefix.size() < sizeof st.headerPrefix
                           ? prefix.size()
                           : sizeof st.headerPrefix;
  std::memcpy(st.headerPrefix, prefix.data(), st.headerPrefixLen);

  if (!st.installed.exchange(true)) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = handleSignal;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGSEGV, SIGABRT, SIGBUS}) ::sigaction(sig, &sa, nullptr);
  }
  st.dumping.store(false);
}

bool installed() noexcept {
  return state().installed.load(std::memory_order_relaxed);
}

namespace {

// $HSIS_FLIGHT_DIR arms the recorder in ANY binary linking hsis_obs —
// including the unit-test runner, which never goes through the driver
// bootstrap. This is what lets CI collect dumps from a crashed test. A
// later install() (from initDriverObs) re-points the directory and sets
// the driver name.
const bool g_envAutoInstalled = [] {
  const char* dir = std::getenv("HSIS_FLIGHT_DIR");
  if (dir != nullptr && *dir != '\0') install(dir);
  return true;
}();

}  // namespace

std::string dumpPath() {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.installed.load() ? std::string(st.path) : std::string();
}

bool dump(std::string_view reason) {
  FlightState& st = state();
  if (!st.installed.load(std::memory_order_acquire)) return false;
  // Refresh the pre-rendered phase stacks from normal context so the dump
  // reflects "now" even if no span moved since the last publish.
  detail::publishPhaseStacks();
  std::string r(reason);
  std::scoped_lock lock(st.phases.pubMu, st.census.pubMu);
  writeDump(r.c_str());
  return true;
}

void uninstall() {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  if (st.installed.exchange(false)) {
    for (int sig : {SIGSEGV, SIGABRT, SIGBUS}) ::signal(sig, SIG_DFL);
  }
  st.dir.clear();
  st.path[0] = '\0';
}

namespace detail {

void publishPhaseStacks() {
  state().phases.publish([] {
    std::string block;
    for (const PhaseStackSnapshot& s : phaseStacks()) {
      block += "{\"kind\": \"phase_stack\", \"tid\": " +
               std::to_string(s.threadId) + ", \"frames\": \"" +
               s.folded() + "\"}\n";
    }
    return block;
  });
}

void publishCensusLine(const std::string& line) {
  state().census.publish([&line] { return line; });
}

}  // namespace detail

}  // namespace hsis::obs::flight
