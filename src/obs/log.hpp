// hsis::obs::log — the structured event log, and hsis::obs::flight — the
// crash-safe flight recorder built on top of it.
//
// LOGGER. Events are leveled (trace/debug/info/warn/error), carry a dotted
// component name (same convention as metrics: `bdd.gc`, `fsm.reach`), a
// message, and typed key-value fields. Every event gets a per-thread
// sequence number and a monotonic timestamp at record time. Each accepted
// event is rendered ONCE to a JSONL line (schema `hsis-log-v1`) and then
// fanned out to up to three places:
//
//   1. the in-memory RING — a fixed set of lock-free slots holding the most
//      recent rendered lines. Always on; this is what the flight recorder
//      dumps after a crash.
//   2. the JSONL sink — a file opened by `--log-file` (append).
//   3. the human sink — `[hsis info +1.234s bdd.gc] msg k=v` lines on a
//      FILE*, enabled when `--log-level` is given explicitly.
//
// The hot path when a level is filtered out is one relaxed atomic load
// (`enabled()`); call sites go through the HSIS_LOG_* macros so the field
// expressions are never evaluated for a filtered event. Under
// HSIS_OBS_DISABLE `enabled()` is constexpr false and every call site
// folds away entirely.
//
// FLIGHT RECORDER. `flight::install(dir)` registers SIGSEGV/SIGABRT/SIGBUS
// handlers (and arms the watchdog-abort path, see control.cpp). On a crash
// the handler writes `DIR/hsis-flight-<pid>.jsonl` — schema
// `hsis-flight-v1` — using ONLY async-signal-safe calls (open/write/close)
// over PRE-SERIALIZED buffers:
//
//   header line    rendered at install time (pid, argv, git sha) plus the
//                  crash reason / signal and the current RSS, formatted by
//                  a tiny signal-safe integer writer;
//   phase_stack    re-rendered into a double buffer on every span
//                  start/end while the recorder is installed (trace.cpp);
//                  the handler copies the published half out and skips it
//                  when a concurrent publish tore the copy;
//   census         re-rendered on every BddCensus publication (prof.cpp);
//   event lines    the logger ring, newest-overwrites-oldest.
//
// A watchdog or user abort (`requestAbort`) dumps the same file from
// normal context. Under HSIS_OBS_DISABLE spans and log events are compiled
// out, so the dump degrades to a valid header(+census) document — run
// identity is control flow, not measurement, and stays live.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace hsis::obs::log {

// ----------------------------------------------------------------- levels

enum class Level : int { Trace = 0, Debug, Info, Warn, Error, Off };

/// "trace"/"debug"/"info"/"warn"/"error"/"off".
std::string_view levelName(Level level) noexcept;
/// Parse a level name (case-sensitive, as printed). Returns Info on junk.
Level parseLevel(std::string_view name) noexcept;

namespace detail {
extern std::atomic<int> g_level;  // default Info
}  // namespace detail

#if !defined(HSIS_OBS_DISABLE)
/// Hot-path filter: one relaxed load.
inline bool enabled(Level level) noexcept {
  return static_cast<int>(level) >=
         detail::g_level.load(std::memory_order_relaxed);
}
#else
inline constexpr bool enabled(Level) noexcept { return false; }
#endif

void setLevel(Level level) noexcept;
[[nodiscard]] Level level() noexcept;

// ----------------------------------------------------------------- fields

/// One typed key-value pair. The constructors cover the integer spellings
/// call sites actually use so brace-init never hits an ambiguity.
struct Field {
  enum class Kind { I64, U64, F64, Bool, Str };
  std::string_view key;
  Kind kind;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0.0;
  std::string_view s;

  // Fundamental types, not the fixed-width aliases: int64_t/uint64_t map
  // onto (unsigned) long or long long depending on the ABI, so spelling the
  // aliases here would collide with one of these.
  Field(std::string_view k, int v) : key(k), kind(Kind::I64), i(v) {}
  Field(std::string_view k, long v) : key(k), kind(Kind::I64), i(v) {}
  Field(std::string_view k, long long v) : key(k), kind(Kind::I64), i(v) {}
  Field(std::string_view k, unsigned v) : key(k), kind(Kind::U64), u(v) {}
  Field(std::string_view k, unsigned long v) : key(k), kind(Kind::U64), u(v) {}
  Field(std::string_view k, unsigned long long v)
      : key(k), kind(Kind::U64), u(v) {}
  Field(std::string_view k, double v) : key(k), kind(Kind::F64), d(v) {}
  Field(std::string_view k, bool v) : key(k), kind(Kind::Bool), u(v ? 1 : 0) {}
  Field(std::string_view k, std::string_view v)
      : key(k), kind(Kind::Str), s(v) {}
  Field(std::string_view k, const char* v) : key(k), kind(Kind::Str), s(v) {}
};

// ------------------------------------------------------------------ record

/// Record one event: render the `hsis-log-v1` JSONL line and fan it out to
/// the ring and any open sinks. Call through the HSIS_LOG_* macros so
/// fields are not built for filtered levels. Thread-safe.
void event(Level level, std::string_view component, std::string_view message,
           std::initializer_list<Field> fields = {});

// ------------------------------------------------------------------- sinks

/// Append `hsis-log-v1` JSONL to `path` (a header line is written first on
/// a fresh file). Empty path (or open failure) closes the sink.
void openJsonlSink(const std::string& path);
/// Human-readable one-line records on `f` (nullptr = off). Not owned.
void setHumanSink(std::FILE* f);
/// Close the JSONL sink and detach the human sink.
void closeSinks();

// -------------------------------------------------------------------- ring

/// Number of ring slots and the rendered-line capacity of each. Lines
/// longer than the slot are truncated at a field boundary (the line stays
/// valid JSON).
inline constexpr size_t kRingSlots = 256;
inline constexpr size_t kRingSlotBytes = 512;

/// Copy of the current ring contents (rendered JSONL lines, oldest first).
/// Best effort under concurrent writers; complete when quiescent.
std::vector<std::string> ringLines();
/// Empty the ring (tests, per-run resets).
void clearRing();
/// Total events accepted (recorded to the ring) since process start.
uint64_t eventCount();

namespace detail {
/// Raw slot access for the flight recorder's signal path: no allocation,
/// no locks. Returns the slot's data pointer and stores its published
/// length (0 = empty or mid-write).
const char* ringSlot(uint64_t index, uint32_t* len) noexcept;
}  // namespace detail

}  // namespace hsis::obs::log

// ------------------------------------------------------------- call macros
//
// HSIS_LOG_INFO("bdd.gc", "sweep complete", {{"freed", freed}, {"live", n}});
//
// The guard means field expressions are evaluated only when the level is
// live; under HSIS_OBS_DISABLE `enabled()` is constexpr false and the whole
// statement folds to nothing.

#define HSIS_LOG_AT(lvl, component, ...)                        \
  do {                                                          \
    if (::hsis::obs::log::enabled(lvl))                         \
      ::hsis::obs::log::event(lvl, component, __VA_ARGS__);     \
  } while (0)

#define HSIS_LOG_TRACE(component, ...) \
  HSIS_LOG_AT(::hsis::obs::log::Level::Trace, component, __VA_ARGS__)
#define HSIS_LOG_DEBUG(component, ...) \
  HSIS_LOG_AT(::hsis::obs::log::Level::Debug, component, __VA_ARGS__)
#define HSIS_LOG_INFO(component, ...) \
  HSIS_LOG_AT(::hsis::obs::log::Level::Info, component, __VA_ARGS__)
#define HSIS_LOG_WARN(component, ...) \
  HSIS_LOG_AT(::hsis::obs::log::Level::Warn, component, __VA_ARGS__)
#define HSIS_LOG_ERROR(component, ...) \
  HSIS_LOG_AT(::hsis::obs::log::Level::Error, component, __VA_ARGS__)

// --------------------------------------------------------- flight recorder

namespace hsis::obs::flight {

/// Install the crash handlers (SIGSEGV, SIGABRT, SIGBUS) and pre-render
/// the run-identity header. Dumps land in `dir` (created if missing) as
/// `hsis-flight-<pid>.jsonl`. Idempotent; a second call re-points the
/// directory. `driver` names the process in the header ("" keeps the
/// previous name). Live under HSIS_OBS_DISABLE. Setting $HSIS_FLIGHT_DIR
/// auto-installs at load time in any binary linking hsis_obs (CI uses
/// this to collect dumps from crashed unit tests).
void install(const std::string& dir, const std::string& driver = "");
/// One relaxed load; also gates the re-render work at the publish sites.
[[nodiscard]] bool installed() noexcept;
/// The dump path this process would write ("" before install).
[[nodiscard]] std::string dumpPath();

/// Write the dump from NORMAL context (watchdog breach, user abort, or a
/// test). Returns false when the recorder is not installed or the file
/// cannot be written. Reuses the same pre-serialized buffers as the signal
/// path so both produce the same document.
bool dump(std::string_view reason);

/// Uninstall handlers and forget the directory (tests). Previously written
/// dump files are left on disk.
void uninstall();

namespace detail {
/// Re-render obs::phaseStacks() as `{"kind": "phase_stack", ...}` JSONL
/// lines for the signal path, under the publish lock, so the block last
/// published is never older than the last span change.
void publishPhaseStacks();
/// Same for the single `{"kind": "census", ...}` line (prof.cpp).
void publishCensusLine(const std::string& line);

/// Sequence-count read of a pre-rendered block: runs `copy` and returns
/// whether the block stayed stable, i.e. `seq` was even (no publish in
/// progress) before the copy and unchanged after it. A publisher makes
/// `seq` odd while it rewrites the block and even again when done. The
/// signal path copies a block this way and writes the copy only when this
/// returns true, so a block torn by a concurrent publish is skipped.
template <typename Copy>
bool copyIfStable(const std::atomic<uint32_t>& seq, Copy&& copy) noexcept {
  const uint32_t before = seq.load(std::memory_order_acquire);
  if ((before & 1u) != 0) return false;
  copy();
  std::atomic_thread_fence(std::memory_order_acquire);
  return seq.load(std::memory_order_relaxed) == before;
}
}  // namespace detail

}  // namespace hsis::obs::flight
