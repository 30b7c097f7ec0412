// hsis::obs — the observability subsystem: a process-wide metrics registry
// (named counters, gauges, log2-bucketed histograms), a phase tracer
// producing nested timed spans, and snapshot/export APIs (JSON, Chrome
// trace).
//
// Design notes:
//  - The hot path is a single relaxed atomic RMW per event: metric objects
//    are registered once (mutex-protected, cold) and then bumped through a
//    stable reference forever after. Instrumentation is cheap enough to
//    leave on in release builds.
//  - This module depends on no other hsis library, so every layer (bdd,
//    fsm, ctl, lc, hsis) can link it.
//  - Metric names follow `<module>.<thing>[.<aspect>]`, e.g.
//    `bdd.cache.hits`, `fsm.reach.iterations` (see docs/observability.md).
//  - Compiling with -DHSIS_OBS_DISABLE turns every instrumentation call
//    into an inline no-op; the snapshot/export API remains and produces a
//    valid (empty, `"disabled": true`) document, so callers never need
//    their own #ifdefs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hsis::obs {

/// True when instrumentation is compiled in (no HSIS_OBS_DISABLE).
#if defined(HSIS_OBS_DISABLE)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

// ------------------------------------------------------------- snapshots
//
// The snapshot structs are unconditional: a disabled build still exports a
// valid (empty) snapshot, so downstream JSON consumers need no variants.

struct MetricSample {
  enum class Kind { Counter, Gauge, Histogram };
  std::string name;
  Kind kind = Kind::Counter;
  /// Counter value / gauge value (gauge may be negative, stored widened).
  int64_t value = 0;
  /// Histogram only: number of recorded samples and their sum.
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Histogram only: largest recorded value (exact) and approximate
  /// quantiles (the inclusive lower bound of the bucket where the
  /// cumulative count crosses the quantile), so bench reports need no
  /// bucket math downstream.
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  /// Histogram only: (inclusive lower bound, count) per non-empty bucket.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

struct SpanSample {
  std::string name;
  uint64_t id = 0;        ///< unique per span, process-wide
  int64_t parent = -1;    ///< id of enclosing span, -1 for roots
  uint32_t depth = 0;     ///< nesting depth at creation (0 = root)
  uint64_t threadId = 0;
  uint64_t startNs = 0;   ///< monotonic clock, ns
  uint64_t durationNs = 0;
  /// Bound request trace id at span creation (obs/tracectx.hpp), 0 when
  /// the span ran outside any request.
  uint64_t traceId = 0;
};

/// One profiler census tick, reduced to the scalar series the Chrome-trace
/// export renders as counter ("C") tracks alongside the phase spans.
struct CounterPoint {
  uint64_t tNs = 0;  ///< monotonic clock, same epoch as SpanSample::startNs
  uint64_t liveNodes = 0;
  uint64_t allocatedNodes = 0;
  uint64_t rssKb = 0;
  double cacheHitRate = 0.0;  ///< over the sample window
  double deadFraction = 0.0;
};

struct Snapshot {
  std::vector<MetricSample> metrics;  ///< sorted by name
  std::vector<SpanSample> spans;      ///< completed spans, in start order
  uint64_t droppedSpans = 0;          ///< ring-buffer overflow count
  /// Census time series from the sampling profiler (obs/prof), empty when
  /// the profiler never ran. Rendered as Chrome-trace counter events.
  std::vector<CounterPoint> counterPoints;
  /// Threads that registered a name via setThreadName (tid as hashed by the
  /// tracer -> name), sorted by name. Drives the Chrome-trace "M" metadata.
  std::vector<std::pair<uint64_t, std::string>> threadNames;
  /// Cooperative-abort state at snapshot time (see obs/control.hpp): when
  /// a watchdog or caller requested an abort, the exported JSON carries
  /// `"aborted": {reason, phase}` so a killed run still explains itself.
  bool aborted = false;
  std::string abortReason;
  std::string abortPhase;
};

/// Capture the full registry plus the tracer's completed spans.
Snapshot snapshot();

/// Machine-readable export: the `hsis-obs-v1` schema used by the
/// BENCH_*.json trajectory files. Metrics are a flat name->value object;
/// spans are a nested tree with per-phase wall times in milliseconds.
std::string toJson(const Snapshot& snap);

/// chrome://tracing / Perfetto compatible event array.
std::string toChromeTrace(const Snapshot& snap);

/// Convenience: toJson(snapshot()).
std::string snapshotJson();

/// Render a double as a JSON number token. Non-finite values (NaN, ±Inf)
/// come out as `null` — whatever pathological rate a metric produces, the
/// exported document stays valid JSON. Every exporter in this subsystem
/// routes doubles through here.
std::string jsonDouble(double v);

// ------------------------------------------------------------ primitives

#if !defined(HSIS_OBS_DISABLE)

/// Monotonically increasing event count. All operations are relaxed
/// atomics: totals are exact, cross-metric ordering is not guaranteed.
class Counter {
 public:
  void add(uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A point-in-time level (table size, cluster count, depth...).
class Gauge {
 public:
  void set(int64_t x) noexcept { v_.store(x, std::memory_order_relaxed); }
  void add(int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  /// Raise the gauge to `x` if it is below it (high-water mark).
  void updateMax(int64_t x) noexcept {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < x &&
           !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2-bucketed histogram: bucket 0 holds the value 0, bucket b >= 1
/// holds values in [2^(b-1), 2^b). One relaxed RMW per record on the
/// bucket plus count/sum tallies.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // 0, then one per bit width 1..64

  void record(uint64_t v) noexcept {
    buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (cur < v &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Largest value ever recorded (exact, unlike the bucketed quantiles).
  [[nodiscard]] uint64_t maxValue() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t bucketCount(int b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

  /// Which bucket a value lands in.
  static int bucketOf(uint64_t v) noexcept {
    int b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  }
  /// Inclusive lower bound of a bucket.
  static uint64_t bucketLow(int b) noexcept {
    return b == 0 ? 0 : 1ull << (b - 1);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// The process-wide named-metric registry. Registration (the first lookup
/// of a name) takes a mutex; the returned reference is stable for the
/// process lifetime, so call sites cache it and never pay the lock again.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every metric (references stay valid). For tests and for
  /// per-run deltas in drivers.
  void resetAll();

  [[nodiscard]] std::vector<MetricSample> collect() const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Cold-path conveniences; cache the result on hot paths.
inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}
inline void resetAll() { Registry::instance().resetAll(); }

// ---------------------------------------------------------------- tracer

/// Completed-span sink: a fixed-capacity in-memory ring buffer. Spans are
/// appended on destruction (children before parents); when the buffer is
/// full the oldest spans are dropped and counted.
class Tracer {
 public:
  static Tracer& instance();

  /// Default 8192 completed spans; resizing clears the buffer.
  void setCapacity(size_t n);
  [[nodiscard]] std::vector<SpanSample> completed() const;
  [[nodiscard]] uint64_t dropped() const;
  void clear();

 private:
  friend class Span;
  Tracer() = default;
  void emit(SpanSample&& s);
  struct Impl;
  Impl& impl() const;
};

/// Give the calling thread a human-readable name for trace exports
/// (Perfetto `thread_name` metadata). First call per thread wins.
void setThreadName(std::string_view name);
/// All registered (tid, name) pairs, sorted by name.
std::vector<std::pair<uint64_t, std::string>> threadNames();

/// RAII timed span: `obs::Span reach{"fsm.reach"};`. Nesting is tracked
/// per thread; the span records its parent and depth at construction and
/// appends itself to the tracer when destroyed.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Wall time elapsed since construction, in seconds (readable before
  /// the span closes).
  [[nodiscard]] double seconds() const;

 private:
  std::string name_;
  uint64_t id_;
  int64_t parent_;
  uint32_t depth_;
  uint64_t startNs_;
  uint64_t traceId_;
};

#else  // HSIS_OBS_DISABLE -------------------------------------------------

// Every primitive keeps its exact API but compiles to nothing. Reads
// return zero so callers (and tests) behave deterministically.

class Counter {
 public:
  void add(uint64_t = 1) noexcept {}
  [[nodiscard]] uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class Gauge {
 public:
  void set(int64_t) noexcept {}
  void add(int64_t) noexcept {}
  void updateMax(int64_t) noexcept {}
  [[nodiscard]] int64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class Histogram {
 public:
  static constexpr int kBuckets = 65;
  void record(uint64_t) noexcept {}
  [[nodiscard]] uint64_t count() const noexcept { return 0; }
  [[nodiscard]] uint64_t sum() const noexcept { return 0; }
  [[nodiscard]] uint64_t maxValue() const noexcept { return 0; }
  [[nodiscard]] uint64_t bucketCount(int) const noexcept { return 0; }
  void reset() noexcept {}
  static int bucketOf(uint64_t v) noexcept {
    int b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  }
  static uint64_t bucketLow(int b) noexcept {
    return b == 0 ? 0 : 1ull << (b - 1);
  }
};

class Registry {
 public:
  static Registry& instance();
  Counter& counter(std::string_view) { return dummyCounter_; }
  Gauge& gauge(std::string_view) { return dummyGauge_; }
  Histogram& histogram(std::string_view) { return dummyHistogram_; }
  void resetAll() {}
  [[nodiscard]] std::vector<MetricSample> collect() const { return {}; }

 private:
  static Counter dummyCounter_;
  static Gauge dummyGauge_;
  static Histogram dummyHistogram_;
};

inline Counter& counter(std::string_view n) {
  return Registry::instance().counter(n);
}
inline Gauge& gauge(std::string_view n) {
  return Registry::instance().gauge(n);
}
inline Histogram& histogram(std::string_view n) {
  return Registry::instance().histogram(n);
}
inline void resetAll() {}

class Tracer {
 public:
  static Tracer& instance();
  void setCapacity(size_t) {}
  [[nodiscard]] std::vector<SpanSample> completed() const { return {}; }
  [[nodiscard]] uint64_t dropped() const { return 0; }
  void clear() {}
};

inline void setThreadName(std::string_view) {}
inline std::vector<std::pair<uint64_t, std::string>> threadNames() {
  return {};
}

class Span {
 public:
  explicit Span(std::string_view) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] double seconds() const { return 0.0; }
};

#endif  // HSIS_OBS_DISABLE

// ------------------------------------------------------- histogram summary

/// A histogram reduced to its headline numbers, for callers (the serve
/// stats stream) that want quantiles without carrying the bucket vector.
/// Quantiles are bucket lower bounds, the same approximation
/// Registry::collect() exports. A disabled build returns all-zero.
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

HistogramSummary summarizeHistogram(const Histogram& h);

/// Render a summary as a JSON object with the fixed key set
/// {"count", "p50", "p90", "p99", "max"}. An empty histogram (count == 0)
/// has no quantiles, so p50/p90/p99/max render as `null` rather than a
/// misleading 0 — the serve.latency.* rows before the first request, and
/// every row under HSIS_OBS_DISABLE, read as "no data", not "instant".
std::string histogramSummaryJson(const HistogramSummary& s);

// ------------------------------------------------------------ wall clock

/// Plain monotonic stopwatch. NOT instrumentation: it works identically
/// with HSIS_OBS_DISABLE, for callers whose own results (e.g. reported
/// metrics tables) need real time regardless of observability.
class WallTimer {
 public:
  WallTimer() : startNs_(nowNs()) {}
  void restart() { startNs_ = nowNs(); }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(nowNs() - startNs_) * 1e-9;
  }
  [[nodiscard]] uint64_t micros() const { return (nowNs() - startNs_) / 1000; }
  /// Monotonic clock, nanoseconds since an arbitrary epoch.
  static uint64_t nowNs();

 private:
  uint64_t startNs_;
};

/// The calling thread's id as every obs record spells it: span samples,
/// phase stacks, log events and trace contexts all join on this hash of
/// std::thread::id. Live in both build modes.
uint64_t currentThreadId();

}  // namespace hsis::obs
