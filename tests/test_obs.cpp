// Tests for hsis::obs — metric semantics, span nesting, JSON export, and
// thread safety. Every test passes in both build modes: assertions on live
// values are gated on obs::kEnabled, while API-shape and export-validity
// assertions run unconditionally (a disabled build must still produce a
// valid, empty snapshot document).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "hsis/session.hpp"
#include "obs/control.hpp"
#include "obs/jsonlite.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/prof.hpp"
#include "par/batch.hpp"

namespace hsis::obs {
namespace {

// The shared jsonlite reader (src/obs/jsonlite.hpp) round-trips our own
// exports; it throws std::runtime_error on malformed input, which gtest
// surfaces as a test failure.
using JsonValue = jsonlite::Value;
using JsonObject = jsonlite::Object;
using JsonArray = jsonlite::Array;

JsonValue parseJson(const std::string& text) { return jsonlite::parse(text); }

// ------------------------------------------------------- metric semantics

TEST(ObsCounter, AddValueReset) {
  Counter& c = counter("test.obs.counter");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  if (kEnabled) {
    EXPECT_EQ(c.value(), 42u);
  } else {
    EXPECT_EQ(c.value(), 0u);
  }
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, SameNameSameObject) {
  Counter& a = counter("test.obs.alias");
  Counter& b = counter("test.obs.alias");
  EXPECT_EQ(&a, &b);
}

TEST(ObsGauge, SetAddUpdateMax) {
  Gauge& g = gauge("test.obs.gauge");
  g.reset();
  g.set(10);
  g.add(-3);
  if (kEnabled) {
    EXPECT_EQ(g.value(), 7);
  }
  g.updateMax(100);
  if (kEnabled) {
    EXPECT_EQ(g.value(), 100);
  }
  g.updateMax(5);  // below current level: no change
  if (kEnabled) {
    EXPECT_EQ(g.value(), 100);
  }
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsHistogram, BucketBoundaries) {
  // Static bucket math is live in both build modes.
  EXPECT_EQ(Histogram::bucketOf(0), 0);
  EXPECT_EQ(Histogram::bucketOf(1), 1);
  EXPECT_EQ(Histogram::bucketOf(2), 2);
  EXPECT_EQ(Histogram::bucketOf(3), 2);
  EXPECT_EQ(Histogram::bucketOf(4), 3);
  EXPECT_EQ(Histogram::bucketOf(1023), 10);
  EXPECT_EQ(Histogram::bucketOf(1024), 11);
  EXPECT_EQ(Histogram::bucketOf(~0ull), 64);
  EXPECT_EQ(Histogram::bucketLow(0), 0u);
  EXPECT_EQ(Histogram::bucketLow(1), 1u);
  EXPECT_EQ(Histogram::bucketLow(11), 1024u);
  // Every value lands in the bucket whose low bound it is >= to.
  for (uint64_t v : {0ull, 1ull, 7ull, 255ull, 256ull, 1ull << 40}) {
    int b = Histogram::bucketOf(v);
    EXPECT_GE(v, Histogram::bucketLow(b));
    if (b < Histogram::kBuckets - 1) {
      EXPECT_LT(v, Histogram::bucketLow(b + 1));
    }
  }
}

TEST(ObsHistogram, RecordCountSum) {
  Histogram& h = histogram("test.obs.hist");
  h.reset();
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  if (kEnabled) {
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 11u);
    EXPECT_EQ(h.bucketCount(0), 1u);  // value 0
    EXPECT_EQ(h.bucketCount(1), 1u);  // value 1
    EXPECT_EQ(h.bucketCount(3), 2u);  // 5 twice, bucket [4,8)
  } else {
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
  }
}

TEST(ObsRegistry, CollectIsSortedAndTyped) {
  counter("test.obs.sort.c").add(3);
  gauge("test.obs.sort.g").set(-4);
  histogram("test.obs.sort.h").record(9);
  std::vector<MetricSample> samples = Registry::instance().collect();
  if (!kEnabled) {
    EXPECT_TRUE(samples.empty());
    return;
  }
  for (size_t i = 1; i < samples.size(); ++i)
    EXPECT_LT(samples[i - 1].name, samples[i].name);
  auto find = [&](const std::string& n) -> const MetricSample* {
    for (const auto& s : samples)
      if (s.name == n) return &s;
    return nullptr;
  };
  const MetricSample* c = find("test.obs.sort.c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricSample::Kind::Counter);
  EXPECT_GE(c->value, 3);
  const MetricSample* g = find("test.obs.sort.g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind, MetricSample::Kind::Gauge);
  EXPECT_EQ(g->value, -4);
  const MetricSample* h = find("test.obs.sort.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, MetricSample::Kind::Histogram);
  EXPECT_GE(h->count, 1u);
  EXPECT_FALSE(h->buckets.empty());
}

// ---------------------------------------------------------------- spans

TEST(ObsSpan, NestingAndTiming) {
  Tracer::instance().clear();
  {
    Span outer("test.span.outer");
    {
      Span inner("test.span.inner");
      // Do a sliver of work so durations are nonzero on coarse clocks.
      volatile uint64_t sink = 0;
      for (int i = 0; i < 10000; ++i) sink = sink + static_cast<uint64_t>(i);
      EXPECT_GE(inner.seconds(), 0.0);
    }
  }
  std::vector<SpanSample> spans = Tracer::instance().completed();
  if (!kEnabled) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  ASSERT_EQ(spans.size(), 2u);
  // completed() sorts by start time: outer starts first.
  const SpanSample& outer = spans[0];
  const SpanSample& inner = spans[1];
  EXPECT_EQ(outer.name, "test.span.outer");
  EXPECT_EQ(inner.name, "test.span.inner");
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.parent, static_cast<int64_t>(outer.id));
  EXPECT_EQ(inner.depth, 1u);
  // Timing monotonicity: the child starts no earlier than the parent and
  // fits entirely inside it.
  EXPECT_GE(inner.startNs, outer.startNs);
  EXPECT_LE(inner.startNs + inner.durationNs,
            outer.startNs + outer.durationNs);
}

TEST(ObsSpan, RingBufferDropsOldest) {
  Tracer& tracer = Tracer::instance();
  tracer.setCapacity(4);
  for (int i = 0; i < 10; ++i) Span s("test.span.ring");
  std::vector<SpanSample> spans = tracer.completed();
  if (kEnabled) {
    EXPECT_EQ(spans.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    // The survivors are the newest spans, still sorted by start time.
    for (size_t i = 1; i < spans.size(); ++i)
      EXPECT_LE(spans[i - 1].startNs, spans[i].startNs);
  } else {
    EXPECT_TRUE(spans.empty());
    EXPECT_EQ(tracer.dropped(), 0u);
  }
  tracer.setCapacity(8192);  // restore default for later tests
}

// Workers open and close nested spans from a fixed script while a reader
// samples every view of the open spans: phaseStacks(), currentPhase() and
// the flight recorder's phase_stack lines. Each view must show a prefix of
// the worker's script, and a joined worker must leave no stack behind,
// even one that exits with a span still open.
TEST(ObsSpan, StacksStayNestedUnderConcurrentReads) {
  constexpr int kWorkers = 3;
  constexpr int kDepth = 4;
  constexpr int kRounds = 2000;
  constexpr size_t kMinReads = 20;  // workers run until the reader saw this
  std::vector<std::vector<std::string>> scripts(kWorkers);
  std::set<std::string> known;  // every scripted name
  for (int w = 0; w < kWorkers; ++w) {
    for (int d = 0; d < kDepth; ++d) {
      scripts[w].push_back("test.stack.w" + std::to_string(w) + ".d" +
                           std::to_string(d));
      known.insert(scripts[w].back());
    }
  }
  auto isScriptPrefix = [&](int w, const std::vector<std::string>& frames) {
    if (frames.empty() || frames.size() > scripts[w].size()) return false;
    return std::equal(frames.begin(), frames.end(), scripts[w].begin());
  };

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "hsis_obs_span_stacks";
  std::filesystem::remove_all(dir);
  flight::install(dir.string(), "hsis_tests");

  std::mutex mu;
  std::map<uint64_t, int> workerOf;  // currentThreadId() -> worker index
  std::atomic<int> running{kWorkers};
  std::atomic<size_t> reads{0};
  // Spans the workers leave open when they exit; closed after the joins.
  std::vector<std::optional<Span>> leftOpen(kWorkers);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      {
        std::lock_guard<std::mutex> lock(mu);
        workerOf[currentThreadId()] = w;
      }
      std::array<std::optional<Span>, kDepth> open;
      for (int r = 0; r < kRounds || reads.load() < kMinReads; ++r) {
        const int depth = 1 + r % kDepth;
        for (int d = 0; d < depth; ++d) open[d].emplace(scripts[w][d]);
        for (int d = depth; d-- > 0;) open[d].reset();
      }
      leftOpen[w].emplace(scripts[w][0]);
      running.fetch_sub(1);
    });
  }

  size_t flightLines = 0;
  while (running.load() > 0) {
    std::map<uint64_t, int> tids;
    {
      std::lock_guard<std::mutex> lock(mu);
      tids = workerOf;
    }
    for (const PhaseStackSnapshot& s : phaseStacks()) {
      auto it = tids.find(s.threadId);
      if (it == tids.end()) continue;
      EXPECT_TRUE(isScriptPrefix(it->second, s.frames)) << s.folded();
    }
    const std::string phase = currentPhase();
    EXPECT_TRUE(phase.empty() || known.count(phase) == 1) << phase;
    EXPECT_TRUE(flight::dump("test: concurrent reads"));
    std::ifstream in(flight::dumpPath());
    for (std::string line; std::getline(in, line);) {
      jsonlite::Value v = jsonlite::parse(line);
      const jsonlite::Value* kind = jsonlite::find(v.object(), "kind");
      if (kind == nullptr || kind->str() != "phase_stack") continue;
      // A thread id is a 64-bit hash, too wide for a JSON double: read it
      // from the text.
      const uint64_t tid =
          std::stoull(line.substr(line.find("\"tid\": ") + 7));
      auto it = tids.find(tid);
      if (it == tids.end()) continue;
      ++flightLines;
      std::vector<std::string> frames;
      std::istringstream folded(jsonlite::find(v.object(), "frames")->str());
      for (std::string f; std::getline(folded, f, ';');) frames.push_back(f);
      EXPECT_TRUE(isScriptPrefix(it->second, frames)) << line;
    }
    ++reads;
  }
  for (std::thread& t : workers) t.join();
  flight::uninstall();
  std::filesystem::remove_all(dir);

  EXPECT_GE(reads.load(), kMinReads);
  for (const PhaseStackSnapshot& s : phaseStacks()) {
    EXPECT_EQ(workerOf.count(s.threadId), 0u) << "stack left by a worker";
  }
  EXPECT_EQ(currentPhase(), "");
  EXPECT_EQ(flightLines > 0, kEnabled);
  leftOpen.clear();
  Tracer::instance().clear();
}

// --------------------------------------------------------------- exports

TEST(ObsExport, JsonRoundTrip) {
  Tracer::instance().clear();
  counter("test.json.counter").reset();
  counter("test.json.counter").add(7);
  gauge("test.json.gauge").set(-12);
  histogram("test.json.hist").reset();
  histogram("test.json.hist").record(3);
  { Span s("test.json.span"); }

  JsonValue doc = parseJson(toJson(snapshot()));
  ASSERT_TRUE(doc.isObject());
  const JsonObject& root = doc.object();
  EXPECT_EQ(root.at("schema").str(), "hsis-obs-v1");
  EXPECT_EQ(root.at("enabled").boolean(), kEnabled);
  const JsonObject& metrics = root.at("metrics").object();
  const JsonArray& spans = root.at("spans").array();
  if (!kEnabled) {
    // A disabled build still produces the full document shape, just empty.
    EXPECT_TRUE(metrics.empty());
    EXPECT_TRUE(spans.empty());
    return;
  }
  EXPECT_EQ(metrics.at("test.json.counter").number(), 7.0);
  EXPECT_EQ(metrics.at("test.json.gauge").number(), -12.0);
  const JsonObject& hist = metrics.at("test.json.hist").object();
  EXPECT_EQ(hist.at("count").number(), 1.0);
  EXPECT_EQ(hist.at("sum").number(), 3.0);
  ASSERT_EQ(spans.size(), 1u);
  const JsonObject& span = spans[0].object();
  EXPECT_EQ(span.at("name").str(), "test.json.span");
  EXPECT_GE(span.at("ms").number(), 0.0);
  EXPECT_TRUE(span.at("children").array().empty());
}

TEST(ObsExport, JsonNestsChildSpans) {
  Tracer::instance().clear();
  {
    Span outer("test.tree.outer");
    Span inner("test.tree.inner");
  }
  JsonValue doc = parseJson(toJson(snapshot()));
  const JsonArray& spans = doc.object().at("spans").array();
  if (!kEnabled) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  ASSERT_EQ(spans.size(), 1u);
  const JsonObject& outer = spans[0].object();
  EXPECT_EQ(outer.at("name").str(), "test.tree.outer");
  const JsonArray& children = outer.at("children").array();
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0].object().at("name").str(), "test.tree.inner");
}

TEST(ObsExport, ChromeTraceIsWellFormed) {
  Tracer::instance().clear();
  { Span s("test.chrome.span"); }
  Snapshot snap = snapshot();
  JsonValue trace = parseJson(toChromeTrace(snap));
  const JsonArray& events = trace.array();
  if (kEnabled) {
    ASSERT_FALSE(events.empty());
    const JsonObject& ev = events.back().object();
    EXPECT_EQ(ev.at("ph").str(), "X");
    EXPECT_EQ(ev.at("name").str(), "test.chrome.span");
  } else {
    // A disabled build emits only the process metadata event — no spans.
    for (const JsonValue& ev : events)
      EXPECT_EQ(ev.object().at("ph").str(), "M");
  }
}

TEST(ObsExport, JsonEscapesControlAndQuoteCharacters) {
  Tracer::instance().clear();
  { Span s("test.escape.\"quote\"\n"); }
  std::string json = toJson(snapshot());
  JsonValue doc = parseJson(json);  // must stay parseable
  if (kEnabled) {
    const JsonArray& spans = doc.object().at("spans").array();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].object().at("name").str(), "test.escape.\"quote\"\n");
  }
}

// ---------------------------------------------------------- thread safety

TEST(ObsThreads, ConcurrentCountsAreExact) {
  Counter& c = counter("test.threads.counter");
  Histogram& h = histogram("test.threads.hist");
  c.reset();
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h] {
      // Registration from several threads at once must also be safe.
      Gauge& g = gauge("test.threads.gauge");
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<uint64_t>(i));
        g.updateMax(i);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (kEnabled) {
    EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(gauge("test.threads.gauge").value(), kPerThread - 1);
  } else {
    EXPECT_EQ(c.value(), 0u);
  }
}

// ------------------------------------------- env.* metrics equivalence
//
// Session mirrors its Table-1 readings into the registry's env.*
// (environment) metrics; on a small model each must equal the session's
// own figure and the sum over the returned reports.

TEST(ObsEnvironment, MetricsMatchRegistry) {
  const char* kToggleVerilog = R"(
module top;
  wire clk;
  reg b;
  always @(posedge clk) b <= !b;
  initial b = 0;
endmodule
)";
  const char* kTogglePif = R"PIF(
ctl live "AG (AF b=1)";
automaton toggles {
  state A init;
  edge A -> A on "1";
  accept stay A;
}
)PIF";

  resetAll();
  Session session;
  session.load({Session::DesignSource::Kind::Verilog, kToggleVerilog, ""});
  PifFile pif = parsePif(kTogglePif);
  session.build();
  std::vector<BugReport> reports =
      par::checkBatch(session, pif.properties).reports;
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].holds);
  EXPECT_TRUE(reports[1].holds);
  const double reached = session.reachedStates();
  EXPECT_DOUBLE_EQ(reached, 2.0);

  // The registry keeps whole microseconds, rounded per check.
  auto micros = [](double seconds) {
    return static_cast<uint64_t>(std::llround(seconds * 1e6));
  };
  if (kEnabled) {
    EXPECT_EQ(static_cast<uint64_t>(gauge("env.read.micros").value()),
              session.lastBuildMicros());
    EXPECT_EQ(counter("env.mc.micros").value(), micros(reports[0].seconds));
    EXPECT_EQ(counter("env.lc.micros").value(), micros(reports[1].seconds));
    EXPECT_EQ(counter("env.props.ctl").value(), 1u);
    EXPECT_EQ(counter("env.props.lc").value(), 1u);
    EXPECT_EQ(static_cast<double>(gauge("env.reached.states").value()),
              reached);
    // The verification phases left their marks in the shared registry.
    EXPECT_GT(counter("bdd.nodes.created").value(), 0u);
    EXPECT_GT(counter("fsm.reach.iterations").value(), 0u);
  } else {
    // Disabled instrumentation leaves the registry empty; the session's
    // own readings come from a real wall clock either way.
    EXPECT_GT(session.lastBuildMicros(), 0u);
    EXPECT_EQ(counter("env.mc.micros").value(), 0u);
    EXPECT_EQ(gauge("env.reached.states").value(), 0);
  }

  // The snapshot is valid JSON in both modes.
  JsonValue doc = parseJson(snapshotJson());
  EXPECT_EQ(doc.object().at("enabled").boolean(), kEnabled);
}

// ----------------------------------------------- histogram p50/p90/max

TEST(ObsHistogram, TracksMaxAndBucketedQuantiles) {
  Histogram& h = histogram("test.obs.quant");
  h.reset();
  EXPECT_EQ(h.maxValue(), 0u);
  // Nine small values and one huge outlier: p50 must sit in a low bucket,
  // p90 at the outlier's bucket only when it is the crossing point, and
  // max is exact (not a bucket bound).
  for (uint64_t v : {3ull, 3ull, 3ull, 3ull, 3ull, 5ull, 5ull, 5ull, 5ull})
    h.record(v);
  h.record(1000);
  if (!kEnabled) {
    EXPECT_EQ(h.maxValue(), 0u);
    return;
  }
  EXPECT_EQ(h.maxValue(), 1000u);

  std::vector<MetricSample> samples = Registry::instance().collect();
  const MetricSample* s = nullptr;
  for (const auto& m : samples)
    if (m.name == "test.obs.quant") s = &m;
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->max, 1000u);
  // count=10: the 5th value (3) lies in bucket [2,4) -> p50 lower bound 2;
  // the 9th value (5) lies in bucket [4,8) -> p90 lower bound 4.
  EXPECT_EQ(s->p50, 2u);
  EXPECT_EQ(s->p90, 4u);

  // The JSON export carries the same summary fields.
  JsonValue doc = parseJson(toJson(snapshot()));
  const JsonObject& hist =
      doc.object().at("metrics").object().at("test.obs.quant").object();
  EXPECT_EQ(hist.at("p50").number(), 2.0);
  EXPECT_EQ(hist.at("p90").number(), 4.0);
  EXPECT_EQ(hist.at("max").number(), 1000.0);
}

// -------------------------------------------- chrome trace thread names

TEST(ObsExport, ChromeTraceCarriesThreadNameMetadata) {
  setThreadName("test-main");
  Tracer::instance().clear();
  { Span s("test.chrome.named"); }
  JsonValue trace = parseJson(toChromeTrace(snapshot()));
  const JsonArray& events = trace.array();
  // process_sort_index metadata is emitted even with no spans recorded.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].object().at("ph").str(), "M");
  EXPECT_EQ(events[0].object().at("name").str(), "process_sort_index");
  if (!kEnabled) return;  // thread names ride on the compiled-out store
  bool sawName = false;
  for (const JsonValue& ev : events) {
    const JsonObject& o = ev.object();
    if (o.at("ph").str() != "M" || o.at("name").str() != "thread_name")
      continue;
    if (o.at("args").object().at("name").str() == "test-main") sawName = true;
  }
  EXPECT_TRUE(sawName);
}

// ------------------------------------------------------- abort plumbing
//
// The abort flag is control flow, not measurement: every assertion here
// runs identically in the HSIS_OBS_DISABLE build.

TEST(ObsAbort, RequestCheckClearRoundTrip) {
  clearAbort();
  EXPECT_FALSE(abortRequested());
  EXPECT_FALSE(abortInfo().has_value());
  EXPECT_NO_THROW(checkAbort());

  requestAbort("test reason", "test.phase");
  EXPECT_TRUE(abortRequested());
  ASSERT_TRUE(abortInfo().has_value());
  EXPECT_EQ(abortInfo()->reason, "test reason");
  EXPECT_EQ(abortInfo()->phase, "test.phase");
  try {
    checkAbort();
    FAIL() << "checkAbort did not throw";
  } catch (const AbortedError& e) {
    EXPECT_EQ(e.reason(), "test reason");
    EXPECT_EQ(e.phase(), "test.phase");
  }
  // First request wins; a second is ignored.
  requestAbort("other reason");
  EXPECT_EQ(abortInfo()->reason, "test reason");

  clearAbort();
  EXPECT_FALSE(abortRequested());
  EXPECT_NO_THROW(checkAbort());
}

TEST(ObsAbort, SnapshotCarriesAbortState) {
  clearAbort();
  requestAbort("snapshot reason", "snap.phase");
  JsonValue doc = parseJson(toJson(snapshot()));
  const JsonObject& aborted = doc.object().at("aborted").object();
  EXPECT_EQ(aborted.at("reason").str(), "snapshot reason");
  EXPECT_EQ(aborted.at("phase").str(), "snap.phase");
  clearAbort();
  JsonValue clean = parseJson(toJson(snapshot()));
  EXPECT_TRUE(clean.object().at("aborted").isNull());
}

TEST(ObsAbort, PhaseDefaultsToActiveSpan) {
  clearAbort();
  {
    Span s("test.abort.phase");
    EXPECT_EQ(currentPhase(), kEnabled ? "test.abort.phase" : "");
    requestAbort("from inside");
  }
  ASSERT_TRUE(abortInfo().has_value());
  EXPECT_EQ(abortInfo()->phase, kEnabled ? "test.abort.phase" : "");
  clearAbort();
  EXPECT_EQ(currentPhase(), "");
}

// ------------------------------------------------------------- watchdog

TEST(ObsWatchdog, TripsAbortOnTinyWallLimit) {
  clearAbort();
  Watchdog& wd = Watchdog::instance();
  WatchdogOptions opts;
  opts.wallLimitSeconds = 0.005;
  wd.start(opts);
  // The watchdog raises the cooperative flag; a polling loop then throws.
  bool threw = false;
  for (int i = 0; i < 2000 && !threw; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    try {
      checkAbort();
    } catch (const AbortedError& e) {
      threw = true;
      EXPECT_NE(e.reason().find("wall-clock limit"), std::string::npos);
    }
  }
  wd.stop();
  EXPECT_TRUE(threw);
  clearAbort();
}

TEST(ObsWatchdog, MemLimitUsesPeakRss) {
  // /proc/self/status probes are live in both build modes on Linux.
  uint64_t rss = currentRssKb();
  uint64_t peak = peakRssKb();
  EXPECT_GT(rss, 0u);
  EXPECT_GE(peak, rss / 2);  // peak can lag current only by page noise
  clearAbort();
  Watchdog& wd = Watchdog::instance();
  WatchdogOptions opts;
  opts.memLimitKb = 1;  // any real process exceeds 1 KiB instantly
  wd.start(opts);
  bool tripped = false;
  for (int i = 0; i < 2000 && !tripped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    tripped = abortRequested();
  }
  wd.stop();
  EXPECT_TRUE(tripped);
  ASSERT_TRUE(abortInfo().has_value());
  EXPECT_NE(abortInfo()->reason.find("memory limit"), std::string::npos);
  clearAbort();
}

TEST(ObsWatchdog, ArmFireRearmCycle) {
  // The hsis_serve per-request pattern: one Watchdog instance re-armed for
  // every request. After a breach the instance must come back clean — no
  // stale fired() state, no unjoined worker thread, a fresh countdown.
  clearAbort();
  Watchdog wd;  // own instance; the process singleton stays untouched
  WatchdogOptions opts;
  opts.wallLimitSeconds = 0.005;

  // Arm 1: fire.
  wd.start(opts);
  for (int i = 0; i < 2000 && !wd.fired(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(wd.fired());
  EXPECT_FALSE(wd.running());  // a fired watchdog has parked
  EXPECT_TRUE(abortRequested());
  clearAbort();

  // Arm 2 (directly after the breach, the latent-state case): a generous
  // limit must start a fresh countdown — fired() resets and nothing trips.
  opts.wallLimitSeconds = 60.0;
  wd.start(opts);
  EXPECT_TRUE(wd.running());
  EXPECT_FALSE(wd.fired());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(abortRequested());
  wd.stop();
  EXPECT_FALSE(wd.running());

  // Arm 3 (after a clean stop): breaches still fire.
  opts.wallLimitSeconds = 0.005;
  wd.start(opts);
  for (int i = 0; i < 2000 && !wd.fired(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(wd.fired());
  wd.stop();
  clearAbort();
}

TEST(ObsWatchdog, StopFencesTheTarget) {
  // The par::checkBatch pattern: the breach target lives on the worker's
  // stack and dies right after stop(). A ~0 limit and a varying gap make
  // the breach race the stop; a callback that outlived stop() would touch
  // a dead slot or entry, which the ASan and TSan builds report.
  Watchdog wd;
  for (int i = 0; i < 200; ++i) {
    TaskAbort slot;
    wd.start({.wallLimitSeconds = 1e-9, .target = &slot});
    if (i % 3 == 1) std::this_thread::yield();
    if (i % 3 == 2)
      std::this_thread::sleep_for(std::chrono::microseconds(i % 50));
    wd.stop();
    EXPECT_EQ(slot.requested(), wd.fired());  // breached wholly or not at all
  }
  EXPECT_FALSE(abortRequested());
}

size_t osThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(ObsTicker, OneThreadForEveryTimer) {
  // The profiler, the process watchdog and every own Watchdog are entries
  // on one ticker thread, so arming all of them adds at most that thread
  // (none if it already runs).
  const size_t before = osThreadCount();
  prof::Profiler::instance().start({.intervalMs = 60000});
  Watchdog::instance().start({.wallLimitSeconds = 60.0});
  std::array<Watchdog, 8> dogs;
  for (Watchdog& dog : dogs) dog.start({.wallLimitSeconds = 60.0});
  EXPECT_LE(osThreadCount(), before + 1);
  for (Watchdog& dog : dogs) EXPECT_TRUE(dog.running());
  for (Watchdog& dog : dogs) dog.stop();
  Watchdog::instance().stop();
  prof::Profiler::instance().stop();
  prof::Profiler::instance().clear();
  EXPECT_FALSE(abortRequested());
}

TEST(ObsTaskAbort, SlotOnlyAffectsBoundThread) {
  clearAbort();
  TaskAbort slot;
  slot.request("per-task stop", "test.phase");
  // Raised but not bound here: this thread's safe points stay quiet.
  EXPECT_FALSE(abortRequested());

  bindTaskAbort(&slot);
  EXPECT_TRUE(abortRequested());
  try {
    checkAbort();
    FAIL() << "checkAbort() must throw for a bound raised slot";
  } catch (const AbortedError& e) {
    EXPECT_NE(e.reason().find("per-task stop"), std::string::npos);
    EXPECT_EQ(e.phase(), "test.phase");
  }
  // A neighbor thread without the binding is untouched — the multi-tenant
  // guarantee the hsis_serve workers need.
  std::thread neighbor([] { EXPECT_FALSE(abortRequested()); });
  neighbor.join();

  bindTaskAbort(nullptr);
  EXPECT_FALSE(abortRequested());

  // Slots are reusable across requests.
  slot.clear();
  EXPECT_FALSE(slot.requested());
  EXPECT_FALSE(slot.info().has_value());
  slot.request("second request");
  EXPECT_TRUE(slot.requested());
  slot.clear();
}

// A slot raised with no phase names the span of the thread it is bound
// to, not the newest span of the process (a neighbouring worker's).
TEST(ObsTaskAbort, PhaseIsTheBoundThreadsSpan) {
  if (!kEnabled) return;  // phases ride on the compiled-out spans
  clearAbort();
  TaskAbort slot;
  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;  // 1: A bound its slot inside its span; 2: slot raised
  std::string phase;
  std::thread a([&] {
    Span span("test.task.bound");
    bindTaskAbort(&slot);
    std::unique_lock<std::mutex> lock(mu);
    stage = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return stage == 2; });
    try {
      checkAbort();
    } catch (const AbortedError& e) {
      phase = e.phase();
    }
    bindTaskAbort(nullptr);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return stage == 1; });
  }
  {
    Span newer("test.task.neighbour");
    slot.request("budget exceeded");
    std::lock_guard<std::mutex> lock(mu);
    stage = 2;
    cv.notify_all();
  }
  a.join();
  EXPECT_EQ(phase, "test.task.bound");
  ASSERT_TRUE(slot.info().has_value());
  EXPECT_EQ(slot.info()->phase, "test.task.bound");
}

TEST(ObsTaskAbort, WatchdogTargetRaisesSlotNotProcessFlag) {
  clearAbort();
  TaskAbort slot;
  Watchdog wd;
  WatchdogOptions opts;
  opts.wallLimitSeconds = 0.005;
  opts.target = &slot;
  wd.start(opts);
  for (int i = 0; i < 2000 && !slot.requested(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(slot.requested());
  ASSERT_TRUE(slot.info().has_value());
  EXPECT_NE(slot.info()->reason.find("wall-clock limit"), std::string::npos);
  // The process-wide flag stayed down: only the targeted worker aborts.
  EXPECT_FALSE(abortRequested());
  wd.stop();
  slot.clear();
}

// --------------------------------------------------- non-finite doubles

TEST(ObsExport, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(jsonDouble(std::nan("")), "null");
  EXPECT_EQ(jsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonDouble(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonDouble(1.5), "1.5");
  EXPECT_EQ(jsonDouble(0.0), "0");
}

TEST(ObsExport, TraceWithNonFiniteCountersRoundTrips) {
  // A hand-built snapshot with poisoned counter values: the export must
  // stay parseable (null instead of bare nan/inf, which JSON forbids).
  Snapshot snap;
  CounterPoint p;
  p.tNs = 1000;
  p.liveNodes = 42;
  p.cacheHitRate = std::nan("");
  p.deadFraction = std::numeric_limits<double>::infinity();
  snap.counterPoints.push_back(p);

  JsonValue doc = parseJson(toChromeTrace(snap));
  ASSERT_TRUE(doc.isArray());
  bool sawNullRate = false;
  for (const JsonValue& ev : doc.array()) {
    const JsonObject& o = ev.object();
    const JsonValue* name = jsonlite::find(o, "name");
    if (name != nullptr && name->str() == "bdd.cache.hit_rate") {
      sawNullRate = jsonlite::find(o, "args")->object().at("rate").isNull();
    }
  }
  EXPECT_TRUE(sawNullRate);
}

// ------------------------------------------------- histogram summary json

TEST(ObsHistogram, SummaryJsonRendersNullQuantilesWhenEmpty) {
  // Regression: an untouched histogram used to render quantiles as 0,
  // which reads as "instant" in the serve stats stream. Empty must be
  // explicit: count 0, everything else null.
  Histogram& h = histogram("test.obs.summary.empty");
  h.reset();
  HistogramSummary empty = summarizeHistogram(h);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(histogramSummaryJson(empty),
            "{\"count\": 0, \"p50\": null, \"p90\": null, \"p99\": null, "
            "\"max\": null}");

  h.record(3);
  h.record(1000);
  HistogramSummary s = summarizeHistogram(h);
  std::string json = histogramSummaryJson(s);
  if (kEnabled) {
    EXPECT_EQ(s.count, 2u);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"max\": 1000"), std::string::npos);
    EXPECT_EQ(json.find("null"), std::string::npos);
  } else {
    // Disabled builds record nothing, so the summary stays empty-shaped.
    EXPECT_NE(json.find("\"p50\": null"), std::string::npos);
  }
}

// ----------------------------------------------------- jsonlite strings

TEST(ObsJsonlite, DecodesUnicodeEscapes) {
  // BMP escapes become UTF-8; a surrogate pair combines to one code point.
  JsonValue v = parseJson("\"A\\u0041 \\u00e9 \\u20ac \\ud83d\\ude00\"");
  EXPECT_EQ(v.str(), "AA \xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80");
}

TEST(ObsJsonlite, RejectsMalformedUnicodeEscapes) {
  EXPECT_THROW(parseJson("\"\\u12\""), std::runtime_error);      // short
  EXPECT_THROW(parseJson("\"\\u12zq\""), std::runtime_error);    // not hex
  EXPECT_THROW(parseJson("\"\\ud800\""), std::runtime_error);    // lone high
  EXPECT_THROW(parseJson("\"\\ude00\""), std::runtime_error);    // lone low
  EXPECT_THROW(parseJson("\"\\ud83d\\u0041\""), std::runtime_error);
}

TEST(ObsJsonlite, RejectsUnescapedControlCharacters) {
  EXPECT_THROW(parseJson("\"a\nb\""), std::runtime_error);
  EXPECT_THROW(parseJson(std::string("\"a\0b\"", 5)), std::runtime_error);
  // The escaped forms remain fine.
  EXPECT_EQ(parseJson("\"a\\nb\"").str(), "a\nb");
  EXPECT_EQ(parseJson("\"a\\u0001b\"").str(), std::string("a\x01") + "b");
}

}  // namespace
}  // namespace hsis::obs
