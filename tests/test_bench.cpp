// Tests for the benchmark harness layer (bench/bench_schema.hpp) and for
// the cooperative-abort unwinding contract the harness depends on: a
// watchdog abort mid-reachability or mid-LC must unwind via AbortedError
// without corrupting the BDD manager, and a subsequent run in the same
// process must still produce correct results.
//
// Everything here is control flow, so every test also passes in the
// HSIS_OBS_DISABLE build (live-value assertions are gated on obs::kEnabled).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_schema.hpp"
#include "hsis/session.hpp"
#include "models/models.hpp"
#include "obs/control.hpp"
#include "obs/jsonlite.hpp"
#include "obs/obs.hpp"
#include "paper_cases.hpp"

namespace hsisbench {
namespace {

BenchDoc sampleDoc() {
  BenchDoc doc;
  doc.suite = "unit";
  doc.gitSha = "abc1234";
  doc.repeat = 2;
  doc.warmup = 1;
  CaseResult fast;
  fast.name = "unit/fast";
  fast.runs = {{10.0, 9.0, 4096, false, "", ""},
               {12.0, 11.0, 4100, false, "", ""}};
  CaseResult slow;
  slow.name = "unit/slow";
  slow.runs = {{100.0, 95.0, 8192, false, "", ""}};
  CaseResult dead;
  dead.name = "unit/aborted";
  dead.runs = {{50.0, 48.0, 8192, true, "wall-clock limit 1s exceeded",
                "fsm.reach"}};
  doc.cases = {fast, slow, dead};
  return doc;
}

// ------------------------------------------------------ schema round-trip

TEST(BenchSchema, JsonRoundTrip) {
  BenchDoc doc = sampleDoc();
  std::string json = toJson(doc);
  BenchDoc back = parseBenchJson(json);

  EXPECT_EQ(back.suite, "unit");
  EXPECT_EQ(back.gitSha, "abc1234");
  EXPECT_EQ(back.repeat, 2);
  EXPECT_EQ(back.warmup, 1);
  ASSERT_EQ(back.cases.size(), 3u);

  const CaseResult* fast = back.findCase("unit/fast");
  ASSERT_NE(fast, nullptr);
  ASSERT_EQ(fast->runs.size(), 2u);
  EXPECT_DOUBLE_EQ(fast->runs[0].wallMs, 10.0);
  EXPECT_DOUBLE_EQ(fast->runs[1].userMs, 11.0);
  EXPECT_EQ(fast->runs[0].peakRssKb, 4096u);
  EXPECT_FALSE(fast->anyAborted());
  EXPECT_DOUBLE_EQ(fast->wallMsMin(), 10.0);

  const CaseResult* dead = back.findCase("unit/aborted");
  ASSERT_NE(dead, nullptr);
  EXPECT_TRUE(dead->anyAborted());
  EXPECT_EQ(dead->runs[0].abortReason, "wall-clock limit 1s exceeded");
  EXPECT_EQ(dead->runs[0].abortPhase, "fsm.reach");
}

TEST(BenchSchema, RejectsWrongSchemaTag) {
  EXPECT_THROW(parseBenchJson(R"({"schema": "something-else", "cases": []})"),
               std::runtime_error);
  EXPECT_THROW(parseBenchJson("not json at all"), std::runtime_error);
  EXPECT_THROW(parseBenchJson(R"({"schema": "hsis-bench-v1"})"),
               std::runtime_error);  // missing cases
}

TEST(BenchSchema, EmbeddedObsSnapshotStaysParseable) {
  // A real runCase result splices the hsis-obs-v1 snapshot into the case;
  // the whole document must still be one valid JSON value.
  hsis::obs::clearAbort();
  CaseResult c = runCase("unit/obs", [] {
    hsis::obs::counter("test.bench.counter").add(3);
  }, 2, 0);
  BenchDoc doc;
  doc.suite = "unit";
  doc.gitSha = "abc";
  doc.repeat = 2;
  doc.cases = {c};
  std::string json = toJson(doc);
  namespace jl = hsis::obs::jsonlite;
  jl::Value root = jl::parse(json);  // throws on malformed splice
  const jl::Value* cases = jl::find(root.object(), "cases");
  ASSERT_NE(cases, nullptr);
  const jl::Value* obs = jl::find(cases->array().at(0).object(), "obs");
  ASSERT_NE(obs, nullptr);
  const jl::Value* schema = jl::find(obs->object(), "schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str(), "hsis-obs-v1");
}

/// The reader's error for `json` with `from` replaced by `to` ("" when it
/// parses).
std::string errorWith(std::string json, const std::string& from,
                      const std::string& to) {
  size_t pos = json.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos == std::string::npos) return "";
  json.replace(pos, from.size(), to);
  try {
    (void)parseBenchJson(json);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(BenchSchema, RejectsStringWallMs) {
  // Read as 0 ms, it would switch off the case's regression check.
  EXPECT_EQ(errorWith(toJson(sampleDoc()), "\"wall_ms\": 10.000",
                      "\"wall_ms\": \"10\""),
            "hsis-bench-v1: field 'wall_ms' is not a number");
  EXPECT_EQ(errorWith(toJson(sampleDoc()), "\"wall_ms\": 10.000",
                      "\"wall_ms\": -10"),
            "hsis-bench-v1: field 'wall_ms' is negative");
}

TEST(BenchSchema, RejectsNegativePeakRss) {
  EXPECT_NE(errorWith(toJson(sampleDoc()), "\"peak_rss_kb\": 4096",
                      "\"peak_rss_kb\": -4096")
                .find("field 'peak_rss_kb' is not an integer"),
            std::string::npos);
}

TEST(BenchSchema, RejectsOutOfRangeRepeat) {
  EXPECT_NE(errorWith(toJson(sampleDoc()), "\"repeat\": 2", "\"repeat\": 1e12")
                .find("field 'repeat' is not an integer"),
            std::string::npos);
  EXPECT_NE(errorWith(toJson(sampleDoc()), "\"warmup\": 1", "\"warmup\": 0.5")
                .find("field 'warmup' is not an integer"),
            std::string::npos);
}

TEST(BenchSchema, RejectsNonBooleanObsEnabled) {
  BenchDoc doc = sampleDoc();
  doc.obsEnabled = true;
  EXPECT_EQ(errorWith(toJson(doc), "\"obs_enabled\": true",
                      "\"obs_enabled\": 1"),
            "hsis-bench-v1: field 'obs_enabled' is not a boolean");
}

TEST(BenchSchema, RejectsMissingRunFieldsAndBadAbortMarker) {
  std::string json = toJson(sampleDoc());
  EXPECT_EQ(errorWith(json, "\"wall_ms\": 10.000, ", ""),
            "hsis-bench-v1: field 'wall_ms' is missing");
  EXPECT_EQ(errorWith(json, "\"aborted\": null", "\"aborted\": true"),
            "hsis-bench-v1: field 'aborted' is not an object");
}

TEST(BenchSchema, HostBlockRoundTripsAndIsOptional) {
  BenchDoc doc = sampleDoc();
  EXPECT_FALSE(parseBenchJson(toJson(doc)).host.has_value());

  doc.host = HostInfo{4, "Some \"quoted\" CPU", 0.25, "GNU 12.2.0", "Release"};
  BenchDoc back = parseBenchJson(toJson(doc));
  ASSERT_TRUE(back.host.has_value());
  EXPECT_EQ(back.host->nproc, 4u);
  EXPECT_EQ(back.host->cpu, "Some \"quoted\" CPU");
  EXPECT_DOUBLE_EQ(back.host->loadavg, 0.25);
  EXPECT_EQ(back.host->compiler, "GNU 12.2.0");
  EXPECT_EQ(back.host->buildType, "Release");
  EXPECT_EQ(errorWith(toJson(doc), "\"nproc\": 4", "\"nproc\": -4")
                .rfind("hsis-bench-v1: field 'nproc'", 0),
            0u);
}

TEST(BenchArgs, ParseNumberTakesTheWholeText) {
  using hsis::obs::parseNumber;
  EXPECT_EQ(parseNumber<int>("5"), 5);
  EXPECT_EQ(parseNumber<int>("-3"), -3);
  EXPECT_DOUBLE_EQ(parseNumber<double>("2.5").value_or(0), 2.5);
  for (const char* junk : {"", "abc", "5x", " 5", "1.5"})
    EXPECT_FALSE(parseNumber<int>(junk).has_value()) << '"' << junk << '"';
  EXPECT_FALSE(parseNumber<int>("99999999999").has_value());
  EXPECT_FALSE(parseNumber<double>("ten").has_value());
  EXPECT_FALSE(parseNumber<uint64_t>("-1").has_value());

  // The shared obs flags go through the same parser: a bad value throws
  // instead of reading as 0 (no timeout).
  const char* raw[] = {"prog", "--timeout-s", "soon"};
  int argc = 3;
  char* argv[4] = {};
  for (int i = 0; i < argc; ++i) argv[i] = const_cast<char*>(raw[i]);
  try {
    (void)hsis::obs::stripObsCliFlags(argc, argv);
    ADD_FAILURE() << "--timeout-s soon was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--timeout-s needs a number, got 'soon'");
  }
}

// -------------------------------------------------------------- runCase

TEST(BenchRunCase, RecordsTimingsPerRun) {
  hsis::obs::clearAbort();
  int calls = 0;
  CaseResult result = runCase("unit/work", [&calls] {
    ++calls;
    volatile uint64_t sink = 0;
    for (int i = 0; i < 200000; ++i) sink = sink + static_cast<uint64_t>(i);
  }, 3, 1);
  EXPECT_EQ(calls, 4);  // 1 warmup + 3 measured
  ASSERT_EQ(result.runs.size(), 3u);
  for (const RunStats& r : result.runs) {
    EXPECT_FALSE(r.aborted);
    EXPECT_GE(r.wallMs, 0.0);
    EXPECT_GT(r.peakRssKb, 0u);
  }
  EXPECT_FALSE(result.anyAborted());
  EXPECT_GT(result.wallMsMin(), 0.0);
}

TEST(BenchRunCase, KeepsTheFastestRunsSnapshot) {
  hsis::obs::clearAbort();
  int calls = 0;
  CaseResult result = runCase("unit/fastest", [&calls] {
    ++calls;
    hsis::obs::gauge("test.bench.run").set(calls);
    if (calls != 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }, 3, 0);
  ASSERT_EQ(result.runs.size(), 3u);
  EXPECT_DOUBLE_EQ(result.wallMsMin(), result.runs[1].wallMs);
  if (hsis::obs::kEnabled) {
    EXPECT_NE(result.obsJson.find("\"test.bench.run\": 2"), std::string::npos)
        << result.obsJson;
  }
}

TEST(BenchRunCase, MarksAbortedRunsAndStops) {
  hsis::obs::clearAbort();
  int calls = 0;
  CaseResult result = runCase("unit/abort", [&calls] {
    ++calls;
    hsis::obs::requestAbort("test abort", "unit.phase");
    hsis::obs::checkAbort();
  }, 3, 0);
  EXPECT_EQ(calls, 1);  // later repeats skipped: they would only re-abort
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_TRUE(result.runs[0].aborted);
  EXPECT_EQ(result.runs[0].abortReason, "test abort");
  EXPECT_TRUE(result.anyAborted());
  hsis::obs::clearAbort();
}

// -------------------------------------------------------------- compare

TEST(BenchCompare, IdenticalDocsPass) {
  BenchDoc doc = sampleDoc();
  CompareResult cmp = compareBench(doc, doc, 10.0);
  EXPECT_EQ(cmp.regressions, 0);
  // The aborted case is listed but never counted.
  bool sawAborted = false;
  for (const CompareRow& row : cmp.rows)
    if (row.name == "unit/aborted") sawAborted = row.note == "aborted";
  EXPECT_TRUE(sawAborted);
}

TEST(BenchCompare, FlagsInjectedSlowdown) {
  BenchDoc oldDoc = sampleDoc();
  BenchDoc newDoc = sampleDoc();
  for (CaseResult& c : newDoc.cases)
    for (RunStats& r : c.runs) r.wallMs *= 2.0;  // injected 2x slowdown
  CompareResult cmp = compareBench(oldDoc, newDoc, 10.0);
  EXPECT_EQ(cmp.regressions, 2);  // fast + slow; the aborted case is skipped
  for (const CompareRow& row : cmp.rows) {
    if (row.note.empty()) {
      EXPECT_NEAR(row.ratio, 2.0, 1e-9);
      EXPECT_TRUE(row.regression);
    }
  }
  // A generous threshold lets the same slowdown through.
  EXPECT_EQ(compareBench(oldDoc, newDoc, 150.0).regressions, 0);
}

TEST(BenchCompare, HandlesMissingCasesWithoutFailing) {
  BenchDoc oldDoc = sampleDoc();
  BenchDoc newDoc = sampleDoc();
  newDoc.cases.pop_back();
  CaseResult fresh;
  fresh.name = "unit/new-case";
  fresh.runs = {{1.0, 1.0, 100, false, "", ""}};
  newDoc.cases.push_back(fresh);
  CompareResult cmp = compareBench(oldDoc, newDoc, 10.0);
  EXPECT_EQ(cmp.regressions, 0);
  bool onlyOld = false, onlyNew = false;
  for (const CompareRow& row : cmp.rows) {
    if (row.name == "unit/aborted") onlyOld = row.note == "only in old";
    if (row.name == "unit/new-case") onlyNew = row.note == "only in new";
  }
  EXPECT_TRUE(onlyOld);
  EXPECT_TRUE(onlyNew);
}

// ------------------------------------------------ the paper's case tables
//
// The seeded bugs and matched pairs hsis_bench times: each patch site is
// found, each seeded invariant fails with early failure detection on and
// off (EFD in no more steps), and each pair's CTL formula and automaton
// get the same verdict.

TEST(BenchCases, SeededBugsFailWithAndWithoutEfd) {
  for (const SeededBug& bug : kSeededBugs) {
    SCOPED_TRACE(bug.design);
    std::string verilog;
    ASSERT_NO_THROW(verilog = seededVerilog(bug));
    EXPECT_NE(verilog, std::string(hsis::models::find(bug.design)->verilog));
    SeededRun efd = checkSeeded(bug, verilog, true);
    SeededRun full = checkSeeded(bug, verilog, false);
    EXPECT_FALSE(efd.holds);
    EXPECT_FALSE(full.holds);
    EXPECT_LE(efd.steps, full.steps);
  }
}

TEST(BenchCases, MissingPatchSiteIsAnError) {
  SeededBug moved = kSeededBugs[0];
  moved.patchFrom = "no such line in the design";
  EXPECT_THROW((void)seededVerilog(moved), std::runtime_error);
}

TEST(BenchCases, MatchedPairsAgreeUnderCtlAndLc) {
  for (const MatchedPair& pair : kMatchedPairs) {
    SCOPED_TRACE(std::string(pair.design) + " " + pair.kind);
    hsis::BugReport mc = checkMatched(pair, true);
    hsis::BugReport lc = checkMatched(pair, false);
    EXPECT_EQ(mc.holds, lc.holds);
    EXPECT_TRUE(mc.holds);  // every pair states a requirement that holds
  }
}

// ------------------------------------------- abort unwinding (reach, LC)
//
// The contract hsis_bench and the watchdog rely on: an abort raised while
// reachability or the LC hull is running unwinds cleanly, and after
// clearAbort() the same Session-level computation succeeds with the
// correct answer — no BDD-manager state was corrupted by the unwind.

TEST(BenchAbort, ReachabilityUnwindsAndRecovers) {
  const auto* model = hsis::models::find("philos");
  ASSERT_NE(model, nullptr);

  const hsis::Session::DesignSource src{
      hsis::Session::DesignSource::Kind::Verilog, std::string(model->verilog),
      std::string(model->top)};

  hsis::obs::clearAbort();
  double expected;
  {
    hsis::Session s;
    s.load(src);
    expected = s.reachedStates();
    EXPECT_GT(expected, 0.0);
  }

  hsis::Session s;
  s.load(src);
  hsis::obs::requestAbort("test: kill reach", "test.phase");
  EXPECT_THROW(
      {
        s.build();  // TR build + reach both poll the abort flag
        (void)s.reachedStates();
      },
      hsis::obs::AbortedError);

  // Recovery: same process, fresh session, correct fixpoint.
  hsis::obs::clearAbort();
  hsis::Session s2;
  s2.load(src);
  EXPECT_DOUBLE_EQ(s2.reachedStates(), expected);
}

TEST(BenchAbort, LanguageContainmentUnwindsAndRecovers) {
  const char* kAutomaton =
      R"PIF(automaton p { state ok init; state bad;
        edge ok -> ok on "!(ping_has & pong_has)";
        edge ok -> bad on "ping_has & pong_has";
        edge bad -> bad on "1"; accept stay ok; })PIF";
  const auto* model = hsis::models::find("pingpong");
  ASSERT_NE(model, nullptr);

  hsis::obs::clearAbort();
  hsis::Session s;
  s.load({hsis::Session::DesignSource::Kind::Verilog,
          std::string(model->verilog), std::string(model->top)});
  s.build();
  hsis::PifFile pif = hsis::parsePif(kAutomaton);

  hsis::obs::requestAbort("test: kill lc", "test.phase");
  EXPECT_THROW((void)s.check(pif.properties.at(0)), hsis::obs::AbortedError);

  // Recovery on the SAME session: the unwind left its manager usable.
  hsis::obs::clearAbort();
  hsis::BugReport report = s.check(pif.properties.at(0));
  EXPECT_TRUE(report.holds);
}

}  // namespace
}  // namespace hsisbench
