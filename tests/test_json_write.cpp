// Byte-level pins for every JSON artifact this repo writes. Each schema is
// rendered from fixed input whose strings carry the characters an escaper
// can get wrong ('"', '\\', '\n', '\t', '\r', a raw control byte, and
// multi-byte UTF-8) and compared with a literal. A renderer refactor that
// moves a single byte fails here before any consumer notices.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "bench_schema.hpp"
#include "cex/cex.hpp"
#include "cov/cov.hpp"
#include "obs/jsonlite.hpp"
#include "obs/ledger.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/prof.hpp"
#include "obs/tracectx.hpp"
#include "serve/pool.hpp"
#include "serve/protocol.hpp"
#include "serve/telemetry.hpp"

namespace hsis {
namespace {

// "q\"b\\n" + LF + TAB + CR + 0x01 + "é€"
const std::string kNasty = std::string("q\"b\\n\n\t\r") + '\x01' +
                           "\xc3\xa9\xe2\x82\xac";

/// Zero every number and null in a rendered line, for records that carry
/// clocks, thread ids or process-global counters: what stays pinned is the
/// key layout and every string.
std::string zeroNumbers(const std::string& line) {
  static const std::regex kNum(R"(: (null|-?[0-9][0-9.eE+-]*))");
  return std::regex_replace(line, kNum, ": 0");
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(JsonWrite, SchemasByteIdentical) {
  // ---- hsis-ledger-v1, with every optional block, then the plain shape
  // whose `"signal": null}` tail armCrashRecord splits on.
  obs::ledger::Record r;
  r.runId = "1700000000-42";
  r.time = "2026-01-02T03:04:05Z";
  r.driver = "hsis_cli";
  r.subject = kNasty;
  r.result = "fail";
  r.detail = kNasty;
  r.digest = "00ff";
  r.wallSeconds = 1.25;
  r.peakRssKb = 4096;
  r.gitSha = "abc1234";
  r.config = "--model philos";
  r.traceId = "00000000000000ab";
  r.stages = {{"queue", 3}, {kNasty, 7}};
  r.hasCoverage = true;
  r.covStateFraction = 0.5;
  r.covValuesReached = 3;
  r.covValuesTotal = 4;
  r.covBinsHit = 1;
  r.covBinsTotal = 2;
  r.cexPath = "/tmp/cex";
  r.cexReplay = "verified";
  r.signalName = "SIGSEGV";
  EXPECT_EQ(obs::ledger::toJsonl(r),
            R"j({"schema": "hsis-ledger-v1", "run_id": "1700000000-42", "time": "2026-01-02T03:04:05Z", "driver": "hsis_cli", "subject": "q\"b\\n\n\t\r\u0001é€", "result": "fail", "detail": "q\"b\\n\n\t\r\u0001é€", "digest": "00ff", "wall_s": 1.25, "peak_rss_kb": 4096, "git_sha": "abc1234", "config": "--model philos", "trace_id": "00000000000000ab", "stages": {"queue": 3, "q\"b\\n\n\t\r\u0001é€": 7}, "coverage": {"state_fraction": 0.5, "values_reached": 3, "values_total": 4, "bins_hit": 1, "bins_total": 2}, "cex": {"path": "/tmp/cex", "replay": "verified"}, "obs_enabled": true, "signal": "SIGSEGV"})j");
  obs::ledger::Record plain;
  plain.runId = "1-2";
  plain.obsEnabled = false;
  EXPECT_EQ(obs::ledger::toJsonl(plain),
            R"j({"schema": "hsis-ledger-v1", "run_id": "1-2", "time": "", "driver": "", "subject": "", "result": "", "detail": "", "digest": "", "wall_s": 0, "peak_rss_kb": 0, "git_sha": "", "config": "", "obs_enabled": false, "signal": null})j");

  // ---- hsis-prof-v1 samples, with and without a census.
  obs::prof::ProfSample s;
  s.seq = 9;
  s.tSeconds = 0.125;
  s.rssKb = 2048;
  s.folded = {"a;b", kNasty};
  EXPECT_EQ(s.toJsonl(),
            R"j({"kind": "sample", "seq": 9, "t_s": 0.125, "rss_kb": 2048, "stacks": ["a;b", "q\"b\\n\n\t\r\u0001é€"], "census_seq": null})j");
  obs::prof::BddCensus c;
  c.seq = 4;
  c.liveNodes = 10;
  c.allocatedNodes = 20;
  c.freeNodes = 5;
  c.deadNodes = 2;
  c.uniqueBuckets = 8;
  c.cacheEntries = 64;
  c.cacheUsed = 32;
  c.cacheLookups = 100;
  c.cacheHits = 40;
  c.gcRuns = 1;
  c.reorderings = 0;
  c.peakLiveNodes = 12;
  c.levelNodes = {6, 4};
  s.folded.clear();
  s.census = c;
  s.dCacheLookups = 50;
  s.dCacheHits = 20;
  s.dGcRuns = 1;
  EXPECT_EQ(s.toJsonl(),
            R"j({"kind": "sample", "seq": 9, "t_s": 0.125, "rss_kb": 2048, "stacks": [], "census_seq": 4, "live_nodes": 10, "allocated_nodes": 20, "free_nodes": 5, "dead_nodes": 2, "dead_fraction": 0.2, "unique_buckets": 8, "unique_load": 1.25, "cache_entries": 64, "cache_used": 32, "cache_lookups": 100, "cache_hits": 40, "d_cache_lookups": 50, "d_cache_hits": 20, "gc_runs": 1, "d_gc_runs": 1, "reorder_count": 0, "d_reorder_count": 0, "peak_live_nodes": 12, "level_nodes": [6, 4]})j");

  // ---- hsis-serve-v1 requests, every op.
  serve::Request ping;
  ping.op = serve::Request::Op::Ping;
  ping.id = kNasty;
  EXPECT_EQ(serve::renderRequest(ping),
            R"j({"schema": "hsis-serve-v1", "op": "ping", "id": "q\"b\\n\n\t\r\u0001é€"})j");
  serve::Request st;
  st.op = serve::Request::Op::Stats;
  st.id = "s";
  EXPECT_EQ(serve::renderRequest(st),
            R"j({"schema": "hsis-serve-v1", "op": "stats", "id": "s"})j");
  st.op = serve::Request::Op::Shutdown;
  EXPECT_EQ(serve::renderRequest(st),
            R"j({"schema": "hsis-serve-v1", "op": "shutdown", "id": "s"})j");
  st.op = serve::Request::Op::StatsStream;
  st.statsIntervalMs = 250;
  EXPECT_EQ(serve::renderRequest(st),
            R"j({"schema": "hsis-serve-v1", "op": "stats-stream", "id": "s", "interval_ms": 250})j");
  serve::Request chk;
  chk.op = serve::Request::Op::Check;
  chk.id = "c1";
  chk.check.name = kNasty;
  chk.check.design.kind = Session::DesignSource::Kind::BlifMv;
  chk.check.design.text = kNasty;
  chk.check.design.top = "top";
  chk.check.pif = kNasty;
  chk.check.budget.wallSeconds = 2.5;
  chk.check.budget.rssMb = 512;
  chk.check.wantTrace = false;
  chk.check.traceId = "00000000000000ab";
  EXPECT_EQ(serve::renderRequest(chk),
            R"j({"schema": "hsis-serve-v1", "op": "check", "id": "c1", "name": "q\"b\\n\n\t\r\u0001é€", "design": {"kind": "blifmv", "text": "q\"b\\n\n\t\r\u0001é€", "top": "top"}, "pif": "q\"b\\n\n\t\r\u0001é€", "budget": {"wall_s": 2.5, "rss_mb": 512}, "want_trace": false, "trace_id": "00000000000000ab"})j");
  chk.check = {};
  chk.check.design.text = "module m;";
  EXPECT_EQ(serve::renderRequest(chk),
            R"j({"schema": "hsis-serve-v1", "op": "check", "id": "c1", "design": {"kind": "verilog", "text": "module m;"}, "pif": "", "budget": {"wall_s": 0, "rss_mb": 0}, "want_trace": true})j");

  // ---- hsis-serve-v1 frames, every kind.
  const std::string tid = "00000000000000ab";
  EXPECT_EQ(serve::acceptedFrame(kNasty, 2, tid),
            R"j({"schema": "hsis-serve-v1", "event": "accepted", "id": "q\"b\\n\n\t\r\u0001é€", "queue_depth": 2, "trace_id": "00000000000000ab"})j");
  EXPECT_EQ(serve::acceptedFrame("a", 0, ""),
            R"j({"schema": "hsis-serve-v1", "event": "accepted", "id": "a", "queue_depth": 0})j");
  EXPECT_EQ(serve::loadedFrame("a", true, 0, tid),
            R"j({"schema": "hsis-serve-v1", "event": "loaded", "id": "a", "cache": "hit", "read_micros": 0, "trace_id": "00000000000000ab"})j");
  EXPECT_EQ(serve::loadedFrame("a", false, 1234, ""),
            R"j({"schema": "hsis-serve-v1", "event": "loaded", "id": "a", "cache": "miss", "read_micros": 1234})j");
  serve::VerdictInfo v;
  v.property = kNasty;
  v.languageContainment = true;
  v.holds = false;
  v.seconds = 0.001;
  v.trace = kNasty;
  EXPECT_EQ(serve::verdictFrame("a", v, tid),
            R"j({"schema": "hsis-serve-v1", "event": "verdict", "id": "a", "property": "q\"b\\n\n\t\r\u0001é€", "paradigm": "lc", "holds": false, "seconds": 0.001, "trace": "q\"b\\n\n\t\r\u0001é€", "trace_id": "00000000000000ab"})j");
  v.languageContainment = false;
  v.holds = true;
  v.trace.clear();
  EXPECT_EQ(serve::verdictFrame("a", v, ""),
            R"j({"schema": "hsis-serve-v1", "event": "verdict", "id": "a", "property": "q\"b\\n\n\t\r\u0001é€", "paradigm": "ctl", "holds": true, "seconds": 0.001})j");
  serve::DoneStats ds;
  ds.cacheHit = true;
  ds.readMicros = 5;
  ds.wallSeconds = 0.5;
  ds.properties = 3;
  ds.failures = 1;
  ds.stages = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(serve::doneFrame("a", "pass", "", ds, ""),
            R"j({"schema": "hsis-serve-v1", "event": "done", "id": "a", "verdict": "pass", "stats": {"cache": "hit", "read_micros": 5, "wall_s": 0.5, "properties": 3, "failures": 1, "stages": {"queue": 1, "parse": 2, "tr": 3, "reach": 4, "check": 5, "render": 6}}})j");
  ds.cacheHit = false;
  ds.hasCoverage = true;
  ds.covStateFraction = 0.75;
  ds.covValuesReached = 3;
  ds.covValuesTotal = 4;
  ds.covBinsHit = 1;
  ds.covBinsTotal = 2;
  ds.hasCex = true;
  ds.cexPath = kNasty;
  ds.cexReplay = "verified";
  EXPECT_EQ(serve::doneFrame("a", "fail", kNasty, ds, tid),
            R"j({"schema": "hsis-serve-v1", "event": "done", "id": "a", "verdict": "fail", "detail": "q\"b\\n\n\t\r\u0001é€", "stats": {"cache": "miss", "read_micros": 5, "wall_s": 0.5, "properties": 3, "failures": 1, "stages": {"queue": 1, "parse": 2, "tr": 3, "reach": 4, "check": 5, "render": 6}, "coverage": {"state_fraction": 0.75, "values_reached": 3, "values_total": 4, "bins_hit": 1, "bins_total": 2}, "cex": {"path": "q\"b\\n\n\t\r\u0001é€", "replay": "verified"}}, "trace_id": "00000000000000ab"})j");
  EXPECT_EQ(serve::pongFrame("a", kNasty),
            R"j({"schema": "hsis-serve-v1", "event": "pong", "id": "a", "version": "q\"b\\n\n\t\r\u0001é€"})j");
  EXPECT_EQ(serve::statsFrame("a", R"({"workers": 1})"),
            R"j({"schema": "hsis-serve-v1", "event": "stats", "id": "a", "server": {"workers": 1}})j");
  EXPECT_EQ(serve::byeFrame(kNasty),
            R"j({"schema": "hsis-serve-v1", "event": "bye", "id": "q\"b\\n\n\t\r\u0001é€"})j");
  EXPECT_EQ(serve::errorFrame("a", kNasty),
            R"j({"schema": "hsis-serve-v1", "event": "error", "id": "a", "message": "q\"b\\n\n\t\r\u0001é€"})j");

  // ---- hsis-serve-stats-v1 tick around a live pool's stream object, and
  // the pool's stats object (numbers zeroed: they carry uptime and RSS).
  {
    serve::PoolOptions opts;
    opts.workers = 1;
    serve::SessionPool pool(opts);
    EXPECT_EQ(pool.statsJsonObject(),
              R"j({"workers": 1, "busy_workers": 0, "queue_depth": 0, "accepted": 0, "rejected": 0, "completed": 0, "failed": 0, "aborted": 0, "cache_hits": 0, "cache_misses": 0, "evictions": 0, "cex_captures": 0, "resident": [""]})j");
    EXPECT_EQ(zeroNumbers(serve::statsTickFrame(kNasty, 7,
                                                pool.statsStreamJson())),
              R"j({"schema": "hsis-serve-stats-v1", "event": "stats-tick", "id": "q\"b\\n\n\t\r\u0001é€", "seq": 0, "stats": {"t_s": 0, "queue_depth": 0, "workers": 0, "busy_workers": 0, "rss_kb": 0, "requests": {"accepted": 0, "rejected": 0, "completed": 0, "failed": 0, "aborted": 0}, "cache": {"hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0}, "latency_us": {"queue": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0}, "parse": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0}, "tr": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0}, "reach": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0}, "check": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0}, "render": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0}, "total": {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0}}, "coverage": {"reports": 0, "state_fraction": 0, "values_reached": 0, "values_total": 0, "bins_hit": 0, "bins_total": 0}, "cex": {"captures": 0}}})j");
  }
  obs::HistogramSummary hs;
  EXPECT_EQ(obs::histogramSummaryJson(hs),
            R"j({"count": 0, "p50": null, "p90": null, "p99": null, "max": null})j");
  hs = {4, 100, 10, 20, 30, 40};
  EXPECT_EQ(obs::histogramSummaryJson(hs),
            R"j({"count": 4, "p50": 10, "p90": 20, "p99": 30, "max": 40})j");

  // ---- hsis-slow-request-v1 (request.json of the artifact bundle).
  {
    namespace fs = std::filesystem;
    fs::path root = fs::temp_directory_path() / "hsis_json_write_slow";
    fs::remove_all(root);
    serve::SlowRequestInfo info;
    info.traceId = 0xab;
    info.requestId = kNasty;
    info.name = kNasty;
    info.digest = "d1";
    info.verdict = "fail";
    info.detail = kNasty;
    info.cacheHit = true;
    info.wallSeconds = 2.5;
    info.thresholdSeconds = 1;
    info.stages = {1, 2, 3, 4, 5, 6};
    std::string dir = serve::writeSlowRequestArtifacts(root.string(), info);
    ASSERT_FALSE(dir.empty());
    EXPECT_EQ(slurp(fs::path(dir) / "request.json"),
              R"j({"schema": "hsis-slow-request-v1", "trace_id": "00000000000000ab", "id": "q\"b\\n\n\t\r\u0001é€", "name": "q\"b\\n\n\t\r\u0001é€", "digest": "d1", "verdict": "fail", "detail": "q\"b\\n\n\t\r\u0001é€", "cache": "hit", "wall_s": 2.5, "threshold_s": 1, "stages": {"queue": 1, "parse": 2, "tr": 3, "reach": 4, "check": 5, "render": 6}})j"
              "\n");
    fs::remove_all(root);
  }

  // ---- hsis-cov-v1.
  cov::Report cr;
  cr.enabled = true;
  cr.design = kNasty;
  cr.reachableStates = 3;
  cr.stateSpace = 8;
  cr.valuesTotal = 4;
  cr.valuesReached = 3;
  cr.binsTotal = 2;
  cr.binsHit = 1;
  cr.depth = 2;
  cov::LatchOccupancy occ;
  occ.latch = kNasty;
  occ.domain = 3;
  occ.valueNames = {"idle", kNasty, "done"};
  occ.valueReached = {true, false, true};
  occ.reachedValues = 2;
  cr.latches.push_back(occ);
  cr.frontier = {{0, 1, 1}, {1, 2, 3}};
  cov::PointResult pr;
  pr.name = kNasty;
  pr.binsHit = 1;
  cov::BinResult b1;
  b1.name = "hit";
  b1.expr = kNasty;
  b1.symbolicHit = true;
  b1.symbolicStates = 2;
  b1.simHits = 2;
  cov::BinResult b2;
  b2.name = "miss";
  b2.expr = "x=1";
  b2.simEvaluable = false;
  pr.bins = {b1, b2};
  cr.points.push_back(pr);
  cr.simStates = 3;
  cr.simExhaustive = true;
  // The one byte change the shared escaper made: cov's private copy had no
  // '\r' case and wrote CR as \u000d; it is now "\r" as in every other
  // artifact. Both parse to the same string.
  EXPECT_EQ(cov::reportToJson(cr),
            R"j({"schema": "hsis-cov-v1", "enabled": true, "design": "q\"b\\n\n\t\r\u0001é€", "reachable_states": 3, "state_space": 8, "state_fraction": 0.375, "depth": 2, "values": {"reached": 3, "total": 4}, "bins": {"hit": 1, "total": 2}, "latches": [{"name": "q\"b\\n\n\t\r\u0001é€", "domain": 3, "reached_values": 2, "pct": 66.666666666666671, "values": [{"name": "idle", "reached": true}, {"name": "q\"b\\n\n\t\r\u0001é€", "reached": false}, {"name": "done", "reached": true}]}], "frontier": [{"depth": 0, "new_states": 1, "total_states": 1}, {"depth": 1, "new_states": 2, "total_states": 3}], "coverpoints": [{"name": "q\"b\\n\n\t\r\u0001é€", "bins_hit": 1, "bins": [{"name": "hit", "expr": "q\"b\\n\n\t\r\u0001é€", "hit": true, "states": 2, "sim_evaluable": true, "sim_hits": 2}, {"name": "miss", "expr": "x=1", "hit": false, "states": 0, "sim_evaluable": false, "sim_hits": null}]}], "sim": {"states": 3, "exhaustive": true, "agrees": true}})j");

  // ---- hsis-cex-v1.
  cex::Artifact a;
  a.traceId = "00000000000000ab";
  a.gitSha = "abc1234";
  a.designName = kNasty;
  a.designDigest = "dd";
  a.designKind = "verilog";
  a.designTop = "top";
  a.designText = kNasty;
  a.propertyName = "p";
  a.propertyText = kNasty;
  a.propertyDigest = "pd";
  a.cycleStart = 1;
  a.latches = {{"st", 3, 2, {"a", kNasty, "c"}, 12}};
  a.inputs = {{"in", 2, 1, {}, 0}};
  a.steps = {{{0}, {1}}, {{2}, {}}};
  a.replay = "verified";
  a.replayNote = kNasty;
  EXPECT_EQ(cex::toJson(a),
            R"j({"schema": "hsis-cex-v1", "trace_id": "00000000000000ab", "git_sha": "abc1234", "design": {"name": "q\"b\\n\n\t\r\u0001é€", "digest": "dd", "kind": "verilog", "top": "top", "text": "q\"b\\n\n\t\r\u0001é€"}, "property": {"name": "p", "text": "q\"b\\n\n\t\r\u0001é€", "digest": "pd"}, "replay": "verified", "replay_note": "q\"b\\n\n\t\r\u0001é€", "cycle_start": 1, "latches": [{"name": "st", "domain": 3, "bits": 2, "values": ["a", "q\"b\\n\n\t\r\u0001é€", "c"], "line": 12}], "inputs": [{"name": "in", "domain": 2, "bits": 1, "values": [], "line": 0}], "steps": [{"latches": [0], "inputs": [1]}, {"latches": [2], "inputs": []}]})j");

  // ---- hsis-bench-v1 (pretty-printed document).
  hsisbench::BenchDoc doc;
  doc.suite = kNasty;
  doc.gitSha = "abc1234";
  doc.obsEnabled = true;
  doc.repeat = 2;
  doc.warmup = 1;
  hsisbench::CaseResult cs;
  cs.name = kNasty;
  cs.runs.push_back({1.5, 1.25, 100, false, "", ""});
  hsisbench::RunStats ab;
  ab.wallMs = 3;
  ab.aborted = true;
  ab.abortReason = kNasty;
  ab.abortPhase = "fsm.reach";
  cs.runs.push_back(ab);
  cs.obsJson = "{\n  \"x\": 1\n}\n";
  doc.cases.push_back(cs);
  EXPECT_EQ(hsisbench::toJson(doc), R"j({
  "schema": "hsis-bench-v1",
  "suite": "q\"b\\n\n\t\r\u0001é€",
  "git_sha": "abc1234",
  "obs_enabled": true,
  "config": {"repeat": 2, "warmup": 1},
  "cases": [
    {"name": "q\"b\\n\n\t\r\u0001é€",
     "runs": [{"wall_ms": 1.500, "user_ms": 1.250, "peak_rss_kb": 100, "aborted": null}, {"wall_ms": 3.000, "user_ms": 0.000, "peak_rss_kb": 0, "aborted": {"reason": "q\"b\\n\n\t\r\u0001é€", "phase": "fsm.reach"}}],
     "wall_ms_min": 1.500,
     "obs": {
       "x": 1
     }}
  ]
}
)j");

  // ---- hsis-obs-v1 (pretty-printed document) and the Chrome trace.
  obs::Snapshot snap;
  obs::MetricSample m1;
  m1.name = kNasty;
  m1.value = -3;
  obs::MetricSample m2;
  m2.name = "h";
  m2.kind = obs::MetricSample::Kind::Histogram;
  m2.count = 2;
  m2.sum = 10;
  m2.max = 8;
  m2.p50 = 2;
  m2.p90 = 8;
  m2.p99 = 8;
  m2.buckets = {{2, 1}, {8, 1}};
  snap.metrics = {m1, m2};
  snap.spans = {{kNasty, 1, -1, 0, 7, 1000000, 3000000, 0xab},
                {"child", 2, 1, 1, 7, 1500000, 1000000, 0}};
  snap.droppedSpans = 1;
  snap.counterPoints = {{2000000, 10, 20, 300, 0.5, 0.25}};
  snap.threadNames = {{1000007, kNasty}};
  snap.aborted = true;
  snap.abortReason = kNasty;
  snap.abortPhase = "p";
  std::string obsExpected = R"j({
  "schema": "hsis-obs-v1",
  "enabled": @,
  "metrics": {
    "q\"b\\n\n\t\r\u0001é€": -3,
    "h": {"count": 2, "sum": 10, "p50": 2, "p90": 8, "p99": 8, "max": 8, "buckets": {"2": 1, "8": 1}}
  },
  "aborted": {"reason": "q\"b\\n\n\t\r\u0001é€", "phase": "p"},
  "dropped_spans": 1,
  "spans": [
    {"name": "q\"b\\n\n\t\r\u0001é€", "ms": 3, "start_ms": 0, "children": [
      {"name": "child", "ms": 1, "start_ms": 0.5, "children": []}
    ]}
  ]
}
)j";
  obsExpected.replace(obsExpected.find('@'), 1,
                      obs::kEnabled ? "true" : "false");
  EXPECT_EQ(obs::toJson(snap), obsExpected);
  EXPECT_EQ(obs::toChromeTrace(snap), R"j([
 {"name": "process_sort_index", "ph": "M", "pid": 1, "args": {"sort_index": 0}},
 {"name": "thread_name", "ph": "M", "pid": 1, "tid": 7, "args": {"name": "q\"b\\n\n\t\r\u0001é€"}},
 {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 7, "args": {"sort_index": 1}},
 {"name": "q\"b\\n\n\t\r\u0001é€", "cat": "hsis", "ph": "X", "pid": 1, "tid": 7, "ts": 1000, "dur": 3000, "args": {"trace": "00000000000000ab"}},
 {"name": "child", "cat": "hsis", "ph": "X", "pid": 1, "tid": 7, "ts": 1500, "dur": 1000},
 {"name": "bdd.live_nodes", "cat": "hsis", "ph": "C", "pid": 1, "ts": 2000, "args": {"nodes": 10}},
 {"name": "bdd.allocated_nodes", "cat": "hsis", "ph": "C", "pid": 1, "ts": 2000, "args": {"nodes": 20}},
 {"name": "process.rss_kb", "cat": "hsis", "ph": "C", "pid": 1, "ts": 2000, "args": {"kb": 300}},
 {"name": "bdd.cache.hit_rate", "cat": "hsis", "ph": "C", "pid": 1, "ts": 2000, "args": {"rate": 0.5}},
 {"name": "bdd.dead_fraction", "cat": "hsis", "ph": "C", "pid": 1, "ts": 2000, "args": {"fraction": 0.25}}
]
)j");

  // ---- hsis-log-v1 event line and its ring stand-in (numbers zeroed:
  // they carry the clock and thread id).
  obs::log::closeSinks();
  obs::log::clearRing();
  obs::log::setLevel(obs::log::Level::Info);
  obs::TraceContext ctx{0xab, "req"};
  {
    obs::TraceScope scope(ctx);
    obs::log::event(obs::log::Level::Warn, kNasty, kNasty,
                    {{"i", -7},
                     {"u", 42u},
                     {"f", 2.5},
                     {"yes", true},
                     {kNasty, std::string_view(kNasty)}});
  }
  // An oversized event lands in the ring as the short truncated stand-in.
  std::string big = kNasty + std::string(2 * obs::log::kRingSlotBytes, 'x');
  obs::log::event(obs::log::Level::Info, "c", big);
  std::vector<std::string> lines = obs::log::ringLines();
  obs::log::clearRing();
  if (!obs::kEnabled) {
    EXPECT_TRUE(lines.empty());
    return;
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(zeroNumbers(lines[0]),
            R"j({"kind": "event", "lvl": "warn", "t_ns": 0, "tid": 0, "tseq": 0, "trace": "00000000000000ab", "comp": "q\"b\\n\n\t\r\u0001é€", "msg": "q\"b\\n\n\t\r\u0001é€", "fields": {"i": 0, "u": 0, "f": 0, "yes": true, "q\"b\\n\n\t\r\u0001é€": "q\"b\\n\n\t\r\u0001é€"}})j");
  EXPECT_NE(lines[0].find(R"("fields": {"i": -7, "u": 42, "f": 2.5, )"),
            std::string::npos);
  EXPECT_EQ(zeroNumbers(lines[1]),
            R"j({"kind": "event", "lvl": "info", "t_ns": 0, "tid": 0, "tseq": 0, "comp": "c", "msg": "q\"b\\n\n\t\r\u0001é€)j" +
                std::string(128 - kNasty.size(), 'x') +
                R"j(", "truncated": true})j");
}

/// UTF-8 encoding of one Unicode scalar value.
void appendUtf8(std::string& out, uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

TEST(JsonWrite, EscapeRoundTrips) {
  std::mt19937 rng(20260101);
  std::uniform_int_distribution<int> len(0, 24);
  std::uniform_int_distribution<uint32_t> ascii(0x01, 0x7F);
  std::uniform_int_distribution<uint32_t> wide(0x80, 0x10FFFF);
  for (int n = 0; n < 10000; ++n) {
    std::string s;
    for (int k = len(rng); k > 0; --k) {
      uint32_t cp = rng() % 2 == 0 ? ascii(rng) : wide(rng);
      if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;  // no surrogates
      appendUtf8(s, cp);
    }
    std::string q;
    obs::jsonlite::appendQuoted(q, s);
    for (char c : q) ASSERT_GE(static_cast<unsigned char>(c), 0x20) << q;
    ASSERT_EQ(obs::jsonlite::parse(q).str(), s) << q;
  }
  // A string literal binds to the string overload, not to value(bool).
  std::string lit;
  obs::jsonlite::Writer(lit).value("literal");
  EXPECT_EQ(lit, "\"literal\"");
}

TEST(JsonWrite, WriterSeparatorsAndScalars) {
  std::string out;
  obs::jsonlite::Writer w(out);
  w.beginObject().key("s").value("str").key("b").value(false);
  w.key("i").value(-3).key("u").value(std::numeric_limits<uint64_t>::max());
  w.key("d").value(0.5).key("nan").value(std::nan(""));
  w.key("z").value(nullptr).key("r").raw("1.500");
  w.key("a").beginArray().value(1).beginObject().endObject();
  w.beginArray().endArray().value(std::string("x")).endArray();
  w.key("o").beginObject().key("k").value(size_t{2}).endObject().endObject();
  EXPECT_EQ(out,
            R"j({"s": "str", "b": false, "i": -3, "u": 18446744073709551615, "d": 0.5, "nan": null, "z": null, "r": 1.500, "a": [1, {}, [], "x"], "o": {"k": 2}})j");
  EXPECT_TRUE(obs::jsonlite::parse(out).isObject());
}

}  // namespace
}  // namespace hsis
