// Request-scoped tracing and live service telemetry: TraceContext
// propagation (frames, log events, ledger records, flight dumps), per-stage
// timing invariants, the stats-stream protocol, slow-request auto-capture,
// and the `hsis_report requests` rendering.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "models/models.hpp"
#include "obs/ledger.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/tracectx.hpp"
#include "serve/pool.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "test_support.hpp"

namespace {

using namespace hsis::serve;
using namespace hsistest;
namespace obs = hsis::obs;
namespace jl = hsis::obs::jsonlite;

// ------------------------------------------------------------ TraceContext

TEST(TraceContext, HexRoundTripAndJunkRejected) {
  EXPECT_EQ(obs::traceIdHex(0x00000000deadbeefULL), "00000000deadbeef");
  EXPECT_EQ(obs::parseTraceId("00000000deadbeef"), 0x00000000deadbeefULL);
  EXPECT_EQ(obs::parseTraceId("ffffffffffffffff"), ~0ULL);
  EXPECT_EQ(obs::parseTraceId(""), 0u);
  EXPECT_EQ(obs::parseTraceId("deadbeef"), 0u);           // too short
  EXPECT_EQ(obs::parseTraceId("00000000deadbeefa"), 0u);  // too long
  EXPECT_EQ(obs::parseTraceId("00000000deadbeeg"), 0u);   // bad digit
  EXPECT_EQ(obs::parseTraceId("0000000000000000"), 0u);   // zero reserved
}

TEST(TraceContext, NewIdsAreNonzeroAndDistinct) {
  uint64_t a = obs::newTraceId();
  uint64_t b = obs::newTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceContext, ScopeBindsAndUnbindsPerThread) {
  EXPECT_EQ(obs::currentTraceId(), 0u);
  {
    obs::TraceContext ctx{0xabcULL, "req-7"};
    obs::TraceScope scope(ctx);
    EXPECT_EQ(obs::currentTraceId(), 0xabcULL);
    ASSERT_NE(obs::currentTraceContext(), nullptr);
    EXPECT_EQ(obs::currentTraceContext()->requestId, "req-7");
    // Another thread sees its own (empty) binding.
    std::thread([] { EXPECT_EQ(obs::currentTraceId(), 0u); }).join();
    // The active-trace table mirrors the binding for the crash path.
    bool found = false;
    for (const auto& [tid, trace] : obs::activeTraces()) {
      if (trace == 0xabcULL) found = true;
    }
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(obs::currentTraceId(), 0u);
  for (const auto& [tid, trace] : obs::activeTraces()) {
    EXPECT_NE(trace, 0xabcULL);
  }
}

TEST(TraceContext, FlightDumpCarriesActiveTraces) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hsis_trace_flight_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  obs::TraceContext ctx{0x1234000056780000ULL, "flight-req"};
  obs::TraceScope scope(ctx);
  obs::flight::install(dir.string(), "test_telemetry");
  ASSERT_TRUE(obs::flight::dump("telemetry test"));
  std::ifstream in(obs::flight::dumpPath());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string dump = ss.str();
  EXPECT_NE(dump.find("\"kind\": \"active_trace\""), std::string::npos);
  EXPECT_NE(dump.find("1234000056780000"), std::string::npos);
  obs::flight::uninstall();
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- propagation helpers

std::string frameTraceId(const Frame& f) {
  const jl::Value* v = jl::find(f.body.object(), "trace_id");
  return v != nullptr && v->isString() ? v->str() : "";
}

const jl::Object* frameStats(const Frame& f) {
  const jl::Value* v = jl::find(f.body.object(), "stats");
  return v != nullptr && v->isObject() ? &v->object() : nullptr;
}

double numAt(const jl::Object& obj, const char* key) {
  const jl::Value* v = jl::find(obj, key);
  return v != nullptr && v->isNumber() ? v->number() : -1.0;
}

// ------------------------------------------------------------- propagation

TEST(ServeTelemetry, ClientTraceIdEchoesThroughEveryChannel) {
  const std::string kTrace = "00000000deadbeef";
  std::filesystem::path ledgerPath =
      std::filesystem::temp_directory_path() /
      ("hsis_trace_ledger_" + std::to_string(::getpid()) + ".jsonl");
  std::filesystem::remove(ledgerPath);

  obs::log::clearRing();
  PoolOptions opts;
  opts.workers = 1;
  opts.ledgerPath = ledgerPath.string();
  SessionPool pool(opts);

  CheckRequest req = modelCheck("pingpong", "traced");
  req.traceId = kTrace;
  FrameLog log;
  ASSERT_TRUE(pool.submit(req, log.sink()));
  ASSERT_TRUE(log.waitDone());
  pool.shutdown(false);  // joins the worker: ledger + ring are settled

  // Every frame of the request's stream carries the client-supplied id.
  for (const char* event : {"accepted", "loaded", "verdict", "done"}) {
    const Frame* f = log.find(event);
    ASSERT_NE(f, nullptr) << event;
    EXPECT_EQ(frameTraceId(*f), kTrace) << event;
  }

  // The ledger record joins on the same id and has the stage breakdown.
  std::vector<obs::ledger::Record> records =
      obs::ledger::load(ledgerPath.string());
  ASSERT_FALSE(records.empty());
  const obs::ledger::Record& rec = records.back();
  EXPECT_EQ(rec.traceId, kTrace);
  ASSERT_EQ(rec.stages.size(), 6u);
  // Loaded records carry stages in jsonlite's key-sorted order, not
  // pipeline order — assert the set, not the sequence.
  std::vector<std::string> names;
  for (const auto& [name, micros] : rec.stages) names.push_back(name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"check", "parse", "queue",
                                             "reach", "render", "tr"}));

  if (obs::kEnabled) {
    // Log events emitted while the request ran were stamped with it too
    // ("design loaded" at least — engine events ride along at debug level).
    bool stamped = false;
    for (const std::string& line : obs::log::ringLines()) {
      if (line.find("\"trace\": \"" + kTrace + "\"") != std::string::npos)
        stamped = true;
    }
    EXPECT_TRUE(stamped);
  }
  std::filesystem::remove(ledgerPath);
}

TEST(ServeTelemetry, ServerMintsTraceIdWhenClientOmitsIt) {
  PoolOptions opts;
  opts.workers = 1;
  SessionPool pool(opts);
  FrameLog log;
  ASSERT_TRUE(pool.submit(modelCheck("pingpong", "untraced"), log.sink()));
  ASSERT_TRUE(log.waitDone());
  pool.shutdown(false);

  const Frame* done = log.find("done");
  ASSERT_NE(done, nullptr);
  std::string trace = frameTraceId(*done);
  EXPECT_EQ(trace.size(), 16u);
  EXPECT_NE(obs::parseTraceId(trace), 0u);  // valid hex, nonzero
  // Same id on the accepted frame — minted once at admission.
  const Frame* accepted = log.find("accepted");
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(frameTraceId(*accepted), trace);
}

// ------------------------------------------------------------ stage timing

TEST(ServeTelemetry, StageMicrosSumStaysWithinReportedWall) {
  PoolOptions opts;
  opts.workers = 1;
  SessionPool pool(opts);
  FrameLog log;
  ASSERT_TRUE(pool.submit(modelCheck("pingpong", "staged"), log.sink()));
  ASSERT_TRUE(log.waitDone());
  pool.shutdown(false);

  const Frame* done = log.find("done");
  ASSERT_NE(done, nullptr);
  const jl::Object* stats = frameStats(*done);
  ASSERT_NE(stats, nullptr);
  const jl::Value* stagesV = jl::find(*stats, "stages");
  ASSERT_NE(stagesV, nullptr);
  ASSERT_TRUE(stagesV->isObject());
  const jl::Object& stages = stagesV->object();

  double sum = 0.0;
  for (const char* name :
       {"queue", "parse", "tr", "reach", "check", "render"}) {
    double v = numAt(stages, name);
    ASSERT_GE(v, 0.0) << name;  // present and numeric, even when 0
    sum += v;
  }
  double wallMicros = numAt(*stats, "wall_s") * 1e6;
  ASSERT_GT(wallMicros, 0.0);
  // The stages are disjoint sub-intervals of [enqueue, done]: their sum
  // can never exceed the wall (small slack for per-stage rounding).
  EXPECT_LE(sum, wallMicros + 10.0);
  // And a real check did happen, so some stage is nonzero.
  EXPECT_GT(sum, 0.0);
}

// ------------------------------------------------------------ stats-stream

TEST(ServeTelemetry, StatsStreamTicksMatchSchema) {
  ServerOptions opts;
  opts.socketPath =
      "/tmp/hsis_stats_stream_" + std::to_string(::getpid()) + ".sock";
  opts.version = "test";
  opts.pool.workers = 1;
  Server server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.bind(&error)) << error;
  std::thread serverThread([&] { server.run(); });

  int fd = connectTo(server.socketPath());
  std::string buf;

  // Run one check first so the latency histograms have data.
  Request check;
  check.op = Request::Op::Check;
  check.id = "warm";
  check.check = modelCheck("pingpong", "warm");
  sendLine(fd, renderRequest(check));
  for (;;) {
    std::string line = readLine(fd, buf);
    ASSERT_FALSE(line.empty());
    Frame f = parseFrame(line);
    ASSERT_NE(f.event, "error");
    if (f.event == "done") break;
  }

  Request sub;
  sub.op = Request::Op::StatsStream;
  sub.id = "sub-1";
  sub.statsIntervalMs = 100;
  sendLine(fd, renderRequest(sub));

  uint64_t lastSeq = 0;
  for (int tick = 0; tick < 2; ++tick) {
    std::string line = readLine(fd, buf);
    ASSERT_FALSE(line.empty());
    jl::Value doc = jl::parse(line);
    ASSERT_TRUE(doc.isObject());
    const jl::Object& frame = doc.object();
    const jl::Value* schema = jl::find(frame, "schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str(), "hsis-serve-stats-v1");
    const jl::Value* event = jl::find(frame, "event");
    ASSERT_NE(event, nullptr);
    EXPECT_EQ(event->str(), "stats-tick");
    double seq = numAt(frame, "seq");
    EXPECT_EQ(seq, static_cast<double>(tick));
    lastSeq = static_cast<uint64_t>(seq);

    const jl::Value* statsV = jl::find(frame, "stats");
    ASSERT_NE(statsV, nullptr);
    ASSERT_TRUE(statsV->isObject());
    const jl::Object& stats = statsV->object();
    EXPECT_GE(numAt(stats, "t_s"), 0.0);
    EXPECT_GE(numAt(stats, "workers"), 1.0);
    EXPECT_GE(numAt(stats, "queue_depth"), 0.0);
    EXPECT_GT(numAt(stats, "rss_kb"), 0.0);
    const jl::Value* requests = jl::find(stats, "requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(numAt(requests->object(), "accepted"), 1.0);
    const jl::Value* cache = jl::find(stats, "cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(numAt(cache->object(), "misses"), 1.0);
    const jl::Value* latency = jl::find(stats, "latency_us");
    ASSERT_NE(latency, nullptr);
    ASSERT_TRUE(latency->isObject());
    for (const char* stage :
         {"queue", "parse", "tr", "reach", "check", "render", "total"}) {
      const jl::Value* row = jl::find(latency->object(), stage);
      ASSERT_NE(row, nullptr) << stage;
      ASSERT_TRUE(row->isObject()) << stage;
      // Quantiles of an empty histogram render as null ("no data"), not 0
      // ("instant"); every disabled-build row is empty by construction.
      double rowCount = numAt(row->object(), "count");
      EXPECT_GE(rowCount, 0.0) << stage;
      for (const char* field : {"p50", "p90", "p99", "max"}) {
        const jl::Value* qv = jl::find(row->object(), field);
        ASSERT_NE(qv, nullptr) << stage << field;
        if (rowCount > 0.0) {
          EXPECT_GE(numAt(row->object(), field), 0.0) << stage << field;
        } else {
          EXPECT_TRUE(qv->isNull()) << stage << field;
        }
      }
      if (obs::kEnabled) {
        // The warm-up check recorded into every stage histogram (they are
        // process-wide, so earlier pool tests may have contributed too).
        EXPECT_GE(numAt(row->object(), "count"), 1.0) << stage;
      }
    }
    if (obs::kEnabled) {
      const jl::Value* total = jl::find(latency->object(), "total");
      EXPECT_GT(numAt(total->object(), "max"), 0.0);
    }
    // The coverage rollup is constant-shape: present on every tick, zeros
    // until a request produces an enabled coverage report.
    const jl::Value* cov = jl::find(stats, "coverage");
    ASSERT_NE(cov, nullptr);
    ASSERT_TRUE(cov->isObject());
    EXPECT_GE(numAt(cov->object(), "reports"), 0.0);
    EXPECT_GE(numAt(cov->object(), "bins_total"), 0.0);
    if (obs::kEnabled) {
      EXPECT_GE(numAt(cov->object(), "reports"), 1.0);  // warm-up check ran
    }
  }
  EXPECT_EQ(lastSeq, 1u);

  // interval_ms 0 cancels the subscription; the connection keeps serving.
  Request cancel;
  cancel.op = Request::Op::StatsStream;
  cancel.id = "sub-1";
  cancel.statsIntervalMs = 0;
  sendLine(fd, renderRequest(cancel));
  Request ping;
  ping.op = Request::Op::Ping;
  ping.id = "p1";
  sendLine(fd, renderRequest(ping));
  for (;;) {
    std::string line = readLine(fd, buf);
    ASSERT_FALSE(line.empty());
    Frame f = parseFrame(line);
    if (f.event == "stats-tick") continue;  // one may already be in flight
    EXPECT_EQ(f.event, "pong");
    break;
  }

  server.stop();
  serverThread.join();
  server.pool().shutdown(false);
  ::close(fd);
  ::unlink(server.socketPath().c_str());
}

TEST(ServeProtocol, StatsStreamRequestRoundTripsAndRejectsNegative) {
  Request req;
  req.op = Request::Op::StatsStream;
  req.id = "s-1";
  req.statsIntervalMs = 250;
  Request back = parseRequest(renderRequest(req));
  EXPECT_EQ(back.op, Request::Op::StatsStream);
  EXPECT_EQ(back.statsIntervalMs, 250u);
  EXPECT_THROW(
      parseRequest(
          R"({"op": "stats-stream", "id": "x", "interval_ms": -5})"),
      ProtocolError);
}

TEST(ServeProtocol, CheckRequestCarriesTraceId) {
  Request req;
  req.op = Request::Op::Check;
  req.id = "t-1";
  req.check.id = "t-1";
  req.check.design.kind = hsis::Session::DesignSource::Kind::BlifMv;
  req.check.design.text = ".model m\n.inputs a\n.end\n";
  req.check.pif = "";
  req.check.traceId = "00ff00ff00ff00ff";
  Request back = parseRequest(renderRequest(req));
  EXPECT_EQ(back.check.traceId, "00ff00ff00ff00ff");
}

// ------------------------------------------------------------ slow capture

TEST(ServeTelemetry, SlowCaptureFiresExactlyOncePerBreachingRequest) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hsis_slow_capture_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  PoolOptions opts;
  opts.workers = 1;
  opts.slowThresholdSeconds = 1e-9;  // everything is "slow"
  opts.artifactDir = dir.string();
  SessionPool pool(opts);

  CheckRequest req = modelCheck("pingpong", "slow");
  req.traceId = "0000feed0000beef";
  FrameLog log;
  ASSERT_TRUE(pool.submit(req, log.sink()));
  ASSERT_TRUE(log.waitDone());
  pool.shutdown(false);  // joins the worker: capture I/O has finished

  // Exactly one artifact directory, named by the trace id.
  std::vector<std::string> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    entries.push_back(e.path().filename().string());
  }
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], "0000feed0000beef");
  for (const char* file :
       {"request.json", "trace.json", "profile.folded", "census.jsonl"}) {
    EXPECT_TRUE(std::filesystem::exists(dir / entries[0] / file)) << file;
  }
  std::ifstream in(dir / entries[0] / "request.json");
  std::stringstream ss;
  ss << in.rdbuf();
  std::string meta = ss.str();
  EXPECT_NE(meta.find("\"schema\": \"hsis-slow-request-v1\""),
            std::string::npos);
  EXPECT_NE(meta.find("0000feed0000beef"), std::string::npos);
  EXPECT_NE(meta.find("\"stages\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ServeTelemetry, NoCaptureWithoutThreshold) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hsis_no_capture_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  PoolOptions opts;
  opts.workers = 1;
  opts.artifactDir = dir.string();  // dir set but threshold 0 => disabled
  SessionPool pool(opts);
  FrameLog log;
  ASSERT_TRUE(pool.submit(modelCheck("pingpong", "fast"), log.sink()));
  ASSERT_TRUE(log.waitDone());
  pool.shutdown(false);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// -------------------------------------------------------- report rendering

TEST(LedgerRequests, RenderFlagsOutliersPastThreshold) {
  obs::ledger::Record fast;
  fast.time = "2026-08-09T00:00:00Z";
  fast.subject = "fast-model";
  fast.result = "pass";
  fast.traceId = "aaaaaaaaaaaaaaaa";
  fast.wallSeconds = 0.010;
  fast.stages = {{"queue", 100},  {"parse", 2000}, {"tr", 500},
                 {"reach", 300},  {"check", 6000}, {"render", 0}};
  obs::ledger::Record slow = fast;
  slow.subject = "slow-model";
  slow.traceId = "bbbbbbbbbbbbbbbb";
  slow.wallSeconds = 3.5;
  obs::ledger::Record noStages;  // pre-telemetry record: filtered out
  noStages.subject = "legacy";
  noStages.result = "pass";

  size_t outliers = 0;
  std::string out = obs::ledger::renderRequests({fast, slow, noStages}, 1.0,
                                                20, &outliers);
  EXPECT_EQ(outliers, 1u);
  EXPECT_NE(out.find("slow-model"), std::string::npos);
  EXPECT_NE(out.find("SLOW"), std::string::npos);
  EXPECT_NE(out.find("fast-model"), std::string::npos);
  EXPECT_NE(out.find("bbbbbbbbbbbbbbbb"), std::string::npos);
  EXPECT_EQ(out.find("legacy"), std::string::npos);
  EXPECT_NE(out.find("2 request(s), 1 outlier(s)"), std::string::npos);
}

TEST(LedgerRequests, RecordRoundTripsTraceAndStages) {
  obs::ledger::Record rec;
  rec.runId = "run-1";
  rec.time = "2026-08-09T00:00:00Z";
  rec.driver = "hsis_serve";
  rec.subject = "m";
  rec.result = "pass";
  rec.traceId = "00000000cafef00d";
  rec.wallSeconds = 0.5;
  rec.stages = {{"queue", 1}, {"parse", 2}, {"tr", 3},
                {"reach", 4}, {"check", 5}, {"render", 6}};
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("hsis_req_roundtrip_" + std::to_string(::getpid()) + ".jsonl");
  std::filesystem::remove(path);
  ASSERT_TRUE(obs::ledger::append(path.string(), rec));
  std::vector<obs::ledger::Record> back = obs::ledger::load(path.string());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].traceId, "00000000cafef00d");
  ASSERT_EQ(back[0].stages.size(), 6u);
  uint64_t total = 0;
  for (const auto& [name, micros] : back[0].stages) total += micros;
  EXPECT_EQ(total, 21u);
  std::filesystem::remove(path);
}

}  // namespace
