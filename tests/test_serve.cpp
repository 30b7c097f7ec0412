// hsis::serve — wire protocol round-trips, the LRU compiled-design cache,
// the SessionPool (cold/warm hits, budget aborts, admission control), and
// a socket-level end-to-end pass over the Unix-domain server.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "cex/cex.hpp"
#include "cov/cov.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "serve/cache.hpp"
#include "serve/pool.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "test_support.hpp"

namespace {

using namespace hsis::serve;
using namespace hsistest;

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, CheckRequestRoundTrips) {
  Request req;
  req.op = Request::Op::Check;
  req.id = "r-42";
  req.check.id = "r-42";
  req.check.name = "my design";
  req.check.design.kind = hsis::Session::DesignSource::Kind::BlifMv;
  req.check.design.text = ".model m\n.inputs a\n.end\n";
  req.check.pif = "CTL \"p\": AG(a=1);\n";
  req.check.budget = {2.5, 64};
  req.check.wantTrace = false;

  Request back = parseRequest(renderRequest(req));
  EXPECT_EQ(back.op, Request::Op::Check);
  EXPECT_EQ(back.id, "r-42");
  EXPECT_EQ(back.check.name, "my design");
  EXPECT_EQ(back.check.design.kind,
            hsis::Session::DesignSource::Kind::BlifMv);
  EXPECT_EQ(back.check.design.text, req.check.design.text);
  EXPECT_EQ(back.check.pif, req.check.pif);
  EXPECT_DOUBLE_EQ(back.check.budget.wallSeconds, 2.5);
  EXPECT_EQ(back.check.budget.rssMb, 64u);
  EXPECT_FALSE(back.check.wantTrace);
  // Round-tripping preserves the digest — the cache key survives the wire.
  EXPECT_EQ(back.check.design.digest(), req.check.design.digest());
}

TEST(ServeProtocol, ControlRequestsRoundTrip) {
  for (Request::Op op :
       {Request::Op::Ping, Request::Op::Stats, Request::Op::Shutdown}) {
    Request req;
    req.op = op;
    req.id = "c-1";
    Request back = parseRequest(renderRequest(req));
    EXPECT_EQ(back.op, op);
    EXPECT_EQ(back.id, "c-1");
  }
}

TEST(ServeProtocol, MalformedRequestsThrow) {
  EXPECT_THROW(parseRequest("not json"), ProtocolError);
  EXPECT_THROW(parseRequest("[1,2]"), ProtocolError);
  EXPECT_THROW(parseRequest(R"({"op": "launch", "id": "x"})"),
               ProtocolError);
  EXPECT_THROW(parseRequest(R"({"op": "check", "id": "x"})"),
               ProtocolError);  // no design
  EXPECT_THROW(
      parseRequest(
          R"({"op": "check", "id": "x", "design": {"kind": "vhdl", "text": "e"}})"),
      ProtocolError);  // bad kind
  EXPECT_THROW(
      parseRequest(
          R"({"op": "check", "id": "x", "design": {"kind": "verilog", "text": ""}})"),
      ProtocolError);  // empty text
}

TEST(ServeProtocol, FramesParseBackWithEscapes) {
  VerdictInfo v;
  v.property = "no \"deadlock\"";
  v.holds = false;
  v.seconds = 0.25;
  v.trace = "step 0: a=1\nstep 1: a=0";
  Frame f = parseFrame(verdictFrame("id-1", v));
  EXPECT_EQ(f.event, "verdict");
  EXPECT_EQ(f.id, "id-1");
  const auto* prop = hsis::obs::jsonlite::find(f.body.object(), "property");
  ASSERT_NE(prop, nullptr);
  EXPECT_EQ(prop->str(), v.property);
  const auto* trace = hsis::obs::jsonlite::find(f.body.object(), "trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->str(), v.trace);

  DoneStats stats;
  stats.cacheHit = true;
  stats.properties = 3;
  Frame done = parseFrame(doneFrame("id-1", "pass", "", stats));
  EXPECT_EQ(done.event, "done");
  Frame err = parseFrame(errorFrame("id-2", "queue full"));
  EXPECT_EQ(err.event, "error");
  EXPECT_EQ(err.id, "id-2");
}

// ------------------------------------------------------------------- cache

TEST(ServeCache, LruAssignsEmptyThenEvictsColdest) {
  DesignCache cache(2);
  EXPECT_FALSE(cache.find("a").has_value());

  size_t slotA = cache.assign("a");
  size_t slotB = cache.assign("b");
  EXPECT_NE(slotA, slotB);
  EXPECT_EQ(cache.evictions(), 0u);  // both landed in empty slots
  EXPECT_EQ(cache.find("a"), std::optional<size_t>(slotA));

  // Touch "a" so "b" is the LRU victim for the next assignment.
  cache.touch("a");
  size_t slotC = cache.assign("c");
  EXPECT_EQ(slotC, slotB);  // cold design evicted
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.find("b").has_value());
  EXPECT_EQ(cache.find("a"), std::optional<size_t>(slotA));

  // assign() is idempotent for a mapped digest.
  EXPECT_EQ(cache.assign("a"), slotA);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ServeCache, DropFreesTheSlot) {
  DesignCache cache(1);
  size_t slot = cache.assign("x");
  cache.drop("x");
  EXPECT_FALSE(cache.find("x").has_value());
  // The freed slot is reused without counting an eviction.
  EXPECT_EQ(cache.assign("y"), slot);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.residents().size(), 1u);
  EXPECT_EQ(cache.residents()[0], "y");
}

// -------------------------------------------------------------------- pool

TEST(ServePool, ColdMissThenWarmHitSkipsCompile) {
  PoolOptions opts;
  opts.workers = 1;
  SessionPool pool(opts);

  FrameLog cold;
  ASSERT_TRUE(pool.submit(modelCheck("pingpong", "cold"), cold.sink()));
  ASSERT_TRUE(cold.waitDone());
  EXPECT_EQ(cold.doneVerdict(), "pass");
  EXPECT_EQ(cold.doneCache(), "miss");
  EXPECT_GT(cold.doneReadMicros(), 0.0);

  FrameLog warm;
  ASSERT_TRUE(pool.submit(modelCheck("pingpong", "warm"), warm.sink()));
  ASSERT_TRUE(warm.waitDone());
  EXPECT_EQ(warm.doneVerdict(), "pass");
  // The acceptance-criteria invariant: a cache-resident request skips
  // parse/flatten/TR entirely — hit with zero read time.
  EXPECT_EQ(warm.doneCache(), "hit");
  EXPECT_EQ(warm.doneReadMicros(), 0.0);

  SessionPool::Stats s = pool.stats();
  EXPECT_EQ(s.cacheHits, 1u);
  EXPECT_EQ(s.cacheMisses, 1u);
  EXPECT_EQ(s.completed, 2u);
  pool.shutdown(false);
}

TEST(ServePool, WarmRequestReusesTheCoverageRollup) {
  if (!hsis::cov::coverageEnabled()) GTEST_SKIP() << "coverage disabled";
  PoolOptions opts;
  opts.workers = 1;
  SessionPool pool(opts);
  hsis::obs::Counter& analyses = hsis::obs::counter("cov.reports");

  const uint64_t before = analyses.value();
  FrameLog cold;
  ASSERT_TRUE(pool.submit(modelCheck("pingpong", "cold"), cold.sink()));
  ASSERT_TRUE(cold.waitDone());
  EXPECT_EQ(analyses.value(), before + 1);

  // The warm request carries the same rollup without a second analysis:
  // the design, and so its reached set, did not change.
  FrameLog warm;
  ASSERT_TRUE(pool.submit(modelCheck("pingpong", "warm"), warm.sink()));
  ASSERT_TRUE(warm.waitDone());
  EXPECT_EQ(warm.doneCache(), "hit");
  EXPECT_EQ(analyses.value(), before + 1);
  for (const char* key : {"state_fraction", "values_reached", "values_total",
                          "bins_hit", "bins_total"}) {
    EXPECT_GE(cold.doneCoverage(key), 0.0) << key;
    EXPECT_EQ(warm.doneCoverage(key), cold.doneCoverage(key)) << key;
  }
  EXPECT_EQ(pool.stats().covReports, 2u);
  pool.shutdown(false);
}

TEST(ServePool, BudgetAbortAnswersAbortedAndWorkerSurvives) {
  PoolOptions opts;
  opts.workers = 1;
  SessionPool pool(opts);

  // 2mdlc runs for hundreds of milliseconds; a 50 ms wall budget breaches
  // mid-request. The watchdog targets the worker's TaskAbort slot, so the
  // request unwinds at a safe point and answers `aborted`.
  CheckRequest slow = modelCheck("2mdlc", "over-budget");
  slow.budget.wallSeconds = 0.05;
  FrameLog aborted;
  ASSERT_TRUE(pool.submit(slow, aborted.sink()));
  ASSERT_TRUE(aborted.waitDone());
  EXPECT_EQ(aborted.doneVerdict(), "aborted");

  // The worker (and its Session) survives: the next request on the same
  // worker completes normally.
  FrameLog after;
  ASSERT_TRUE(pool.submit(modelCheck("pingpong", "after"), after.sink()));
  ASSERT_TRUE(after.waitDone());
  EXPECT_EQ(after.doneVerdict(), "pass");

  SessionPool::Stats s = pool.stats();
  EXPECT_EQ(s.aborted, 1u);
  EXPECT_EQ(s.completed, 1u);
  pool.shutdown(false);
}

TEST(ServePool, FullQueueRejectsWithErrorFrame) {
  PoolOptions opts;
  opts.workers = 1;
  opts.maxQueue = 0;  // reject everything at admission
  SessionPool pool(opts);

  FrameLog rejected;
  EXPECT_FALSE(pool.submit(modelCheck("pingpong", "r"), rejected.sink()));
  ASSERT_TRUE(rejected.waitDone(5));
  const Frame* err = rejected.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(pool.stats().rejected, 1u);
  pool.shutdown(false);
}

TEST(ServePool, ShutdownRejectsLateSubmissions) {
  PoolOptions opts;
  opts.workers = 1;
  SessionPool pool(opts);
  pool.shutdown(false);
  FrameLog late;
  EXPECT_FALSE(pool.submit(modelCheck("pingpong", "late"), late.sink()));
  ASSERT_TRUE(late.waitDone(5));
  EXPECT_NE(late.find("error"), nullptr);
}

TEST(ServePool, FailingCheckCapturesCexArtifact) {
  if (!hsis::cex::cexEnabled()) GTEST_SKIP() << "cex disabled";
  PoolOptions opts;
  opts.workers = 1;
  opts.artifactDir = ::testing::TempDir() + "hsis_cex_pool_" +
                     std::to_string(::getpid());
  SessionPool pool(opts);

  // philos ships a deliberately failing property (no_deadlock), so the
  // request must come back "fail" with a replay-verified artifact pointed
  // at by the done frame.
  FrameLog log;
  ASSERT_TRUE(pool.submit(modelCheck("philos", "cex1"), log.sink()));
  ASSERT_TRUE(log.waitDone());
  EXPECT_EQ(log.doneVerdict(), "fail");

  const Frame* done = log.find("done");
  ASSERT_NE(done, nullptr);
  const auto* stats = hsis::obs::jsonlite::find(done->body.object(), "stats");
  ASSERT_NE(stats, nullptr);
  const auto* cexObj = hsis::obs::jsonlite::find(stats->object(), "cex");
  ASSERT_NE(cexObj, nullptr) << "done frame carries no cex pointer";
  ASSERT_TRUE(cexObj->isObject());
  const auto* path = hsis::obs::jsonlite::find(cexObj->object(), "path");
  const auto* replay = hsis::obs::jsonlite::find(cexObj->object(), "replay");
  ASSERT_NE(path, nullptr);
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(replay->str(), "verified");

  // The artifact pair exists on disk and the JSON parses back.
  std::string jsonPath = path->str() + "/cex.json";
  std::ifstream in(jsonPath);
  ASSERT_TRUE(in.good()) << jsonPath;
  std::ostringstream text;
  text << in.rdbuf();
  hsis::cex::Artifact art = hsis::cex::parseJson(text.str());
  EXPECT_EQ(art.propertyName, "no_deadlock");
  EXPECT_FALSE(art.steps.empty());
  EXPECT_EQ(art.replay, "verified");
  std::ifstream vcd(path->str() + "/cex.vcd");
  EXPECT_TRUE(vcd.good());

  EXPECT_EQ(pool.stats().cexCaptures, 1u);
  pool.shutdown(false);
  std::remove((path->str() + "/cex.json").c_str());
  std::remove((path->str() + "/cex.vcd").c_str());
}

// ------------------------------------------------------------ socket e2e

TEST(ServeServer, SocketEndToEnd) {
  ServerOptions opts;
  opts.socketPath =
      "/tmp/hsis_serve_test_" + std::to_string(::getpid()) + ".sock";
  opts.version = "hsis_serve test";
  opts.pool.workers = 1;
  Server server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.bind(&error)) << error;
  std::thread serverThread([&] { server.run(); });

  int fd = connectTo(server.socketPath());
  std::string buf;

  Request ping;
  ping.op = Request::Op::Ping;
  ping.id = "p1";
  sendLine(fd, renderRequest(ping));
  Frame pong = parseFrame(readLine(fd, buf));
  EXPECT_EQ(pong.event, "pong");
  EXPECT_EQ(pong.id, "p1");

  Request check;
  check.op = Request::Op::Check;
  check.id = "c1";
  check.check = modelCheck("pingpong", "c1");
  sendLine(fd, renderRequest(check));
  std::string verdict, cache;
  for (;;) {
    std::string line = readLine(fd, buf);
    ASSERT_FALSE(line.empty()) << "connection died mid-stream";
    Frame f = parseFrame(line);
    EXPECT_EQ(f.id, "c1");
    if (f.event == "loaded") {
      const auto* c = hsis::obs::jsonlite::find(f.body.object(), "cache");
      if (c != nullptr && c->isString()) cache = c->str();
    }
    if (f.event == "done") {
      const auto* v = hsis::obs::jsonlite::find(f.body.object(), "verdict");
      if (v != nullptr && v->isString()) verdict = v->str();
      break;
    }
    ASSERT_NE(f.event, "error");
  }
  EXPECT_EQ(verdict, "pass");
  EXPECT_EQ(cache, "miss");

  Request bye;
  bye.op = Request::Op::Shutdown;
  bye.id = "s1";
  sendLine(fd, renderRequest(bye));
  Frame byeReply = parseFrame(readLine(fd, buf));
  EXPECT_EQ(byeReply.event, "bye");

  serverThread.join();
  server.pool().shutdown(false);
  ::close(fd);
  ::unlink(server.socketPath().c_str());
}

}  // namespace
