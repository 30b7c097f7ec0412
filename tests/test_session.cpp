// hsis::Session — the reusable verification session under Environment and
// the hsis_serve worker pool: digest-keyed load (the compiled-design cache
// primitive), abort safety, and multi-session isolation.
#include <gtest/gtest.h>

#include <thread>

#include "hsis/session.hpp"
#include "models/models.hpp"
#include "obs/control.hpp"
#include "obs/prof.hpp"
#include "test_support.hpp"

namespace {

using namespace hsis;
using namespace hsistest;

TEST(Session, LoadBuildCheckThenResidentReloadIsNoOp) {
  Session s;
  EXPECT_FALSE(s.resident());
  Session::DesignSource src = modelSource("pingpong");

  EXPECT_TRUE(s.load(src));  // cold: compiled
  s.build();
  EXPECT_TRUE(s.resident());
  EXPECT_EQ(s.digest(), src.digest());
  EXPECT_GT(s.lastBuildMicros(), 0u);

  PifFile pif = modelPif("pingpong");
  s.setFairness(pif.fairness);
  size_t checked = 0;
  for (const PifProperty& p : pif.properties) {
    BugReport r = s.check(p);
    EXPECT_TRUE(r.holds) << r.propertyName;
    ++checked;
  }
  EXPECT_GT(checked, 0u);

  // Same source again: resident no-op — nothing parsed or rebuilt.
  EXPECT_FALSE(s.load(src));
  s.build();
  EXPECT_EQ(s.lastBuildMicros(), 0u);
  EXPECT_TRUE(s.resident());

  // The resident design still answers checks after the no-op reload.
  BugReport again = s.check(pif.properties.front());
  EXPECT_TRUE(again.holds);
}

TEST(Session, LoadingDifferentDesignRecompiles) {
  Session s;
  ASSERT_TRUE(s.load(modelSource("pingpong")));
  s.build();
  std::string first = s.digest();

  ASSERT_TRUE(s.load(modelSource("philos")));  // different digest: recompile
  s.build();
  EXPECT_NE(s.digest(), first);
  EXPECT_GT(s.lastBuildMicros(), 0u);

  PifFile pif = modelPif("philos");
  s.setFairness(pif.fairness);
  BugReport r = s.check(pif.properties.front());  // mutex: holds
  EXPECT_TRUE(r.holds);
}

TEST(Session, UnloadLeavesSessionReusable) {
  Session s;
  ASSERT_TRUE(s.load(modelSource("pingpong")));
  s.build();
  s.unload();
  EXPECT_FALSE(s.resident());
  EXPECT_TRUE(s.digest().empty());

  // A fresh load after unload is a full (re)compile.
  EXPECT_TRUE(s.load(modelSource("pingpong")));
  s.build();
  EXPECT_TRUE(s.resident());
}

TEST(Session, AbortDuringCheckLeavesDesignResident) {
  obs::clearAbort();
  Session s;
  ASSERT_TRUE(s.load(modelSource("philos")));
  s.build();
  PifFile pif = modelPif("philos");
  s.setFairness(pif.fairness);

  // Pre-raise a bound task slot: the first safe point inside the check
  // unwinds, like a per-request watchdog breach in the hsis_serve worker.
  obs::TaskAbort slot;
  obs::bindTaskAbort(&slot);
  slot.request("test: simulated budget breach");
  EXPECT_THROW(s.check(pif.properties.front()), obs::AbortedError);
  slot.clear();
  obs::bindTaskAbort(nullptr);

  // The worker-survival contract: the built design stays resident and the
  // session keeps answering.
  EXPECT_TRUE(s.resident());
  BugReport r = s.check(pif.properties.front());
  EXPECT_TRUE(r.holds);
}

TEST(Session, AbortDuringBuildLeavesSessionEmpty) {
  obs::clearAbort();
  Session s;
  obs::TaskAbort slot;
  obs::bindTaskAbort(&slot);
  slot.request("test: abort before build");
  ASSERT_TRUE(s.load(modelSource("scheduler")));
  EXPECT_THROW(s.build(), obs::AbortedError);
  slot.clear();
  obs::bindTaskAbort(nullptr);

  // No half-built machine, no digest claim: the next load starts clean.
  EXPECT_FALSE(s.resident());
  EXPECT_TRUE(s.digest().empty());
  EXPECT_TRUE(s.load(modelSource("scheduler")));
  s.build();
  EXPECT_TRUE(s.resident());
}

TEST(Session, TwoConcurrentSessionsStayIndependent) {
  // Two Sessions (two BddManagers, one process) running reachability + CTL
  // on different models from different threads — the hsis_serve pool's
  // parallelism in miniature. Each thread records its own verdicts and its
  // manager's census; the BDD heaps must not bleed into each other.
  struct Result {
    double reached = 0.0;
    size_t passed = 0, total = 0;
    hsis::obs::prof::BddCensus census;
  };
  Result r1, r2;

  auto run = [](const char* model, Result& out) {
    Session s;
    ASSERT_TRUE(s.load(modelSource(model)));
    s.build();
    PifFile pif = modelPif(model);
    s.setFairness(pif.fairness);
    out.reached = s.reachedStates();
    for (const PifProperty& p : pif.properties) {
      if (p.kind != PifProperty::Kind::Ctl) continue;  // CTL: same manager
      BugReport r = s.check(p);
      ++out.total;
      if (r.holds) ++out.passed;
    }
    out.census = s.manager().census();
  };

  std::thread t1([&] { run("pingpong", r1); });
  std::thread t2([&] { run("gigamax", r2); });
  t1.join();
  t2.join();

  // Both sessions produced their documented single-session results even
  // though they ran concurrently.
  EXPECT_GT(r1.reached, 0.0);
  EXPECT_GT(r2.reached, 0.0);
  EXPECT_NE(r1.reached, r2.reached);  // different models, different spaces
  EXPECT_EQ(r1.passed, r1.total);
  EXPECT_EQ(r2.passed, r2.total);
  EXPECT_GT(r1.total, 0u);
  EXPECT_GT(r2.total, 0u);

  // Census accounting is per manager: each heap holds its own live nodes
  // and each census satisfies its own level-sum invariant.
  EXPECT_GT(r1.census.liveNodes, 0u);
  EXPECT_GT(r2.census.liveNodes, 0u);
  auto levelSum = [](const hsis::obs::prof::BddCensus& c) {
    uint64_t sum = 0;
    for (uint64_t n : c.levelNodes) sum += n;
    return sum;
  };
  EXPECT_EQ(levelSum(r1.census), r1.census.liveNodes);
  EXPECT_EQ(levelSum(r2.census), r2.census.liveNodes);
  // gigamax is a much larger design than pingpong; if the managers shared
  // state the counts could not stay this far apart.
  EXPECT_NE(r1.census.liveNodes, r2.census.liveNodes);
}

}  // namespace
