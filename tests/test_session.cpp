// hsis::Session — the paper's Figure-1 toolflow (read a design and its
// PIF, build the machine, check in either paradigm, report) and the
// reusable session under hsis_cli, par::checkBatch and the hsis_serve
// worker pool: digest-keyed load (the compiled-design cache primitive),
// abort safety, and multi-session isolation.
#include <gtest/gtest.h>

#include <thread>

#include "hsis/session.hpp"
#include "models/models.hpp"
#include "obs/control.hpp"
#include "par/batch.hpp"
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

// ---- the Figure-1 toolflow on small designs ----

const char* kMutexVerilog = R"(
module top;
  wire clk;
  enum { idle, trying, critical } p0, p1;
  wire grant0, grant1, req0, req1;
  assign req0 = $ND(0, 1);
  assign req1 = $ND(0, 1);
  assign grant0 = (p0 == trying) && !(p1 == critical);
  assign grant1 = (p1 == trying) && !(p0 == critical) && !grant0;
  always @(posedge clk) begin
    case (p0)
      idle:     if (req0) p0 <= trying;
      trying:   if (grant0) p0 <= critical;
      critical: p0 <= idle;
    endcase
  end
  always @(posedge clk) begin
    case (p1)
      idle:     if (req1) p1 <= trying;
      trying:   if (grant1) p1 <= critical;
      critical: p1 <= idle;
    endcase
  end
  initial p0 = idle;
  initial p1 = idle;
endmodule
)";

const char* kMutexPif = R"PIF(
ctl mutex "AG !(p0=critical & p1=critical)";
ctl no_both_trying "AG !(p0=trying & p1=trying)";
automaton never_both {
  state A init;
  state B;
  edge A -> A on "!(p0=critical & p1=critical)";
  edge A -> B on "p0=critical & p1=critical";
  edge B -> B on "1";
  accept stay A;
}
)PIF";

Session::DesignSource verilog(const char* text, const char* top = "") {
  return {Session::DesignSource::Kind::Verilog, text, top};
}

Session::DesignSource blifMv(const char* text) {
  return {Session::DesignSource::Kind::BlifMv, text, ""};
}

TEST(Session, FullFlow) {
  // Read, check the whole property list as hsis_cli does, report.
  Session s;
  s.load(verilog(kMutexVerilog));
  PifFile pif = parsePif(kMutexPif);
  s.addFairness(pif.fairness);
  std::vector<BugReport> reports =
      par::checkBatch(s, pif.properties).reports;
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_TRUE(reports[0].holds);
  EXPECT_EQ(reports[0].paradigm, BugReport::Paradigm::ModelChecking);
  EXPECT_FALSE(reports[1].holds);
  EXPECT_TRUE(reports[1].trace.has_value());
  EXPECT_TRUE(reports[2].holds);
  EXPECT_EQ(reports[2].paradigm, BugReport::Paradigm::LanguageContainment);

  EXPECT_GT(s.linesVerilog(), 0u);
  EXPECT_GT(s.linesBlifMv(), s.linesVerilog());
  EXPECT_GT(s.lastBuildMicros(), 0u);
  EXPECT_DOUBLE_EQ(s.reachedStates(), 8.0);
}

TEST(Session, ReadBlifMvDirectly) {
  Session s;
  s.load(blifMv(R"(
.model counter
.mv s, ns 4
.table s ns
0 1
1 2
2 3
3 0
.latch ns s
.reset s
0
.end
)"));
  EXPECT_DOUBLE_EQ(s.reachedStates(), 4.0);
  EXPECT_EQ(s.linesVerilog(), 0u);
  BugReport r = s.checkCtl("loops", parseCtl("AG EF s=0"));
  EXPECT_TRUE(r.holds);
}

TEST(Session, FairnessAppliesAcrossParadigms) {
  Session s;
  s.load(blifMv(R"(
.model stall
.mv s, ns 2
.table s ns
0 (0,1)
1 0
.latch ns s
.reset s
0
.end
)"));
  // without fairness the liveness fails
  EXPECT_FALSE(s.checkCtl("live", parseCtl("AG (s=0 -> AF s=1)")).holds);
  s.addFairness(parsePif("fairness { nostay \"s=0\"; }").fairness);
  EXPECT_TRUE(s.checkCtl("live", parseCtl("AG (s=0 -> AF s=1)")).holds);

  // the same fairness feeds language containment
  Automaton live("live");
  live.addState("wait");
  live.addState("seen");
  live.addEdge("wait", "seen", parseSigExpr("s=1"));
  live.addEdge("wait", "wait", parseSigExpr("s!=1"));
  live.addEdge("seen", "seen", parseSigExpr("s=1"));
  live.addEdge("seen", "wait", parseSigExpr("s!=1"));
  live.setBuchiAcceptance({"seen"});
  EXPECT_TRUE(s.checkAutomaton("keeps_visiting", live).holds);
}

TEST(Session, SimulatorAccess) {
  Session s;
  s.load(verilog(kMutexVerilog));
  Simulator sim = s.makeSimulator(3);
  EXPECT_GE(sim.successors().size(), 1u);
  EXPECT_DOUBLE_EQ(sim.reachableCount(), 8.0);
}

TEST(Session, ErrorsWithoutDesign) {
  Session s;
  EXPECT_THROW(s.build(), std::runtime_error);
}

TEST(Session, OptionsRespected) {
  Session::Options opts;
  opts.partitionedTr = false;
  opts.quantMethod = QuantMethod::Tree;
  opts.earlyFailureDetection = false;
  opts.wantTraces = false;
  Session s(opts);
  s.load(verilog(kMutexVerilog));
  BugReport r = s.checkCtl("fails", parseCtl("AG !(p0=trying & p1=trying)"));
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.trace.has_value());
  EXPECT_FALSE(r.usedEarlyFailure);
  EXPECT_TRUE(s.tr().isMonolithic());
}

TEST(Session, VerilogTopSelection) {
  Session s;
  s.load(verilog(R"(
module one;
  wire clk;
  reg r;
  always @(posedge clk) r <= !r;
  initial r = 0;
endmodule
module two;
  wire clk;
  reg [1:0] q;
  always @(posedge clk) q <= q + 1;
  initial q = 0;
endmodule
)",
                 "two"));
  EXPECT_DOUBLE_EQ(s.reachedStates(), 4.0);
}

}  // namespace
