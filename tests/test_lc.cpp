// Tests for ω-automata and the language-containment checker.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string_view>

#include "blifmv/blifmv.hpp"
#include "dead_states.hpp"
#include "designs.hpp"
#include "hsis/session.hpp"
#include "lc/lc.hpp"
#include "models/models.hpp"
#include "obs/control.hpp"
#include "obs/obs.hpp"
#include "par/batch.hpp"
#include "pif/pif.hpp"
#include "proplib/proplib.hpp"
#include "vl2mv/vl2mv.hpp"

namespace hsis {
namespace {

// ------------------------------------------------------------- automaton

Automaton figure2Automaton(const std::string& badExpr) {
  // The paper's Figure 2: stay in A unless the bad condition fires.
  Automaton aut("invariance");
  aut.addState("A");
  aut.addState("B");
  aut.setInitial("A");
  aut.addEdge("A", "A", sigNot(parseSigExpr(badExpr)));
  aut.addEdge("A", "B", parseSigExpr(badExpr));
  aut.addEdge("B", "B", sigTrue());
  aut.setStayAcceptance({"A"});
  return aut;
}

TEST(Automaton, Structure) {
  Automaton aut = figure2Automaton("x=1");
  EXPECT_EQ(aut.numStates(), 2u);
  EXPECT_EQ(aut.initialState(), 0u);
  EXPECT_EQ(aut.stateName(1), "B");
  EXPECT_EQ(aut.findState("B"), std::optional<uint32_t>(1));
  EXPECT_EQ(aut.findState("C"), std::nullopt);
  EXPECT_EQ(aut.edges().size(), 3u);
  ASSERT_EQ(aut.rabinPairs().size(), 1u);
  // stay {A} == Rabin(fin = {B}, inf = all)
  EXPECT_EQ(aut.rabinPairs()[0].fin, std::vector<uint32_t>{1});
}

TEST(Automaton, DeadStates) {
  Automaton aut = figure2Automaton("x=1");
  std::vector<bool> dead = deadStates(aut);
  EXPECT_FALSE(dead[0]);  // A can accept
  EXPECT_TRUE(dead[1]);   // B is the rejecting trap
  // Büchi acceptance on a two-state ping automaton: nothing is dead.
  Automaton b("buchi");
  b.addState("p");
  b.addState("q");
  b.addEdge("p", "q", sigTrue());
  b.addEdge("q", "p", sigTrue());
  b.setBuchiAcceptance({"q"});
  std::vector<bool> bd = deadStates(b);
  EXPECT_FALSE(bd[0]);
  EXPECT_FALSE(bd[1]);
}

/// A product of a one-signal design (x ∈ {0,1}) with an `n`-state monitor.
Fsm monitorProduct(BddManager& mgr, const Automaton& aut) {
  Fsm design(mgr, blifmv::flatten(blifmv::parse(R"(
.model m
.table x
(0,1)
.end
)")));
  std::vector<std::string> names;
  for (uint32_t s = 0; s < aut.numStates(); ++s)
    names.push_back(aut.stateName(s));
  design.reserveMonitorRail(MvSpace::bitsFor(aut.numStates()));
  return design.withMonitor("_monitor", names, aut.initialState());
}

Bdd monitorOn(BddManager& mgr, const Automaton& aut) {
  Fsm product = monitorProduct(mgr, aut);
  return aut.monitorRelation(product, product.stateVars().back(),
                             product.nextVars().back());
}

TEST(Automaton, ErrorsAndChecks) {
  Automaton aut("t");
  aut.addState("A");
  EXPECT_THROW(aut.addState("A"), std::runtime_error);
  EXPECT_THROW(aut.setInitial("Z"), std::runtime_error);
  EXPECT_THROW(aut.addEdge("A", "Z", sigTrue()), std::runtime_error);
  EXPECT_THROW(aut.addRabinPair({"Z"}, {}), std::runtime_error);

  BddManager mgr;
  // no acceptance condition
  Automaton na("na");
  na.addState("A");
  na.addEdge("A", "A", sigTrue());
  EXPECT_THROW(monitorOn(mgr, na), std::runtime_error);
  // nondeterministic guards
  Automaton nd("nd");
  nd.addState("A");
  nd.addState("B");
  nd.addEdge("A", "A", parseSigExpr("x=1"));
  nd.addEdge("A", "B", parseSigExpr("x=1"));
  nd.addEdge("B", "B", sigTrue());
  nd.setStayAcceptance({"A"});
  EXPECT_THROW(monitorOn(mgr, nd), std::runtime_error);
  // incomplete guards
  Automaton inc("inc");
  inc.addState("A");
  inc.addEdge("A", "A", parseSigExpr("x=1"));
  inc.setStayAcceptance({"A"});
  EXPECT_THROW(monitorOn(mgr, inc), std::runtime_error);
  // unknown guard signal, out-of-domain guard value
  EXPECT_THROW(monitorOn(mgr, figure2Automaton("y=1")), std::runtime_error);
  EXPECT_THROW(monitorOn(mgr, figure2Automaton("x=2")), std::runtime_error);
}

TEST(Automaton, MonitorRelationBuildsMonitor) {
  BddManager mgr;
  Automaton aut = figure2Automaton("x=1");
  Fsm product = monitorProduct(mgr, aut);
  ASSERT_EQ(product.numLatches(), 1u);
  EXPECT_EQ(product.latchName(0), "_monitor");
  const MvSpace& space = product.space();
  MvVarId m = product.stateVars().back();
  MvVarId next = product.nextVars().back();
  MvVarId x = *product.signalVar("x");
  EXPECT_EQ(space.valueNames(m), (std::vector<std::string>{"A", "B"}));
  EXPECT_TRUE(product.initialStates() == space.literal(m, 0));

  Bdd t = aut.monitorRelation(product, m, next);
  // 2 assignments of x times 2 states = 4 transitions
  std::vector<BddVar> vars;
  for (MvVarId v : {x, m, next})
    vars.insert(vars.end(), space.bits(v).begin(), space.bits(v).end());
  EXPECT_EQ(mgr.satCount(t, vars), 4.0);
  Bdd fromA = t & space.literal(m, 0) & space.literal(x, 1);
  EXPECT_TRUE(fromA == (fromA & space.literal(next, 1)));
}

// ------------------------------------------------------------ containment

/// Modulo-4 counter; out=1 exactly at s=3.
const char* kCounter = R"(
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
.table s out
3 1
.default 0
.end
)";

TEST(Lc, InvarianceHolds) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  // "out and s=1 never coincide" — true, out only at s=3.
  LcChecker lc(mgr, flat, figure2Automaton("out=1 & s=1"));
  LcResult r = lc.check();
  EXPECT_TRUE(r.contained);
  EXPECT_FALSE(r.trace.has_value());
  EXPECT_GT(r.stats.hullIterations, 0u);
}

TEST(Lc, InvarianceFailsWithEarlyDetectionAndTrace) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  LcChecker lc(mgr, flat, figure2Automaton("out=1"));
  LcResult r = lc.check();
  EXPECT_FALSE(r.contained);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_TRUE(r.trace->isLasso());
  std::string text = lc.formatTrace(*r.trace);
  EXPECT_NE(text.find("_monitor"), std::string::npos);
}

TEST(Lc, EarlyFailureCanBeDisabled) {
  // Session's early-failure switch is a CTL option: LC gives the same
  // verdict and trace with it on or off.
  std::vector<BugReport> reports;
  for (bool efd : {true, false}) {
    Session::Options opts;
    opts.earlyFailureDetection = efd;
    Session s(opts);
    Session::DesignSource src;
    src.kind = Session::DesignSource::Kind::BlifMv;
    src.text = kCounter;
    s.load(src);
    reports.push_back(s.checkAutomaton("inv", figure2Automaton("out=1")));
  }
  for (const BugReport& r : reports) {
    EXPECT_FALSE(r.holds);
    EXPECT_FALSE(r.usedEarlyFailure);
    ASSERT_FALSE(r.notes.empty());
    EXPECT_NE(r.notes.back().find("error trace"), std::string::npos);
  }
  EXPECT_EQ(reports[0].notes, reports[1].notes);
}

TEST(Lc, BuchiLiveness) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  // the counter passes s=3 infinitely often
  Automaton live("live");
  live.addState("wait");
  live.addState("seen");
  live.addEdge("wait", "seen", parseSigExpr("s=3"));
  live.addEdge("wait", "wait", parseSigExpr("s!=3"));
  live.addEdge("seen", "seen", parseSigExpr("s=3"));
  live.addEdge("seen", "wait", parseSigExpr("s!=3"));
  live.setBuchiAcceptance({"seen"});
  LcChecker lc(mgr, flat, live);
  EXPECT_TRUE(lc.check().contained);
}

TEST(Lc, BuchiLivenessFailsWithLasso) {
  BddManager mgr;
  // A machine that may stall forever at s=0.
  auto flat = blifmv::flatten(blifmv::parse(R"(
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
  Automaton live("live");
  live.addState("wait");
  live.addState("seen");
  live.addEdge("wait", "seen", parseSigExpr("s=1"));
  live.addEdge("wait", "wait", parseSigExpr("s!=1"));
  live.addEdge("seen", "seen", parseSigExpr("s=1"));
  live.addEdge("seen", "wait", parseSigExpr("s!=1"));
  live.setBuchiAcceptance({"seen"});
  LcChecker lc(mgr, flat, live);
  LcResult r = lc.check();
  ASSERT_FALSE(r.contained);
  ASSERT_TRUE(r.trace.has_value());
  // the counterexample cycle never visits s=1
  for (size_t i = static_cast<size_t>(r.trace->cycleStart);
       i < r.trace->states.size(); ++i) {
    EXPECT_EQ(lc.fsm().decodeState(r.trace->states[i])[0], 0u);
  }
}

TEST(Lc, NoStayFairnessRescuesLiveness) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(R"(
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
  Automaton live("live");
  live.addState("wait");
  live.addState("seen");
  live.addEdge("wait", "seen", parseSigExpr("s=1"));
  live.addEdge("wait", "wait", parseSigExpr("s!=1"));
  live.addEdge("seen", "seen", parseSigExpr("s=1"));
  live.addEdge("seen", "wait", parseSigExpr("s!=1"));
  live.setBuchiAcceptance({"seen"});
  FairnessSpec fair;
  fair.noStay.push_back(parseSigExpr("s=0"));  // cannot stall forever
  LcChecker lc(mgr, flat, live, fair);
  EXPECT_TRUE(lc.check().contained);
}

TEST(Lc, FairEdgeConstraint) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(R"(
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
  Automaton live("live");
  live.addState("wait");
  live.addState("seen");
  live.addEdge("wait", "seen", parseSigExpr("s=1"));
  live.addEdge("wait", "wait", parseSigExpr("s!=1"));
  live.addEdge("seen", "seen", parseSigExpr("s=1"));
  live.addEdge("seen", "wait", parseSigExpr("s!=1"));
  live.setBuchiAcceptance({"seen"});
  FairnessSpec fair;
  // the edge s=0 -> s=1 must be taken infinitely often
  fair.fairEdges.emplace_back(parseSigExpr("s=0"), parseSigExpr("s=1"));
  LcChecker lc(mgr, flat, live, fair);
  EXPECT_TRUE(lc.check().contained);
  EXPECT_EQ(lc.edgeSets().size(), 1u);
}

TEST(Lc, FairEdgeRejectsCombinationalGuards) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  FairnessSpec fair;
  fair.fairEdges.emplace_back(parseSigExpr("s=0"), parseSigExpr("s=1"));
  {
    // fine: both sides over latches
    LcChecker lc(mgr, flat, figure2Automaton("out=1 & s=1"), fair);
  }
  FairnessSpec bad;
  bad.fairEdges.emplace_back(parseSigExpr("out=1"), parseSigExpr("s=1"));
  BddManager mgr2;
  EXPECT_THROW(
      LcChecker(mgr2, flat, figure2Automaton("out=1 & s=1"), bad),
      std::runtime_error);
}

TEST(Lc, VacuousPassWhenFairnessUnsatisfiable) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  FairnessSpec fair;
  // s=1 and s=2 simultaneously is impossible: no fair runs at all
  fair.buchi.push_back(parseSigExpr("s=1 & s=2"));
  LcChecker lc(mgr, flat, figure2Automaton("out=1"), fair);
  LcResult r = lc.check();
  EXPECT_TRUE(r.contained);
  ASSERT_FALSE(r.notes.empty());
  EXPECT_NE(r.notes[0].find("vacuous"), std::string::npos);
}

TEST(Lc, MonolithicAndPartitionedAgree) {
  for (bool partitioned : {false, true}) {
    BddManager mgr;
    auto flat = blifmv::flatten(blifmv::parse(kCounter));
    LcOptions opts;
    opts.partitionedTr = partitioned;
    LcChecker lc(mgr, flat, figure2Automaton("out=1 & s=1"), {}, opts);
    EXPECT_TRUE(lc.check().contained);
    BddManager mgr2;
    LcChecker lc2(mgr2, flat, figure2Automaton("out=1"), {}, opts);
    EXPECT_FALSE(lc2.check().contained);
  }
}

TEST(Lc, RabinPairAcceptance) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  // explicit Rabin pair equivalent to the stay-acceptance
  Automaton aut("rabin");
  aut.addState("A");
  aut.addState("B");
  aut.addEdge("A", "A", parseSigExpr("!(out=1 & s=1)"));
  aut.addEdge("A", "B", parseSigExpr("out=1 & s=1"));
  aut.addEdge("B", "B", sigTrue());
  aut.addRabinPair({"B"}, {"A"});
  LcChecker lc(mgr, flat, aut);
  EXPECT_TRUE(lc.check().contained);
}

TEST(Lc, MonitorNameAvoidsCollision) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(R"(
.model m
.table _monitor
(0,1)
.table _monitor x
- =_monitor
.end
)"));
  // design already uses "_monitor": the checker must pick another name
  LcChecker lc(mgr, flat, figure2Automaton("x=1"));
  EXPECT_NE(lc.monitorSignal(), "_monitor");
}

// ------------------------------------------- product on the resident design

Session::DesignSource verilogSource(std::string_view text,
                                    std::string_view top = {}) {
  Session::DesignSource src;
  src.kind = Session::DesignSource::Kind::Verilog;
  src.text = std::string(text);
  src.top = std::string(top);
  return src;
}

/// The standalone wrapper's verdict: design built afresh in its own manager.
bool standaloneVerdict(const blifmv::Model& flat, const Automaton& aut,
                       const FairnessSpec& fairness) {
  BddManager mgr;
  LcChecker lc(mgr, flat, aut, fairness);
  return lc.check().contained;
}

TEST(LcSession, MatchesStandaloneOnTableOneModels) {
  size_t compared = 0;
  for (const models::ModelDef& m : models::all()) {
    Session s;
    s.load(verilogSource(m.verilog, m.top));
    s.build();
    PifFile pif = parsePif(std::string(m.pif));
    s.setFairness(pif.fairness);
    for (const PifProperty& p : pif.properties) {
      if (p.kind != PifProperty::Kind::Automaton) continue;
      BugReport r = s.checkAutomaton(p.name, p.aut);
      EXPECT_EQ(r.holds, standaloneVerdict(s.flatModel(), p.aut, pif.fairness))
          << m.name << "/" << p.name;
      ++compared;
    }
  }
  EXPECT_GE(compared, 12u);
}

/// A requester/server pair with a $ND request line (the proplib fixture).
const char* kReqAck = R"(
module m;
  wire clk;
  reg req, ack, gnt0, gnt1, turn;
  reg [1:0] cnt;
  always @(posedge clk) begin
    req <= $ND(0, 1);
    ack <= req;
    turn <= !turn;
    gnt0 <= turn;
    gnt1 <= !turn;
    cnt <= cnt + 1;
  end
  initial req = 0;
  initial ack = 0;
  initial turn = 0;
  initial gnt0 = 0;
  initial gnt1 = 0;
  initial cnt = 0;
endmodule
)";

TEST(LcSession, MatchesStandaloneOnProplibTemplates) {
  Session s;
  s.load(verilogSource(kReqAck));
  s.build();
  auto e = [](const char* text) { return parseSigExpr(text); };
  const std::vector<PifProperty> props = {
      proplib::invariantAutomaton("inv_ok", e("!(gnt0 & gnt1)")),
      proplib::invariantAutomaton("inv_bad", e("cnt!=3")),
      proplib::mutualExclusion("mutex_ok", e("gnt0"), e("gnt1")),
      proplib::mutualExclusion("mutex_bad", e("req"), e("ack")),
      proplib::absenceAfter("absence", e("cnt=0"), e("cnt=3")),
      proplib::precedence("prec_ok", e("req"), e("ack")),
      proplib::precedence("prec_bad", e("ack"), e("req")),
      proplib::cyclicOrder("cyclic_ok", {e("cnt=0"), e("cnt=1"), e("cnt=2")}),
      proplib::cyclicOrder("cyclic_bad", {e("cnt=1"), e("cnt=0")}),
      proplib::existence("exist", e("cnt=2")),
      proplib::response("resp_ctl", e("req"), e("ack")),
      proplib::responseAutomaton("resp_ok", e("req"), e("ack")),
      proplib::responseAutomaton("resp_bad", e("ack"), e("req")),
      proplib::recurrence("rec_ok", e("turn")),
      proplib::recurrence("rec_bad", e("req")),
      proplib::recurrenceCtl("rec_ctl", e("turn")),
      proplib::resettable("reset", e("cnt=0")),
  };
  size_t automata = 0;
  std::set<bool> verdicts;
  for (const PifProperty& p : props) {
    BugReport r = s.check(p);
    if (p.kind != PifProperty::Kind::Automaton) continue;
    ++automata;
    verdicts.insert(r.holds);
    EXPECT_EQ(r.holds, standaloneVerdict(s.flatModel(), p.aut, {})) << p.name;
  }
  EXPECT_GE(automata, 10u);
  EXPECT_EQ(verdicts.size(), 2u);  // both verdicts exercised
}

TEST(LcSession, StateFunctionGuardsAddOneClusterWithoutReclustering) {
  // philos' guards read the combinational eating nets e0..e3.
  const models::ModelDef* m = models::find("philos");
  BddManager mgr;
  Fsm design(mgr, blifmv::flatten(vl2mv::compile(std::string(m->verilog),
                                                 std::string(m->top))));
  TransitionRelation tr = TransitionRelation::partitioned(design);
  Bdd reached = reachableStates(tr, design.initialStates()).reached;
  TransitionRelation active = tr.minimized(reached);
  PifFile pif = parsePif(std::string(m->pif));
  for (const PifProperty& p : pif.properties) {
    if (p.kind != PifProperty::Kind::Automaton) continue;
    LcChecker lc(design, active, reached, p.aut, pif.fairness);
    EXPECT_FALSE(lc.reclustered()) << p.name;
    EXPECT_EQ(lc.tr().clusterCount(), active.clusterCount() + 1) << p.name;
    EXPECT_EQ(lc.fsm().numLatches(), design.numLatches() + 1);
  }
}

TEST(LcSession, NondeterministicGuardFallsBackToReclustering) {
  // The guard reads a $ND net that is also the latch's next state: the
  // monitor must see the same choice the design makes. Quantifying the
  // guard apart from the design step would let the monitor read nd=1 on a
  // step where the design latched 0 — a false failure.
  const char* kNd = R"(
.model nd
.table nd
(0,1)
.latch nd s
.reset s
0
.end
)";
  Automaton aut("nd_is_latched");
  aut.addState("idle");
  aut.addState("expect");
  aut.addState("bad");
  aut.addEdge("idle", "idle", parseSigExpr("!nd"));
  aut.addEdge("idle", "expect", parseSigExpr("nd"));
  aut.addEdge("expect", "expect", parseSigExpr("s=1 & nd"));
  aut.addEdge("expect", "idle", parseSigExpr("s=1 & !nd"));
  aut.addEdge("expect", "bad", parseSigExpr("s=0"));
  aut.addEdge("bad", "bad", sigTrue());
  aut.setStayAcceptance({"idle", "expect"});

  blifmv::Model flat = blifmv::flatten(blifmv::parse(kNd));
  BddManager mgr;
  Fsm design(mgr, flat);
  TransitionRelation tr = TransitionRelation::partitioned(design);
  Bdd reached = reachableStates(tr, design.initialStates()).reached;
  LcChecker lc(design, tr.minimized(reached), reached, aut);
  EXPECT_TRUE(lc.reclustered());
  EXPECT_TRUE(lc.check().contained);
  EXPECT_TRUE(standaloneVerdict(flat, aut, {}));

  Session s;
  Session::DesignSource src;
  src.kind = Session::DesignSource::Kind::BlifMv;
  src.text = kNd;
  s.load(src);
  EXPECT_TRUE(s.checkAutomaton("nd_is_latched", aut).holds);
}

TEST(LcSession, RepeatedChecksReuseTheMonitorRail) {
  const models::ModelDef* m = models::find("philos");
  Session s;
  s.load(verilogSource(m->verilog, m->top));
  PifFile pif = parsePif(std::string(m->pif));
  s.setFairness(pif.fairness);
  std::vector<const PifProperty*> lc;
  for (const PifProperty& p : pif.properties)
    if (p.kind == PifProperty::Kind::Automaton) lc.push_back(&p);
  ASSERT_GE(lc.size(), 2u);
  std::vector<bool> expected;
  for (const PifProperty* p : lc) expected.push_back(s.check(*p).holds);
  const uint32_t vars = s.manager().numVars();
  for (size_t i = 0; i < 600; ++i) {
    const size_t k = i % lc.size();
    ASSERT_EQ(s.check(*lc[k]).holds, expected[k]) << i;
  }
  EXPECT_EQ(s.manager().numVars(), vars);
}

TEST(LcSession, MonitorRailWidensOnlyForWiderAutomata) {
  Session s;
  Session::DesignSource src;
  src.kind = Session::DesignSource::Kind::BlifMv;
  src.text = kCounter;
  s.load(src);
  s.build();
  // A 2-state monitor takes one rail pair, a 5-state one three.
  auto chain = [](uint32_t n) {
    Automaton aut("chain" + std::to_string(n));
    for (uint32_t i = 0; i < n; ++i) aut.addState("q" + std::to_string(i));
    for (uint32_t i = 0; i < n; ++i)
      aut.addEdge("q" + std::to_string(i), "q" + std::to_string((i + 1) % n),
                  sigTrue());
    aut.setBuchiAcceptance({"q0"});
    return aut;
  };
  const uint32_t base = s.manager().numVars();
  EXPECT_TRUE(s.checkAutomaton("two", chain(2)).holds);
  EXPECT_EQ(s.manager().numVars(), base + 2);
  EXPECT_TRUE(s.checkAutomaton("five", chain(5)).holds);
  EXPECT_EQ(s.manager().numVars(), base + 6);
  EXPECT_TRUE(s.checkAutomaton("two", chain(2)).holds);
  EXPECT_TRUE(s.checkAutomaton("four", chain(4)).holds);
  EXPECT_EQ(s.manager().numVars(), base + 6);
}

TEST(LcSession, BatchRunsContainmentOnReplicas) {
  const models::ModelDef* m = models::find("pingpong");
  PifFile pif = parsePif(std::string(m->pif));
  std::vector<PifProperty> lc;
  for (const PifProperty& p : pif.properties)
    if (p.kind == PifProperty::Kind::Automaton) lc.push_back(p);
  ASSERT_GE(lc.size(), 4u);
  Session serial;
  serial.load(verilogSource(m->verilog, m->top));
  serial.setFairness(pif.fairness);
  Session s;
  s.load(verilogSource(m->verilog, m->top));
  s.setFairness(pif.fairness);
  s.build();
  const uint32_t vars = s.manager().numVars();
  par::BatchReport batch = par::checkBatch(s, lc, {.jobs = 4});
  ASSERT_EQ(batch.reports.size(), lc.size());
  for (size_t i = 0; i < lc.size(); ++i) {
    BugReport want = serial.check(lc[i]);
    EXPECT_EQ(batch.reports[i].holds, want.holds) << lc[i].name;
    EXPECT_EQ(batch.reports[i].notes, want.notes) << lc[i].name;
  }
  EXPECT_EQ(batch.aborted, 0u);
  EXPECT_GT(batch.transferredNodes, 0u);
  // The caller checks some monitors on the session, whose rail grows at
  // most to what the serial session needed for all of them; the rest ran
  // on the replicas' rails.
  EXPECT_GE(s.manager().numVars(), vars);
  EXPECT_LE(s.manager().numVars(), serial.manager().numVars());
  // The session answers as before afterwards.
  for (size_t i = 0; i < lc.size(); ++i)
    EXPECT_EQ(s.check(lc[i]).holds, batch.reports[i].holds) << lc[i].name;
}

TEST(LcSession, AbortMidCheckLeavesSessionReusable) {
  obs::clearAbort();
  const models::ModelDef* m = models::find("scheduler");
  Session s;
  s.load(verilogSource(m->verilog, m->top));
  PifFile pif = parsePif(std::string(m->pif));
  s.setFairness(pif.fairness);
  const PifProperty* prop = nullptr;
  for (const PifProperty& p : pif.properties)
    if (p.kind == PifProperty::Kind::Automaton) prop = &p;
  ASSERT_NE(prop, nullptr);
  (void)s.reachedStates();  // the design's fixpoint is cached first

  // Pre-raised: every BDD operation boundary is a safe point, so the abort
  // lands at the first one inside lc.build, while the monitor latch is
  // being added to the design (before lc.monitor opens).
  obs::TaskAbort slot;
  obs::bindTaskAbort(&slot);
  slot.request("test: abort inside a containment check");
  EXPECT_THROW(s.check(*prop), obs::AbortedError);
  slot.clear();
  obs::bindTaskAbort(nullptr);

  EXPECT_TRUE(s.resident());
  const uint32_t vars = s.manager().numVars();
  EXPECT_TRUE(s.check(*prop).holds);
  EXPECT_EQ(s.manager().numVars(), vars);
  for (const PifProperty& p : pif.properties)
    EXPECT_TRUE(s.check(p).holds) << p.name;
}

// ------------------------------- backward decision vs a forward reference

Bdd stateCube(const Fsm& fsm, const std::vector<int8_t>& state) {
  return fsm.stateFromValues(fsm.decodeState(state));
}

/// A design built in its own manager and reached, with the reached-
/// minimized TR a session hands the LC checker.
struct ReachedDesign {
  ReachedDesign(const std::string& verilog, const std::string& top)
      : fsm(mgr, blifmv::flatten(vl2mv::compile(verilog, top))),
        tr(TransitionRelation::partitioned(fsm)),
        reached(reachableStates(tr, fsm.initialStates()).reached),
        active(tr.minimized(reached)) {}

  BddManager mgr;
  Fsm fsm;
  TransitionRelation tr;
  Bdd reached;
  TransitionRelation active;
};

/// Checks every automaton of `props` on the design against the forward
/// reference (reach the product forward, then take the hull of the reached
/// set R): hull(C) ∧ R == hull(R), check() agrees with hull(R) = ∅, and a
/// failure's trace is a lasso of the product from an initial state.
/// Returns each automaton's verdict by name.
std::map<std::string, bool> checkedAgainstForwardHull(
    const std::string& verilog, const std::string& top,
    const std::vector<PifProperty>& props, const FairnessSpec& fairness) {
  ReachedDesign d(verilog, top);
  std::map<std::string, bool> verdicts;
  for (const PifProperty& p : props) {
    if (p.kind != PifProperty::Kind::Automaton) continue;
    LcChecker lc(d.fsm, d.active, d.reached, p.aut, fairness);
    const Fsm& product = lc.fsm();
    const Bdd& init = product.initialStates();
    Bdd r = reachableStates(lc.tr(), init).reached;
    Bdd hullR = lc.fairHull(r);
    EXPECT_TRUE((lc.fairHull(lc.domain()) & r) == hullR)
        << p.name << ": hull(C) & R != hull(R)";
    LcResult res = lc.check();
    EXPECT_EQ(res.contained, hullR.isZero()) << p.name;
    verdicts[p.name] = res.contained;
    if (res.contained) continue;
    const bool lasso = res.trace.has_value() && res.trace->isLasso();
    EXPECT_TRUE(lasso) << p.name << ": no lasso";
    if (!lasso) continue;
    const Trace& t = *res.trace;
    EXPECT_TRUE(stateCube(product, t.states[0]).leq(init)) << p.name;
    for (size_t i = 0; i < t.states.size(); ++i) {
      size_t next =
          i + 1 < t.states.size() ? i + 1 : static_cast<size_t>(t.cycleStart);
      EXPECT_TRUE(stateCube(product, t.states[next])
                      .leq(lc.tr().image(stateCube(product, t.states[i]))))
          << p.name << ": no edge at step " << i;
    }
  }
  return verdicts;
}

TEST(LcSession, BackwardDecisionMatchesForwardHull) {
  size_t compared = 0;
  for (const models::ModelDef& m : models::all()) {
    PifFile pif = parsePif(std::string(m.pif));
    compared += checkedAgainstForwardHull(std::string(m.verilog),
                                          std::string(m.top), pif.properties,
                                          pif.fairness)
                    .size();
  }
  EXPECT_GE(compared, 12u);

  // The proplib automaton templates, each beside its CTL twin if it has one.
  auto e = [](const char* text) { return parseSigExpr(text); };
  const std::vector<std::pair<PifProperty, std::optional<PifProperty>>> lib = {
      {proplib::invariantAutomaton("inv_ok", e("!(gnt0 & gnt1)")),
       proplib::invariant("inv_ok_ctl", e("!(gnt0 & gnt1)"))},
      {proplib::invariantAutomaton("inv_bad", e("cnt!=3")),
       proplib::invariant("inv_bad_ctl", e("cnt!=3"))},
      {proplib::precedence("prec_ok", e("req"), e("ack")), std::nullopt},
      {proplib::precedence("prec_bad", e("ack"), e("req")), std::nullopt},
      {proplib::cyclicOrder("cyclic_ok", {e("cnt=0"), e("cnt=1"), e("cnt=2")}),
       std::nullopt},
      {proplib::cyclicOrder("cyclic_bad", {e("cnt=1"), e("cnt=0")}),
       std::nullopt},
      {proplib::responseAutomaton("resp_ok", e("req"), e("ack")),
       proplib::response("resp_ok_ctl", e("req"), e("ack"))},
      {proplib::responseAutomaton("resp_bad", e("ack"), e("req")),
       proplib::response("resp_bad_ctl", e("ack"), e("req"))},
      {proplib::recurrence("rec_ok", e("turn")),
       proplib::recurrenceCtl("rec_ok_ctl", e("turn"))},
      {proplib::recurrence("rec_bad", e("req")),
       proplib::recurrenceCtl("rec_bad_ctl", e("req"))},
  };
  std::vector<PifProperty> automata;
  for (const auto& [aut, twin] : lib) automata.push_back(aut);
  std::map<std::string, bool> verdicts =
      checkedAgainstForwardHull(kReqAck, "", automata, {});
  ASSERT_EQ(verdicts.size(), lib.size());
  Session s;
  s.load(verilogSource(kReqAck));
  std::set<bool> seen;
  for (const auto& [aut, twin] : lib) {
    seen.insert(verdicts[aut.name]);
    if (twin.has_value()) {
      EXPECT_EQ(s.check(*twin).holds, verdicts[aut.name]) << aut.name;
    }
  }
  EXPECT_EQ(seen.size(), 2u);  // both verdicts exercised
}

TEST(LcSession, GeneratedFamiliesMatchForwardHull) {
  // Every automaton of the generated scheduler-N and philos-N designs
  // (perfbench's scaled workload) at small N, against the forward
  // reference and against its verdict known by construction.
  const std::vector<perfbench::Design> designs = {
      perfbench::scheduler(3, false), perfbench::scheduler(4, false),
      perfbench::scheduler(6, false), perfbench::scheduler(8, false),
      perfbench::philos(3, false),    perfbench::philos(4, false),
      perfbench::philos(5, false)};
  std::set<std::string> compared;
  for (const perfbench::Design& d : designs) {
    PifFile pif = parsePif(d.pif);
    std::map<std::string, bool> verdicts = checkedAgainstForwardHull(
        d.verilog, d.top, pif.properties, pif.fairness);
    EXPECT_EQ(verdicts.size(), 2u) << d.name;
    for (const perfbench::Expected& e : d.verdicts) {
      if (verdicts.count(e.property) == 0) continue;
      EXPECT_EQ(verdicts[e.property], e.holds) << d.name << "/" << e.property;
      compared.insert(e.property);
    }
  }
  EXPECT_EQ(compared,
            (std::set<std::string>{"alternate_01", "task0_runs_forever",
                                   "neighbours_exclusive", "progress_p0"}));
}

// ------------------------------------------------ the sweep's cost order

/// check()'s Emerson-Lei sweeps for each automaton of `pif`, by name.
std::map<std::string, size_t> hullSweeps(const std::string& verilog,
                                         const std::string& top,
                                         const PifFile& pif) {
  ReachedDesign d(verilog, top);
  std::map<std::string, size_t> sweeps;
  for (const PifProperty& p : pif.properties) {
    if (p.kind != PifProperty::Kind::Automaton) continue;
    LcChecker lc(d.fsm, d.active, d.reached, p.aut, pif.fairness);
    sweeps[p.name] = lc.check().stats.hullIterations;
  }
  return sweeps;
}

TEST(LcSession, HullSweepsPinnedOnTableOneModels) {
  // Safety monitors (accept stay) settle in one sweep. A Büchi monitor's
  // Streett pair prunes z before the design's Büchi EUs see it, which
  // saves each of them a sweep over running the Büchi EUs first.
  using Sweeps = std::map<std::string, size_t>;
  const std::map<std::string, Sweeps> pinned = {
      {"philos", {{"neighbours_exclusive", 1}, {"progress_p0", 3}}},
      {"pingpong",
       {{"alternation", 1},
        {"eventually_rally", 2},
        {"flight_is_transient", 1},
        {"never_both", 1},
        {"ping_infinitely_often", 1},
        {"pong_infinitely_often", 2}}},
      {"gigamax", {{"coherence", 1}}},
      {"scheduler", {{"cyclic_order", 1}, {"task0_runs_forever", 2}}},
      {"dcnew", {{"one_transfer_at_a_time", 1}}},
      {"2mdlc", {{"keeps_delivering", 3}}},
  };
  for (const models::ModelDef& m : models::all()) {
    const std::string name(m.name);
    ASSERT_EQ(pinned.count(name), 1u) << name;
    EXPECT_EQ(hullSweeps(std::string(m.verilog), std::string(m.top),
                         parsePif(std::string(m.pif))),
              pinned.at(name))
        << name;
  }
}

TEST(LcSession, PassingStayMonitorSkipsTheBuchiEus) {
  // A safety monitor that holds is settled in the first sweep by its
  // Streett EU and the initial-state EU; the design's Büchi EUs never run,
  // so its preimage count is the same under 12 fairness sets as under
  // none (which still adds the one Büchi set "run forever").
  const perfbench::Design philos = perfbench::philos(6, false);
  PifFile pif = parsePif(philos.pif);
  const PifProperty* stay = nullptr;
  for (const PifProperty& p : pif.properties)
    if (p.name == "neighbours_exclusive") stay = &p;
  ASSERT_NE(stay, nullptr);
  ASSERT_EQ(pif.fairness.noStay.size(), 12u);
  ReachedDesign d(philos.verilog, philos.top);
  obs::Counter& preimages = obs::counter("fsm.preimage.calls");
  auto preimagesOfCheck = [&](const FairnessSpec& fairness) {
    LcChecker lc(d.fsm, d.active, d.reached, stay->aut, fairness);
    const uint64_t before = preimages.value();
    LcResult r = lc.check();
    EXPECT_TRUE(r.contained);
    EXPECT_EQ(r.stats.hullIterations, 1u);
    return preimages.value() - before;
  };
  const uint64_t fair = preimagesOfCheck(pif.fairness);
  EXPECT_EQ(fair, preimagesOfCheck({}));
  if (obs::kEnabled) EXPECT_GT(fair, 0u);
}

}  // namespace
}  // namespace hsis
