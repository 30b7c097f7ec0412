// Tests for the interactive model-checking debugger and bug reports.
#include <gtest/gtest.h>

#include "blifmv/blifmv.hpp"
#include "cex/cex.hpp"
#include "debug/mcdebug.hpp"
#include "debug/report.hpp"
#include "vl2mv/vl2mv.hpp"

namespace hsis {
namespace {

/// Source-level view of a trace (paper Section 8, item 7): the hsis-cex-v1
/// artifact's Markdown step table, one column per latch headed by its HDL
/// line.
std::string sourceView(const Fsm& fsm, const Trace& trace) {
  return cex::renderMarkdown(cex::build(fsm, trace, {}));
}

struct DebugFixture : ::testing::Test {
  void SetUp() override {
    // 0 -> 1 -> 2 -> 0 with an escape 1 -> 3 (absorbing).
    flat = blifmv::flatten(blifmv::parse(R"(
.model loop
.mv s, ns 4
.table s ns
0 1
1 (2,3)
2 0
3 3
.latch ns s
.reset s
0
.end
)"));
    fsm = std::make_unique<Fsm>(mgr, flat);
    tr = TransitionRelation::monolithic(*fsm);
    mc = std::make_unique<CtlChecker>(*fsm, *tr);
  }
  BddManager mgr;
  blifmv::Model flat;
  std::unique_ptr<Fsm> fsm;
  std::optional<TransitionRelation> tr;
  std::unique_ptr<CtlChecker> mc;
};

TEST_F(DebugFixture, RejectsHoldingFormula) {
  EXPECT_THROW(McDebugSession(*mc, parseCtl("EF s=3")), std::invalid_argument);
}

TEST_F(DebugFixture, UnfoldsConjunction) {
  // AG s!=3  &  EF s=9-ish: use (AG s!=3) & (EF s=2): first conjunct false.
  McDebugSession dbg(*mc, parseCtl("AG s!=3 & EF s=2"));
  EXPECT_FALSE(dbg.atLeaf());
  // exactly one conjunct is false
  ASSERT_EQ(dbg.choices().size(), 1u);
  EXPECT_EQ(dbg.choices()[0].formula->kind, CtlFormula::Kind::AG);
  EXPECT_TRUE(dbg.choose(0));
  EXPECT_EQ(dbg.formula()->kind, CtlFormula::Kind::AG);
}

TEST_F(DebugFixture, AgGivesShortestPathToViolation) {
  McDebugSession dbg(*mc, parseCtl("AG s!=3"));
  // choices include the shortest-path descent
  bool foundPath = false;
  for (size_t i = 0; i < dbg.choices().size(); ++i) {
    if (dbg.choices()[i].description.find("shortest path") != std::string::npos) {
      foundPath = true;
      ASSERT_TRUE(dbg.choose(i));
      // we land on the violating state s=3 with the residual obligation
      EXPECT_EQ(fsm->decodeState(dbg.state())[0], 3u);
      EXPECT_TRUE(dbg.atLeaf());  // atom s!=3 cannot be unfolded further
      // the walked path is recorded
      EXPECT_GE(dbg.pathSoFar().size(), 3u);
    }
  }
  EXPECT_TRUE(foundPath);
}

TEST_F(DebugFixture, ExPursuesSuccessors) {
  // EX s=3 is false at the initial state (its only successor is s=1).
  McDebugSession dbg(*mc, parseCtl("EX s=3"));
  ASSERT_EQ(dbg.choices().size(), 1u);  // one successor to pursue
  EXPECT_NE(dbg.choices()[0].description.find("pursue"), std::string::npos);
  ASSERT_TRUE(dbg.choose(0));
  EXPECT_EQ(fsm->decodeState(dbg.state())[0], 1u);
  EXPECT_TRUE(dbg.atLeaf());
}

TEST_F(DebugFixture, BackTracksHistory) {
  McDebugSession dbg(*mc, parseCtl("AG s!=3"));
  std::string before = dbg.describe();
  ASSERT_FALSE(dbg.choices().empty());
  ASSERT_TRUE(dbg.choose(0));
  EXPECT_NE(dbg.describe(), before);
  EXPECT_TRUE(dbg.back());
  EXPECT_EQ(dbg.describe(), before);
  EXPECT_FALSE(dbg.back());  // at root
}

TEST_F(DebugFixture, AfUnfolds) {
  McDebugSession dbg(*mc, parseCtl("AF s=3"));
  // obligations: the subformula false here, or stay on an escaping path
  ASSERT_GE(dbg.choices().size(), 1u);
  bool sawSub = false;
  for (const auto& c : dbg.choices()) {
    if (c.formula->kind == CtlFormula::Kind::Atom) sawSub = true;
  }
  EXPECT_TRUE(sawSub);
}

TEST_F(DebugFixture, DescribeMentionsStateAndFormula) {
  McDebugSession dbg(*mc, parseCtl("AG s!=3"));
  std::string d = dbg.describe();
  EXPECT_NE(d.find("s=0"), std::string::npos);
  EXPECT_NE(d.find("FALSE"), std::string::npos);
}

TEST_F(DebugFixture, ChooseOutOfRange) {
  McDebugSession dbg(*mc, parseCtl("AG s!=3"));
  EXPECT_FALSE(dbg.choose(999));
}

TEST_F(DebugFixture, BugReportRendering) {
  McResult r = mc->check(parseCtl("AG s!=3"));
  BugReport report;
  report.paradigm = BugReport::Paradigm::ModelChecking;
  report.propertyName = "no_sink";
  report.propertyText = "AG s!=3";
  report.holds = r.holds;
  report.trace = r.counterexample;
  report.usedEarlyFailure = r.stats.usedEarlyFailure;
  std::string text = renderBugReport(report, *fsm);
  EXPECT_NE(text.find("no_sink"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("error trace"), std::string::npos);
  EXPECT_NE(text.find("s=3"), std::string::npos);
}

TEST_F(DebugFixture, LassoRendering) {
  Trace t;
  t.states.push_back(concretizeState(*fsm, fsm->stateFromValues({0})));
  t.states.push_back(concretizeState(*fsm, fsm->stateFromValues({1})));
  t.cycleStart = 1;
  std::string text = renderTrace(t, *fsm);
  EXPECT_NE(text.find("cycle"), std::string::npos);
  EXPECT_NE(text.find("loops back to step 1"), std::string::npos);
}

TEST_F(DebugFixture, SourceRenderingOnLassoWithoutLineInfo) {
  // AF s=3 fails: the 0-1-2 cycle never visits 3, so the checker yields a
  // fair lasso. BLIF-MV input carries no .lineinfo, so the source-level
  // view must name the latch bare — no "(line N)".
  McResult r = mc->check(parseCtl("AF s=3"));
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  ASSERT_TRUE(r.counterexample->isLasso());
  std::string text = sourceView(*fsm, *r.counterexample);
  EXPECT_NE(text.find("| step | s |"), std::string::npos);
  EXPECT_NE(text.find("(cycle)"), std::string::npos);
  EXPECT_NE(text.find("loops back to step"), std::string::npos);
  EXPECT_EQ(text.find("(line"), std::string::npos);
}


// ---- source-level debugging (paper Section 8, item 7) ----

TEST(SourceLevel, LineInfoFlowsFromVerilogToTraces) {
  auto design = vl2mv::compile(R"(
module m;
  wire clk;
  reg a;
  reg [1:0] b;
  always @(posedge clk) begin
    a <= !a;
    if (a) b <= b + 1;
  end
  initial a = 0;
  initial b = 0;
endmodule
)");
  // the .lineinfo annotations are in the BLIF-MV text
  std::string text = blifmv::write(design);
  EXPECT_NE(text.find(".lineinfo a 4"), std::string::npos);
  EXPECT_NE(text.find(".lineinfo b 5"), std::string::npos);
  // and survive a parse + flatten round trip into the FSM
  auto flat = blifmv::flatten(blifmv::parse(text));
  BddManager mgr;
  Fsm fsm(mgr, flat);
  for (size_t l = 0; l < fsm.numLatches(); ++l) {
    if (fsm.latchName(l) == "a") EXPECT_EQ(fsm.latchLine(l), 4);
    if (fsm.latchName(l) == "b") EXPECT_EQ(fsm.latchLine(l), 5);
  }

  // a failing invariant's trace attributed to source lines
  auto tr = TransitionRelation::monolithic(fsm);
  CtlChecker mc(fsm, tr);
  McResult r = mc.check(parseCtl("AG b!=2"));
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  cex::Artifact art = cex::build(fsm, *r.counterexample, {});
  ASSERT_EQ(art.latches.size(), 2u);
  for (const cex::SignalInfo& latch : art.latches)
    EXPECT_EQ(latch.sourceLine, latch.name == "a" ? 4 : 5) << latch.name;
  std::string annotated = cex::renderMarkdown(art);
  EXPECT_NE(annotated.find("a (line 4)"), std::string::npos);
  EXPECT_NE(annotated.find("b (line 5)"), std::string::npos);
}

TEST(SourceLevel, LassoRenderingCarriesLineInfo) {
  // b advances only under the free input en, so AF b=2 fails: the lasso
  // holds en=0 forever while a keeps toggling. The step table marks the
  // cycle and heads a's column with its declaration line.
  auto design = vl2mv::compile(R"(
module m;
  wire clk;
  wire en;
  reg a;
  reg [1:0] b;
  always @(posedge clk) begin
    a <= !a;
    if (en) b <= b + 1;
  end
  initial a = 0;
  initial b = 0;
endmodule
)");
  auto flat = blifmv::flatten(design);
  BddManager mgr;
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  CtlChecker mc(fsm, tr);
  McResult r = mc.check(parseCtl("AF b=2"));
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  ASSERT_TRUE(r.counterexample->isLasso());
  std::string text = sourceView(fsm, *r.counterexample);
  EXPECT_NE(text.find("(cycle)"), std::string::npos);
  EXPECT_NE(text.find("a (line 5)"), std::string::npos);  // reg a
}

TEST(SourceLevel, PrefixedLinesAcrossHierarchy) {
  auto design = vl2mv::compile(R"(
module top;
  wire clk;
  wire o;
  sub u1(o);
endmodule
module sub(o);
  output o;
  wire clk;
  reg r;
  always @(posedge clk) r <= !r;
  initial r = 0;
  assign o = r;
endmodule
)");
  auto flat = blifmv::flatten(design);
  EXPECT_EQ(flat.lineOf("u1.r"), 10);
}

}  // namespace
}  // namespace hsis
