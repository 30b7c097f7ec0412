// Tests for the property library (paper future-work item 8): every template
// is checked against designs where it should pass and where it should fail.
#include <gtest/gtest.h>

#include "dead_states.hpp"
#include "hsis/session.hpp"
#include "proplib/proplib.hpp"

namespace hsis {
namespace {

// A requester/server pair: req pulses nondeterministically, ack follows one
// cycle later; gnt0/gnt1 are mutually exclusive grants; a 2-bit counter
// cycles forever.
const char* kDesign = R"(
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

struct ProplibFixture : ::testing::Test {
  void SetUp() override {
    session.load({Session::DesignSource::Kind::Verilog, kDesign, ""});
  }
  bool verify(const PifProperty& p) { return session.check(p).holds; }
  Session session;
};

TEST_F(ProplibFixture, Invariant) {
  EXPECT_TRUE(verify(proplib::invariant("i1", parseSigExpr("cnt!=0 | ack=0 | ack=1"))));
  EXPECT_FALSE(verify(proplib::invariant("i2", parseSigExpr("cnt!=3"))));
}

TEST_F(ProplibFixture, InvariantAutomatonAgreesWithCtl) {
  for (const char* expr : {"!(gnt0=1 & gnt1=1)", "cnt!=2", "req=0"}) {
    bool ctl = verify(proplib::invariant("c", parseSigExpr(expr)));
    bool lc = verify(proplib::invariantAutomaton("a", parseSigExpr(expr)));
    EXPECT_EQ(ctl, lc) << expr;
  }
}

TEST_F(ProplibFixture, MutualExclusion) {
  EXPECT_TRUE(verify(proplib::mutualExclusion("m1", parseSigExpr("gnt0=1"),
                                              parseSigExpr("gnt1=1"))));
  EXPECT_FALSE(verify(proplib::mutualExclusion("m2", parseSigExpr("req=1"),
                                               parseSigExpr("ack=1"))));
}

TEST_F(ProplibFixture, Response) {
  // ack follows req one cycle later on every path
  EXPECT_TRUE(verify(proplib::response("r1", parseSigExpr("req=1"),
                                       parseSigExpr("ack=1"))));
  // but cnt=0 does not guarantee a future req
  EXPECT_FALSE(verify(proplib::response("r2", parseSigExpr("cnt=0"),
                                        parseSigExpr("req=1"))));
}

TEST_F(ProplibFixture, ResponseAutomatonAgreesWithCtl) {
  struct Pair {
    const char* trig;
    const char* resp;
  } pairs[] = {{"req=1", "ack=1"}, {"cnt=0", "req=1"}, {"gnt0=1", "gnt1=1"}};
  for (const Pair& p : pairs) {
    bool ctl = verify(
        proplib::response("c", parseSigExpr(p.trig), parseSigExpr(p.resp)));
    bool lc = verify(proplib::responseAutomaton("a", parseSigExpr(p.trig),
                                                parseSigExpr(p.resp)));
    EXPECT_EQ(ctl, lc) << p.trig << " -> " << p.resp;
  }
}

TEST_F(ProplibFixture, ExistenceAndResettable) {
  EXPECT_TRUE(verify(proplib::existence("e1", parseSigExpr("cnt=3"))));
  EXPECT_TRUE(verify(proplib::resettable("s1", parseSigExpr("cnt=0"))));
  EXPECT_FALSE(verify(proplib::existence("e2", parseSigExpr("gnt0=1 & gnt1=1"))));
}

TEST_F(ProplibFixture, Recurrence) {
  // the counter passes 3 infinitely often — both formalisms agree
  EXPECT_TRUE(verify(proplib::recurrence("rec1", parseSigExpr("cnt=3"))));
  EXPECT_TRUE(verify(proplib::recurrenceCtl("rec2", parseSigExpr("cnt=3"))));
  // req=1 recurrence fails (the environment may stop requesting)...
  EXPECT_FALSE(verify(proplib::recurrence("rec3", parseSigExpr("req=1"))));
  EXPECT_FALSE(verify(proplib::recurrenceCtl("rec4", parseSigExpr("req=1"))));
  // ...unless fairness forbids starving the requester
  session.addFairness(proplib::noStarvation(parseSigExpr("req=0")));
  EXPECT_TRUE(verify(proplib::recurrence("rec5", parseSigExpr("req=1"))));
  EXPECT_TRUE(verify(proplib::recurrenceCtl("rec6", parseSigExpr("req=1"))));
}

TEST_F(ProplibFixture, Precedence) {
  // cnt=1 precedes cnt=2 (the counter counts up)
  EXPECT_TRUE(verify(proplib::precedence("p1", parseSigExpr("cnt=1"),
                                         parseSigExpr("cnt=2"))));
  EXPECT_FALSE(verify(proplib::precedence("p2", parseSigExpr("cnt=2"),
                                          parseSigExpr("cnt=1"))));
}

TEST_F(ProplibFixture, AbsenceAfter) {
  // after cnt=3 the counter wraps, so cnt=3 recurs: absence fails
  EXPECT_FALSE(verify(proplib::absenceAfter("a1", parseSigExpr("cnt=3"),
                                            parseSigExpr("cnt=3"))));
}

TEST_F(ProplibFixture, CyclicOrder) {
  // the counter values occur in cyclic order 1, 2, 3, 0... but the guards
  // overlap with "no event" only if exclusive; counter values are exclusive
  std::vector<SigExprRef> events{parseSigExpr("cnt=1"), parseSigExpr("cnt=2"),
                                 parseSigExpr("cnt=3"), parseSigExpr("cnt=0")};
  // initial state has cnt=0, which is event 3 out of order => start at 1:
  std::vector<SigExprRef> fromOne{parseSigExpr("cnt=1"), parseSigExpr("cnt=2"),
                                  parseSigExpr("cnt=3")};
  // events 1,2,3 occur in cyclic order (cnt=0 steps are "no event")
  EXPECT_TRUE(verify(proplib::cyclicOrder("cyc1", fromOne)));
  // the reverse order fails
  std::vector<SigExprRef> wrong{parseSigExpr("cnt=3"), parseSigExpr("cnt=2"),
                                parseSigExpr("cnt=1")};
  EXPECT_FALSE(verify(proplib::cyclicOrder("cyc2", wrong)));
  EXPECT_THROW(proplib::cyclicOrder("cyc3", {parseSigExpr("cnt=1")}),
               std::invalid_argument);
}

TEST(ProplibShapes, GeneratedAutomataAreWellFormed) {
  PifProperty r = proplib::responseAutomaton("r", sigAtom("a"), sigAtom("b"));
  EXPECT_EQ(r.kind, PifProperty::Kind::Automaton);
  EXPECT_EQ(r.aut.numStates(), 2u);
  EXPECT_EQ(r.aut.rabinPairs().size(), 1u);
  PifProperty c = proplib::cyclicOrder(
      "c", {sigAtom("x"), sigAtom("y"), sigAtom("z")});
  EXPECT_EQ(c.aut.numStates(), 4u);  // 3 expects + bad
  // none of the generated automata have dead accepting structure
  std::vector<bool> dead = deadStates(c.aut);
  EXPECT_FALSE(dead[0]);
  EXPECT_TRUE(dead[3]);  // bad is the trap
}

}  // namespace
}  // namespace hsis
