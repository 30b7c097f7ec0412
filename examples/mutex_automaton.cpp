// Figure 2 of the paper, reproduced literally: the two-state invariance
// automaton checking that out1 and out2 are never asserted at the same
// time, built through the C++ API (no PIF), and checked by language
// containment (Session::checkAutomaton) against a small bus arbiter. A
// second, buggy arbiter shows the failing case and its error trace.
#include <cstdio>

#include "hsis/session.hpp"

using namespace hsis;

namespace {

/// The automaton of Figure 2: stay in A while !(out1 & out2); one violation
/// falls into B forever; only runs that remain in A are accepted.
Automaton figure2() {
  Automaton aut("fig2");
  aut.addState("A");
  aut.addState("B");
  aut.setInitial("A");
  aut.addEdge("A", "A", parseSigExpr("!(out1=1 & out2=1)"));
  aut.addEdge("A", "B", parseSigExpr("out1=1 & out2=1"));
  aut.addEdge("B", "B", sigTrue());
  aut.setStayAcceptance({"A"});
  return aut;
}

void checkArbiter(const char* label, const char* verilog) {
  Session session;
  session.load({Session::DesignSource::Kind::Verilog, verilog, ""});
  // A failing report's notes carry the error trace over the design and
  // monitor latches.
  BugReport r = session.checkAutomaton("never_both", figure2());
  std::printf("[%s]\n%s\n", label,
              renderBugReport(r, session.fsm()).c_str());
}

}  // namespace

int main() {
  // A correct round-robin-ish arbiter: out1/out2 never together.
  checkArbiter("correct arbiter", R"(
module arb;
  wire clk;
  reg turn;
  wire out1, out2, req1, req2;
  assign req1 = $ND(0, 1);
  assign req2 = $ND(0, 1);
  assign out1 = req1 && (turn == 0 || !req2);
  assign out2 = req2 && !out1;
  always @(posedge clk) turn <= !turn;
  initial turn = 0;
endmodule
)");

  // A buggy arbiter that grants both under double request.
  checkArbiter("buggy arbiter", R"(
module arb;
  wire clk;
  reg turn;
  wire out1, out2, req1, req2;
  assign req1 = $ND(0, 1);
  assign req2 = $ND(0, 1);
  assign out1 = req1;
  assign out2 = req2;
  always @(posedge clk) turn <= !turn;
  initial turn = 0;
endmodule
)");
  return 0;
}
