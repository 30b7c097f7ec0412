// Figure 2 of the paper, reproduced literally: the two-state invariance
// automaton checking that out1 and out2 are never asserted at the same
// time, built through the C++ API (no PIF), and checked by language
// containment against a small bus arbiter. A second, buggy arbiter shows
// the failing case and its error trace.
#include <cstdio>

#include "blifmv/blifmv.hpp"
#include "lc/lc.hpp"
#include "vl2mv/vl2mv.hpp"

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
  auto design = vl2mv::compile(verilog);
  auto flat = blifmv::flatten(design);
  BddManager mgr;
  LcChecker lc(mgr, flat, figure2());
  LcResult r = lc.check();
  std::printf("[%s] language containment: %s\n", label,
              r.contained ? "PASS" : "FAIL");
  for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());
  if (r.trace.has_value()) {
    std::printf("  error trace:\n%s", lc.formatTrace(*r.trace).c_str());
  }
  std::printf("\n");
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
