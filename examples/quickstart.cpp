// Quickstart: the whole Figure-1 toolflow in one file.
//
// A small mutual-exclusion design is written in the HSIS Verilog subset
// (with $ND non-determinism and enumerated types), its properties in PIF —
// both a CTL formula and an ω-automaton — and a Session runs both
// verification paradigms and prints the resulting bug reports.
#include <cstdio>

#include "hsis/session.hpp"

static const char* kDesign = R"(
// two clients and a priority arbiter
module top;
  wire clk;
  enum { idle, trying, critical } p0, p1;
  wire grant0, grant1, req0, req1;
  assign req0 = $ND(0, 1);                 // the environment may request
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

static const char* kProperties = R"PIF(
# model checking: the mutual-exclusion invariant
ctl mutex "AG !(p0=critical & p1=critical)";

# model checking: a deliberately false property, to see an error trace
ctl never_both_trying "AG !(p0=trying & p1=trying)";

# language containment: the same invariant as an automaton (paper Fig. 2)
automaton never_both_critical {
  state A init;
  state B;
  edge A -> A on "!(p0=critical & p1=critical)";
  edge A -> B on "p0=critical & p1=critical";
  edge B -> B on "1";
  accept stay A;
}
)PIF";

int main() {
  hsis::Session session;
  session.load({hsis::Session::DesignSource::Kind::Verilog, kDesign, ""});
  hsis::PifFile pif = hsis::parsePif(kProperties);
  session.addFairness(pif.fairness);

  std::printf("design: %zu Verilog lines -> %zu BLIF-MV lines\n",
              session.linesVerilog(), session.linesBlifMv());
  std::printf("reachable states: %.0f\n\n", session.reachedStates());

  for (const hsis::PifProperty& p : pif.properties) {
    hsis::BugReport report = session.check(p);
    std::printf("%s\n", renderBugReport(report, session.fsm()).c_str());
  }
  return 0;
}
