// The property library (paper future-work item 8): verify the dcnew
// controller with parameterized property templates — no CTL or ω-automata
// knowledge needed at the call sites.
#include <cstdio>

#include "hsis/session.hpp"
#include "models/models.hpp"
#include "proplib/proplib.hpp"

using namespace hsis;

int main() {
  Session session;
  session.load({Session::DesignSource::Kind::Verilog,
                std::string(models::find("dcnew")->verilog), ""});
  // requesters do not idle forever
  session.addFairness(proplib::noStarvation(parseSigExpr("ch0.st=idle")));
  session.addFairness(proplib::noStarvation(parseSigExpr("ch1.st=idle")));
  session.addFairness(proplib::noStarvation(parseSigExpr("ch2.st=idle")));

  const PifProperty props[] = {
      proplib::mutualExclusion("bus_exclusive_01",
                               parseSigExpr("ch0.st=transfer"),
                               parseSigExpr("ch1.st=transfer")),
      proplib::response("ch0_served", parseSigExpr("ch0.st=request"),
                        parseSigExpr("ch0.st=transfer")),
      proplib::responseAutomaton("ch0_served_lc",
                                 parseSigExpr("ch0.st=request"),
                                 parseSigExpr("ch0.st=transfer")),
      proplib::response("ch2_served", parseSigExpr("ch2.st=request"),
                        parseSigExpr("ch2.st=transfer")),  // FAILS: starvation
      proplib::existence("can_fill_counter", parseSigExpr("total=15")),
      proplib::resettable("parity_resets", parseSigExpr("parity=0")),
      proplib::recurrence("bus_active_forever",
                          parseSigExpr("ch0.st=transfer | ch1.st=transfer | "
                                       "ch2.st=transfer")),
      proplib::precedence("request_before_transfer",
                          parseSigExpr("ch0.st=request"),
                          parseSigExpr("ch0.st=transfer")),
  };

  for (const PifProperty& p : props) {
    BugReport r = session.check(p);
    std::printf("%-25s [%s]  %s\n", r.propertyName.c_str(),
                p.kind == PifProperty::Kind::Ctl ? "ctl" : "lc",
                r.holds ? "PASS" : "FAIL");
  }
  std::printf("\n(ch2_served fails by design: fixed-priority arbitration "
              "starves channel 2)\n");
  return 0;
}
