// Dining philosophers from the model suite: verify all properties, then
// walk into the deadlock the verifier found by replaying the error trace.
#include <cstdio>

#include "hsis/session.hpp"
#include "models/models.hpp"

int main() {
  const hsis::models::ModelDef* model = hsis::models::find("philos");
  hsis::Session session;
  session.load({hsis::Session::DesignSource::Kind::Verilog,
                std::string(model->verilog), ""});
  hsis::PifFile pif = hsis::parsePif(std::string(model->pif));
  session.addFairness(pif.fairness);

  std::printf("dining philosophers: %zu Verilog lines, %zu BLIF-MV lines, "
              "%.0f reachable states\n\n",
              session.linesVerilog(), session.linesBlifMv(),
              session.reachedStates());

  for (const hsis::PifProperty& p : pif.properties) {
    hsis::BugReport report = session.check(p);
    std::printf("%s\n", renderBugReport(report, session.fsm()).c_str());
  }

  // The no_deadlock counterexample ends in the all-hasleft state; verify by
  // simulation that it is indeed a livelock: every successor is itself.
  hsis::BugReport dead =
      session.checkCtl("no_deadlock_again",
                    hsis::parseCtl("AG !(p0.st=hasleft & p1.st=hasleft & "
                                   "p2.st=hasleft & p3.st=hasleft)"));
  if (!dead.holds && dead.trace.has_value()) {
    const auto& last = dead.trace->states.back();
    const hsis::Fsm& fsm = session.fsm();
    hsis::Bdd deadState = fsm.stateFromValues(fsm.decodeState(last));
    hsis::Bdd successors = session.tr().image(deadState);
    std::printf("deadlock state: %s\n", fsm.formatState(last).c_str());
    std::printf("its only successor is itself: %s\n",
                successors == deadState ? "yes" : "no");
  }
  return 0;
}
