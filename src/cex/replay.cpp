// Replay verification: drive an artifact's trace through the state-based
// simulator and confirm it still demonstrates the property violation.
#include "cex/cex.hpp"
#include "ctl/ctl.hpp"
#include "hsis/session.hpp"
#include "sim/simulator.hpp"

namespace hsis::cex {

namespace {

ReplayResult fail(const std::string& note) { return {false, note}; }

}  // namespace

ReplayResult replay(const Artifact& a, const Fsm& fsm,
                    const TransitionRelation& tr) {
  if (a.steps.empty()) return fail("empty trace");
  if (a.latches.size() != fsm.numLatches())
    return fail("latch count mismatch: artifact has " +
                std::to_string(a.latches.size()) + ", design has " +
                std::to_string(fsm.numLatches()));

  // Decode every step back into a state set; reject out-of-domain values
  // before they reach the BDD layer.
  const MvSpace& space = fsm.space();
  std::vector<Bdd> states;
  states.reserve(a.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    const std::vector<uint32_t>& vals = a.steps[i].latchValues;
    if (vals.size() != fsm.numLatches())
      return fail("step " + std::to_string(i) + " has wrong latch count");
    for (size_t l = 0; l < vals.size(); ++l)
      if (vals[l] >= space.domain(fsm.stateVar(l)))
        return fail("step " + std::to_string(i) + ": value of " +
                    fsm.latchName(l) + " out of domain");
    states.push_back(fsm.stateFromValues(vals));
  }

  // 1. The trace must start in an initial state.
  if ((states[0] & fsm.initialStates()).isZero())
    return fail("step 0 is not an initial state");

  // 2. Every transition (and a lasso's back edge) must be admissible,
  //    checked by actually stepping the simulator.
  Simulator sim(fsm, tr);
  if (!sim.setState(concretizeState(fsm, states[0])))
    return fail("step 0 is not a valid state");
  const bool lasso = a.isLasso();
  const size_t transitions = a.steps.size() - 1 + (lasso ? 1 : 0);
  const bool pinInputs = !a.inputs.empty() &&
                         a.inputs.size() == fsm.inputVars().size();
  for (size_t i = 0; i < transitions; ++i) {
    const size_t next =
        i + 1 < a.steps.size() ? i + 1 : static_cast<size_t>(a.cycleStart);
    const char* what = i + 1 < a.steps.size() ? "transition " : "back edge ";
    if (!sim.stepTo(concretizeState(fsm, states[next])))
      return fail(std::string(what) + std::to_string(i) + " -> " +
                  std::to_string(next) + " is not admissible");
    // With recorded stimulus, additionally require the transition to be
    // takeable under exactly those input values — pinned against the raw
    // (unquantified) relation conjuncts.
    if (!pinInputs || a.steps[i].inputValues.size() != a.inputs.size())
      continue;
    Bdd rel = states[i] & fsm.presentToNext(states[next]);
    const std::vector<MvVarId>& ins = fsm.inputVars();
    for (size_t k = 0; k < ins.size() && !rel.isZero(); ++k) {
      uint32_t v = a.steps[i].inputValues[k];
      if (v >= space.domain(ins[k]))
        return fail("step " + std::to_string(i) + ": recorded input " +
                    space.name(ins[k]) + " out of domain");
      rel &= space.literal(ins[k], v);
    }
    for (const Bdd& r : fsm.relations()) {
      rel &= r;
      if (rel.isZero()) break;
    }
    if (rel.isZero())
      return fail("recorded inputs at step " + std::to_string(i) +
                  " do not admit the transition");
  }

  // 3. The property must actually be violated where the trace claims.
  CtlRef formula;
  try {
    formula = parseCtl(a.propertyText);
  } catch (const std::exception& e) {
    return fail(std::string("property text does not parse: ") + e.what());
  }
  try {
    if (formula->kind == CtlFormula::Kind::AG &&
        formula->left->isPropositional()) {
      // AG p counterexample: a path ending in a ¬p state.
      Bdd p = evalPropositional(formula->left, fsm);
      if (!(states.back() & p).isZero())
        return fail("final state does not violate the AG body");
    } else if (formula->kind == CtlFormula::Kind::AF &&
               formula->left->isPropositional()) {
      // AF p counterexample: a (fair) lasso avoiding p on the whole cycle.
      if (!lasso) return fail("AF counterexample must be a lasso");
      Bdd p = evalPropositional(formula->left, fsm);
      for (size_t i = static_cast<size_t>(a.cycleStart); i < states.size();
           ++i)
        if (!(states[i] & p).isZero())
          return fail("cycle step " + std::to_string(i) +
                      " satisfies the AF body");
    } else {
      return fail(
          "property shape not replayable (trace dynamics checked only)");
    }
  } catch (const std::exception& e) {
    return fail(std::string("property evaluation failed: ") + e.what());
  }
  return {true, ""};
}

ReplayResult replayFromSource(const Artifact& a) {
  if (a.designText.empty())
    return fail("no design source embedded in artifact");
  Session::DesignSource src;
  if (a.designKind == "verilog") {
    src.kind = Session::DesignSource::Kind::Verilog;
  } else if (a.designKind == "blifmv") {
    src.kind = Session::DesignSource::Kind::BlifMv;
  } else {
    return fail("unknown design kind '" + a.designKind + "'");
  }
  src.text = a.designText;
  src.top = a.designTop;
  try {
    Session session;
    session.load(src);
    session.build();
    if (!a.designDigest.empty() && session.digest() != a.designDigest)
      return fail("design digest mismatch: artifact " + a.designDigest +
                  ", recompiled " + session.digest());
    return replay(a, session.fsm(), session.tr());
  } catch (const std::exception& e) {
    return fail(std::string("design no longer compiles: ") + e.what());
  }
}

}  // namespace hsis::cex
