#include "ctl/mc.hpp"

#include <cstdlib>
#include <stdexcept>

#include "obs/control.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"

namespace hsis {

CtlChecker::CtlChecker(const Fsm& fsm, const TransitionRelation& tr,
                       std::vector<Bdd> fairnessConstraints, McOptions options)
    : fsm_(&fsm), tr_(&tr), fair_(std::move(fairnessConstraints)), opts_(options) {
  if (fair_.empty()) fair_.push_back(fsm.mgr().bddOne());
  activeTr_ = tr_;
  // Coverage's frontier series folds to a no-op in disabled builds and
  // under the HSIS_COV_DISABLE runtime toggle.
  opts_.recordFrontierStates = opts_.recordFrontierStates && obs::kEnabled &&
                               std::getenv("HSIS_COV_DISABLE") == nullptr;
}

const Bdd& CtlChecker::reached() {
  if (reached_.isNull()) {
    obs::Span span("ctl.reach");
    ReachOptions ro;
    // Invariants are answered from the rings (checkInvariantEarly).
    ro.keepOnionRings = opts_.wantTrace || opts_.earlyFailureDetection;
    ro.recordFrontierStates = opts_.recordFrontierStates;
    ReachResult r = reachableStates(*tr_, fsm_->initialStates(), ro);
    adoptReachability(std::move(r.reached), std::move(r.onionRings),
                      std::move(r.frontierStates), r.depth);
  }
  return reached_;
}

const TransitionRelation& CtlChecker::activeTr() {
  (void)reached();
  return *activeTr_;
}

void CtlChecker::seedReachability(Bdd reached, std::vector<Bdd> onionRings,
                                  std::vector<double> frontierStates,
                                  size_t steps) {
  if (!reached_.isNull())
    throw std::logic_error(
        "CtlChecker::seedReachability: reachability already computed");
  adoptReachability(std::move(reached), std::move(onionRings),
                    std::move(frontierStates), steps);
}

void CtlChecker::adoptReachability(Bdd reached, std::vector<Bdd> onionRings,
                                   std::vector<double> frontierStates,
                                   size_t steps) {
  reached_ = std::move(reached);
  onionRings_ = std::move(onionRings);
  frontierStates_ = std::move(frontierStates);
  stats_.reachabilitySteps = steps;
  if (opts_.useReachedDontCares) {
    minimizedTr_ = tr_->minimized(reached_);
    activeTr_ = &*minimizedTr_;
  }
}

Bdd CtlChecker::preimage(const Bdd& s) {
  ++stats_.preimageCalls;
  static obs::Counter& calls = obs::counter("ctl.preimage.calls");
  calls.add();
  return activeTr_->preimage(s);
}

Bdd CtlChecker::eu(const Bdd& p, const Bdd& q) {
  static obs::Counter& iterations = obs::counter("ctl.eu.iterations");
  obs::Span span("ctl.eu");
  Bdd y = q;
  uint64_t steps = 0;
  while (true) {
    obs::checkAbort();
    ++stats_.fixpointIterations;
    iterations.add();
    ++steps;
    Bdd y2 = y | (p & preimage(y));
    if (y2 == y) {
      HSIS_LOG_DEBUG("ctl.eu", "least fixpoint converged",
                     {{"iterations", steps}, {"nodes", y.nodeCount()}});
      return y;
    }
    y = std::move(y2);
  }
}

Bdd CtlChecker::egFair(const Bdd& p) {
  static obs::Counter& iterations = obs::counter("ctl.eg.iterations");
  obs::Span span("ctl.eg");
  Bdd care = opts_.useReachedDontCares ? reached() : fsm_->mgr().bddOne();
  Bdd z = p & care;
  while (true) {
    obs::checkAbort();
    ++stats_.fixpointIterations;
    iterations.add();
    Bdd zOld = z;
    for (const Bdd& c : fair_) {
      // Z := Z ∧ EX E[p U (Z ∧ c)] — Emerson-Lei iteration step.
      z &= preimage(eu(p & care, z & c));
    }
    z &= p;
    if (z == zOld) {
      HSIS_LOG_DEBUG("ctl.eg", "greatest fixpoint converged",
                     {{"fairness_constraints", fair_.size()},
                      {"nodes", z.nodeCount()}});
      return z;
    }
  }
}

const Bdd& CtlChecker::fairStates() {
  if (!fairStatesComputed_) {
    fairStates_ = egFair(opts_.useReachedDontCares ? reached()
                                                   : fsm_->mgr().bddOne());
    fairStatesComputed_ = true;
  }
  return fairStates_;
}

Bdd CtlChecker::statesRec(const CtlFormula& f) {
  BddManager& mgr = fsm_->mgr();
  Bdd care = opts_.useReachedDontCares ? reached() : mgr.bddOne();
  switch (f.kind) {
    case CtlFormula::Kind::True:
      return care;
    case CtlFormula::Kind::False:
      return mgr.bddZero();
    case CtlFormula::Kind::Atom:
      return evalSigExpr(*f.atom, *fsm_) & care;
    case CtlFormula::Kind::Not:
      return care & !statesRec(*f.left);
    case CtlFormula::Kind::And:
      return statesRec(*f.left) & statesRec(*f.right);
    case CtlFormula::Kind::Or:
      return statesRec(*f.left) | statesRec(*f.right);
    case CtlFormula::Kind::EX:
      return care & preimage(statesRec(*f.left) & fairStates());
    case CtlFormula::Kind::EG:
      return egFair(statesRec(*f.left));
    case CtlFormula::Kind::EU:
      return care &
             eu(statesRec(*f.left), statesRec(*f.right) & fairStates());
    case CtlFormula::Kind::EF:
      return care & eu(care, statesRec(*f.left) & fairStates());
    case CtlFormula::Kind::AX:
      // AX p = ¬ EX ¬p (over fair paths)
      return care & !preimage(care & !statesRec(*f.left) & fairStates());
    case CtlFormula::Kind::AG: {
      // AG p = ¬EF¬p
      Bdd notP = care & !statesRec(*f.left);
      return care & !eu(care, notP & fairStates());
    }
    case CtlFormula::Kind::AF: {
      // AF p = ¬EG¬p
      Bdd notP = care & !statesRec(*f.left);
      return care & !egFair(notP);
    }
    case CtlFormula::Kind::AU: {
      // A[p U q] = ¬( E[¬q U ¬p∧¬q] ∨ EG¬q )
      Bdd p = statesRec(*f.left);
      Bdd q = statesRec(*f.right);
      Bdd notP = care & !p;
      Bdd notQ = care & !q;
      Bdd eu1 = eu(notQ, notP & notQ & fairStates());
      Bdd eg1 = egFair(notQ);
      return care & !(eu1 | eg1);
    }
  }
  return mgr.bddZero();
}

Bdd CtlChecker::states(const CtlRef& formula) { return statesRec(*formula); }

McResult CtlChecker::checkInvariantEarly(const CtlRef& formula) {
  // AG p with propositional p — Early Failure Detection, technique 1. With
  // the reachable set cached the answer is reached ∧ ¬p and the trace comes
  // from the cached onion rings; otherwise p is checked on every frontier
  // and the fixpoint stops at the first violation.
  McResult res;
  Bdd p = evalPropositional(formula->left);
  Bdd notP = !p;

  std::vector<Bdd> partialRings;
  const std::vector<Bdd>* rings = &onionRings_;
  if (reached_.isNull()) {
    ReachOptions ro;
    ro.recordFrontierStates = opts_.recordFrontierStates;
    ro.watch = [&](const Bdd& frontier, size_t) {
      partialRings.push_back(frontier);
      return !(frontier & notP).isZero();
    };
    ReachResult rr = reachableStates(*tr_, fsm_->initialStates(), ro);
    if (rr.stoppedEarly) {
      stats_.reachabilitySteps = rr.depth;
      rings = &partialRings;
    } else {
      // The EFD run computed the full reachable set; keep it.
      adoptReachability(std::move(rr.reached), std::move(partialRings),
                        std::move(rr.frontierStates), rr.depth);
    }
  }
  res.stats = stats_;
  if (!reached_.isNull() && (reached_ & notP).isZero()) {
    res.holds = true;
    res.satisfying = reached_ & p;
    return res;
  }
  res.holds = false;
  res.stats.usedEarlyFailure = true;
  if (!opts_.wantTrace) return res;
  // Shortest path: backtrack from the first ring that violates p.
  const Fsm& fsm = *fsm_;
  size_t depth = 0;
  while (depth + 1 < rings->size() && ((*rings)[depth] & notP).isZero())
    ++depth;
  std::vector<std::vector<int8_t>> rev;
  std::vector<int8_t> curAssign = concretizeState(fsm, (*rings)[depth] & notP);
  Bdd cur = fsm.stateFromValues(fsm.decodeState(curAssign));
  rev.push_back(curAssign);
  for (size_t k = depth; k-- > 0;) {
    Bdd prev = (*rings)[k] & activeTr_->preimage(cur);
    curAssign = concretizeState(fsm, prev);
    cur = fsm.stateFromValues(fsm.decodeState(curAssign));
    rev.push_back(curAssign);
  }
  Trace trace;
  for (size_t i = rev.size(); i-- > 0;) trace.states.push_back(rev[i]);
  attachInputs(fsm, trace);
  res.counterexample = std::move(trace);
  return res;
}

Bdd CtlChecker::evalPropositional(const CtlRef& f) {
  BddManager& mgr = fsm_->mgr();
  switch (f->kind) {
    case CtlFormula::Kind::True:
      return mgr.bddOne();
    case CtlFormula::Kind::False:
      return mgr.bddZero();
    case CtlFormula::Kind::Atom:
      return evalSigExpr(*f->atom, *fsm_);
    case CtlFormula::Kind::Not:
      return !evalPropositional(f->left);
    case CtlFormula::Kind::And:
      return evalPropositional(f->left) & evalPropositional(f->right);
    case CtlFormula::Kind::Or:
      return evalPropositional(f->left) | evalPropositional(f->right);
    default:
      throw std::logic_error("evalPropositional: temporal operator");
  }
}

McResult CtlChecker::check(const CtlRef& formula) {
  obs::Span span("ctl.check");
  static obs::Counter& checks = obs::counter("ctl.checks");
  checks.add();
  auto start = std::chrono::steady_clock::now();
  McResult res;
  if (opts_.earlyFailureDetection && formula->isInvariant()) {
    res = checkInvariantEarly(formula);
    if (res.stats.usedEarlyFailure) obs::counter("ctl.efd.failures").add();
  } else {
    Bdd sat = states(formula);
    Bdd init = fsm_->initialStates();
    res.holds = init.leq(sat);
    res.satisfying = sat;
    res.stats = stats_;
    if (!res.holds && opts_.wantTrace) {
      // Counterexamples for the common universal patterns.
      const CtlFormula& f = *formula;
      if (f.kind == CtlFormula::Kind::AG) {
        Bdd notP = reached() & !statesRec(*f.left);
        res.counterexample = shortestPathTo(*tr_, init & !sat, notP);
      } else if (f.kind == CtlFormula::Kind::AF) {
        // Witness of EG ¬p: a fair lasso inside the EG hull.
        Bdd hull = egFair(reached() & !statesRec(*f.left));
        res.counterexample =
            fairLasso(*tr_, init & !sat, hull, fair_);
      }
    }
  }
  res.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats_ = res.stats;
  HSIS_LOG_INFO("ctl.check", "property checked",
                {{"holds", res.holds},
                 {"fixpoint_iterations", res.stats.fixpointIterations},
                 {"early_failure", res.stats.usedEarlyFailure},
                 {"seconds", res.stats.seconds}});
  return res;
}

}  // namespace hsis
