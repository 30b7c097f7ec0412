// Language containment checking: L(design) ⊆ L(property).
//
// The deterministic edge-Rabin property automaton runs as a monitor on the
// design; containment fails iff the product has a reachable fair cycle
// where "fair" means:
//   - every system fairness constraint holds (Büchi sets from negative
//     state-subset constraints, edge sets from positive fair edges), and
//   - the run is NOT accepted by the property: for every Rabin pair
//     (Fin,Inf), Inf visited infinitely often implies Fin visited
//     infinitely often (the complement of deterministic Rabin is Streett).
// Emptiness is decided with the Emerson-Lei-style operator iteration of
// [17], computing an approximation of the fair states first (exact for the
// Büchi fragment).
//
// The product is built on the resident design, in its manager: the
// design's relations and its reached-minimized TR clusters are used as
// they are, and the property adds one monitor latch (on the design's
// monitor variable rail, Fsm::reserveMonitorRail) and one monitor cluster
//   M(x,m,m') = ∃g. T_mon(g,m,m') ∧ G(x,g),
// where G gives each guard signal as a function of present state, from
// that signal's cone of design relations. When some guard is not a
// function of state on the design's reachable states (it reads a free
// input or a $ND-driven net), the guard and the design's next state can be
// correlated through that choice, so the product is instead re-clustered
// from the design relations plus T_mon. Either way every cluster is exact
// on the product domain C = (design reached) × (monitor domain), the only
// states the hull and trace computations visit.
//
// The check never reaches the product forward. Let R ⊆ C be the product's
// reachable set. R is forward-closed and the hull is a greatest fixpoint
// whose witnesses are forward paths, so for s ∈ hull(C) ∧ R every witness
// stays in R: hull(C) ∧ R is a post-fixpoint within R, and by monotonicity
// hull(R) = hull(C) ∧ R. Containment therefore fails iff some initial
// state reaches hull(C) within C: one backward EU, stopped at the first
// initial state. Each Emerson-Lei sweep's approximation z_k contains the
// hull, so the check passes as soon as no initial state reaches z_k. Only
// a failing check walks forward: fairLasso's shortest prefix into the
// hull's core.
//
// Each sweep runs cheapest first: the automaton's Streett pairs (a few,
// one EU each), then the initial-state EU on every z it has not already
// confirmed, then one EU per design Büchi set, then the fair-edge sets.
// Every step is a monotone restriction that only shrinks z, so the
// greatest fixpoint is the largest z fixed by all of them whatever their
// order: the hull, and so every verdict and trace, is order-independent.
// The order only decides how soon a passing check stops. A safety monitor
// (`accept stay`) that holds is settled by its Streett EU and the
// initial-state EU, before any of the design's Büchi EUs run.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fsm/image.hpp"
#include "fsm/trace.hpp"
#include "lc/automaton.hpp"

namespace hsis {

/// System fairness constraints (paper Section 5.1), in terms of the shared
/// signal-expression language.
struct FairnessSpec {
  /// Negative state-subset constraints: a run may not stay forever inside
  /// the set (equivalently: must visit its complement infinitely often).
  std::vector<SigExprRef> noStay;
  /// Plain Büchi constraints: visit the set infinitely often.
  std::vector<SigExprRef> buchi;
  /// Positive fair edges: an edge from a state satisfying `first` to a
  /// state satisfying `second` must be taken infinitely often. Both sides
  /// may reference latch-output signals only.
  std::vector<std::pair<SigExprRef, SigExprRef>> fairEdges;

  [[nodiscard]] bool empty() const {
    return noStay.empty() && buchi.empty() && fairEdges.empty();
  }
};

struct LcOptions {
  /// Ignored: the backward decision has no separate early-failure pass
  /// (its per-sweep stop covers it). Kept only because perfbench/jobs.cpp
  /// still sets it; delete both together.
  bool earlyFailureDetection = true;
  bool wantTrace = true;
  bool partitionedTr = true;
  size_t clusterLimit = 5000;
  QuantMethod quantMethod = QuantMethod::Tree;
};

struct LcStats {
  /// Preimage steps of the backward EU toward the initial states that
  /// added states, summed over its runs (one per shrinking sweep).
  size_t reachabilitySteps = 0;
  size_t hullIterations = 0;
  double seconds = 0.0;
};

struct LcResult {
  bool contained = false;
  std::optional<Trace> trace;  ///< counterexample lasso when !contained
  LcStats stats;
  std::vector<std::string> notes;
};

class LcChecker {
 public:
  /// Compose `property` onto a built design. `designReached` is the
  /// design's reachable state set and `designTr` a transition relation of
  /// `design` that is exact on it (a session's reached-minimized TR,
  /// CtlChecker::activeTr). The product lives in the design's manager; the
  /// monitor reuses the design's rail, widening it only for a wider
  /// automaton. `fairness` constrains the design's infinite runs.
  LcChecker(Fsm& design, const TransitionRelation& designTr,
            const Bdd& designReached, const Automaton& property,
            const FairnessSpec& fairness = {}, LcOptions options = {});

  /// Standalone: build the design machine from the flattened model in
  /// `mgr` (FSM, TR, reachability), then compose as above.
  LcChecker(BddManager& mgr, const blifmv::Model& flatDesign,
            const Automaton& property, const FairnessSpec& fairness = {},
            LcOptions options = {});

  LcResult check();

  /// The product FSM (design + monitor latch).
  [[nodiscard]] const Fsm& fsm() const { return *fsm_; }
  [[nodiscard]] const TransitionRelation& tr() const { return *tr_; }
  [[nodiscard]] const std::string& monitorSignal() const { return monitor_; }
  /// C = design reached × monitor domain: a superset of the product's
  /// reachable states on which every product cluster is exact.
  [[nodiscard]] const Bdd& domain() const { return domain_; }
  /// True when some guard is not a function of state on the design's
  /// reachable states and the product TR was re-clustered from relations.
  [[nodiscard]] bool reclustered() const { return reclustered_; }
  /// Pretty-print a product state, monitor state last.
  [[nodiscard]] std::string formatState(const std::vector<int8_t>& s) const;
  /// Render a whole trace.
  [[nodiscard]] std::string formatTrace(const Trace& t) const;

  // Exposed for tests and the debugger:
  /// The fair hull within `within` (⊆ domain()): approximation of states on
  /// fair (counterexample) paths, iterated to convergence.
  Bdd fairHull(const Bdd& within);
  [[nodiscard]] const std::vector<Bdd>& edgeSets() const { return edgeSets_; }

 private:
  void buildProduct(Fsm& design, const TransitionRelation& designTr,
                    const Bdd& designReached, const Automaton& property);
  void buildConstraints(const Automaton& property, const FairnessSpec& fairness);
  Bdd monitorSet(const std::vector<uint32_t>& states) const;
  /// fairHull, or the empty set as soon as no initial state reaches the
  /// current approximation (when `stopUnreached`).
  Bdd fairHull(const Bdd& within, bool stopUnreached);
  /// Backward EU within domain(): does some initial state reach `target`?
  /// Stops at the first initial state.
  bool initReaches(const Bdd& target);
  /// Counterexample lasso from the fair hull, validated against (and if
  /// necessary re-steered through) the Streett pairs.
  std::optional<Trace> buildTrace(const Bdd& hull);
  /// E[z U y] for y ⊆ z: the states of z that reach y within z.
  Bdd reachWithin(const Bdd& z, Bdd y) const;
  /// States of `set` with an edge of E into `set`.
  Bdd preVia(const Bdd& e, const Bdd& set) const;

  std::string monitor_;
  std::optional<Fsm> fsm_;
  std::optional<TransitionRelation> tr_;
  LcOptions opts_;
  bool reclustered_ = false;
  MvVarId monitorVar_ = 0;
  Bdd domain_;

  std::vector<Bdd> buchiSets_;               ///< state sets: visit inf often
  std::vector<Bdd> edgeSets_;                ///< edge sets over (x,y)
  std::vector<std::pair<Bdd, Bdd>> streett_; ///< (L,U): L inf often -> U inf often
  LcStats stats_;
};

}  // namespace hsis
