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
// on product states (design reached × monitor domain), the only states the
// reachability, hull and trace computations visit.
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
  bool earlyFailureDetection = true;
  bool wantTrace = true;
  bool partitionedTr = true;
  size_t clusterLimit = 5000;
  QuantMethod quantMethod = QuantMethod::Greedy;
};

struct LcStats {
  size_t reachabilitySteps = 0;
  size_t hullIterations = 0;
  double reachedStates = 0.0;
  bool usedEarlyFailure = false;
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
  /// True when some guard is not a function of state on the design's
  /// reachable states and the product TR was re-clustered from relations.
  [[nodiscard]] bool reclustered() const { return reclustered_; }
  /// Pretty-print a product state, monitor state last.
  [[nodiscard]] std::string formatState(const std::vector<int8_t>& s) const;
  /// Render a whole trace.
  [[nodiscard]] std::string formatTrace(const Trace& t) const;

  // Exposed for tests and the debugger:
  /// The fair hull: approximation of states on fair (counterexample) paths.
  Bdd fairHull(const Bdd& within);
  [[nodiscard]] const std::vector<Bdd>& buchiSets() const { return buchiSets_; }
  [[nodiscard]] const std::vector<Bdd>& edgeSets() const { return edgeSets_; }
  [[nodiscard]] const std::vector<std::pair<Bdd, Bdd>>& streettPairs() const {
    return streett_;
  }

 private:
  void buildProduct(Fsm& design, const TransitionRelation& designTr,
                    const Bdd& designReached, const Automaton& property);
  void buildConstraints(const Automaton& property, const FairnessSpec& fairness);
  Bdd monitorSet(const std::vector<uint32_t>& states) const;
  /// Counterexample lasso from the fair hull, validated against (and if
  /// necessary re-steered through) the Streett pairs.
  std::optional<Trace> buildTrace(const Bdd& hull);
  /// States of `set` with an edge of E into `set`.
  Bdd preVia(const Bdd& e, const Bdd& set) const;

  std::string monitor_;
  std::optional<Fsm> fsm_;
  std::optional<TransitionRelation> tr_;
  LcOptions opts_;
  bool reclustered_ = false;
  std::vector<bool> autDead_;
  MvVarId monitorVar_ = 0;

  std::vector<Bdd> buchiSets_;               ///< state sets: visit inf often
  std::vector<Bdd> edgeSets_;                ///< edge sets over (x,y)
  std::vector<std::pair<Bdd, Bdd>> streett_; ///< (L,U): L inf often -> U inf often
  LcStats stats_;
};

}  // namespace hsis
