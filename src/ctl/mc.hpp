// Fair CTL model checking [15] with Emerson-Lei fair-cycle computation [10],
// reachability don't-cares, and early failure detection for invariants
// (paper Section 5.4, technique 1).
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "ctl/ctl.hpp"
#include "fsm/image.hpp"
#include "fsm/trace.hpp"

namespace hsis {

struct McOptions {
  /// Intersect all computations with the reachable set and use it as a
  /// don't-care care-set (restrict-minimized transition relation).
  bool useReachedDontCares = true;
  /// Check invariants on reachability frontiers and stop at the first
  /// failing frontier (early failure detection).
  bool earlyFailureDetection = true;
  /// Generate a counterexample/witness trace when available.
  bool wantTrace = true;
};

struct McStats {
  size_t preimageCalls = 0;
  size_t fixpointIterations = 0;
  size_t reachabilitySteps = 0;
  bool usedEarlyFailure = false;
  double seconds = 0.0;
};

struct McResult {
  bool holds = false;
  /// States satisfying the formula (over present-state vars); null when the
  /// check was resolved by early failure detection before the full fixpoint.
  Bdd satisfying;
  std::optional<Trace> counterexample;
  McStats stats;
};

/// The model checker. Fairness constraints are Büchi state sets: a path is
/// fair iff it visits every constraint set infinitely often. Path
/// quantifiers range over fair paths only.
class CtlChecker {
 public:
  CtlChecker(const Fsm& fsm, const TransitionRelation& tr,
             std::vector<Bdd> fairnessConstraints = {},
             McOptions options = {});

  /// Model-check the formula against all initial states.
  McResult check(const CtlRef& formula);

  /// The satisfying set of a formula (fair semantics, restricted to the
  /// reachable states when don't-cares are enabled).
  Bdd states(const CtlRef& formula);

  /// The set of fair states (states with some fair path).
  const Bdd& fairStates();

  [[nodiscard]] const Bdd& reached();
  /// Adopt an already-computed reachability result instead of running the
  /// fixpoint (the parallel batch scheduler computes it once on the primary
  /// checker and seeds every replica with the transferred copy). Leaves the
  /// checker in exactly the state a reached() call would: don't-care
  /// minimization included. Must be called before any check on this
  /// instance; throws std::logic_error once reachability exists.
  void seedReachability(Bdd reached, std::vector<Bdd> onionRings,
                        size_t steps);
  /// Onion rings of the reachability fixpoint: rings[d] holds the states
  /// first reached at depth d. Always kept, because invariant traces,
  /// coverage's frontier series and the batch replicas read them. Empty
  /// before reached() ran.
  [[nodiscard]] const std::vector<Bdd>& onionRings() const {
    return onionRings_;
  }
  [[nodiscard]] const McStats& lastStats() const { return stats_; }
  [[nodiscard]] const Fsm& fsm() const { return *fsm_; }
  [[nodiscard]] const TransitionRelation& tr() const { return *tr_; }
  /// The relation the fixpoints run on: tr() restrict-minimized by the
  /// reachable states when don't-cares are on (exact on reached()), else
  /// tr() itself. Computes reachability on first use.
  const TransitionRelation& activeTr();
  [[nodiscard]] const std::vector<Bdd>& fairnessConstraints() const {
    return fair_;
  }

  // ---- primitives (exposed for the debugger and tests) ----
  Bdd preimage(const Bdd& s);
  /// Least fixpoint E[p U q] (fairness handled by the caller).
  Bdd eu(const Bdd& p, const Bdd& q);
  /// Greatest fixpoint EG p under the fairness constraints (Emerson-Lei).
  Bdd egFair(const Bdd& p);

 private:
  Bdd statesRec(const CtlFormula& f);
  McResult checkInvariantEarly(const CtlRef& formula);
  void adoptReachability(Bdd reached, std::vector<Bdd> onionRings,
                         size_t steps);

  const Fsm* fsm_;
  const TransitionRelation* tr_;
  std::vector<Bdd> fair_;
  McOptions opts_;

  std::optional<TransitionRelation> minimizedTr_;
  const TransitionRelation* activeTr_ = nullptr;
  Bdd reached_;
  std::vector<Bdd> onionRings_;
  Bdd fairStates_;
  bool fairStatesComputed_ = false;
  McStats stats_;
};

}  // namespace hsis
