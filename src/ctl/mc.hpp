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
  /// Record per-depth new-state counts during the reachability fixpoint
  /// (the hsis_cov frontier time series, ReachOptions::
  /// recordFrontierStates). The constructor downgrades this to false under
  /// HSIS_OBS_DISABLE or when HSIS_COV_DISABLE is set in the environment —
  /// the latter is the runtime A/B toggle the EXPERIMENTS.md overhead
  /// measurement flips.
  bool recordFrontierStates = true;
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
                        std::vector<double> frontierStates, size_t steps);
  /// Onion rings of the reachability fixpoint (kept when traces or early
  /// failure detection are on). Exposed so a batch scheduler can replicate checker state.
  [[nodiscard]] const std::vector<Bdd>& onionRings() const {
    return onionRings_;
  }
  /// New-state count per reachability depth (frontierStates of the reach
  /// fixpoint). Empty before reached() ran, or when frontier recording is
  /// off (HSIS_OBS_DISABLE / HSIS_COV_DISABLE).
  [[nodiscard]] const std::vector<double>& frontierNewStates() const {
    return frontierStates_;
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

  /// Evaluate a propositional (non-temporal) formula to a BDD.
  Bdd evalPropositional(const CtlRef& f);

 private:
  Bdd statesRec(const CtlFormula& f);
  McResult checkInvariantEarly(const CtlRef& formula);
  void adoptReachability(Bdd reached, std::vector<Bdd> onionRings,
                         std::vector<double> frontierStates, size_t steps);

  const Fsm* fsm_;
  const TransitionRelation* tr_;
  std::vector<Bdd> fair_;
  McOptions opts_;

  std::optional<TransitionRelation> minimizedTr_;
  const TransitionRelation* activeTr_ = nullptr;
  Bdd reached_;
  std::vector<Bdd> onionRings_;
  std::vector<double> frontierStates_;
  Bdd fairStates_;
  bool fairStatesComputed_ = false;
  McStats stats_;
};

}  // namespace hsis
