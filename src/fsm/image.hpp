// Image and preimage computation over the product transition relation,
// in monolithic form (T(x,y) built once via early quantification) or in
// partitioned form (clustered conjuncts, never forming the full product —
// the paper's future-work item 4, implemented here).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "bdd/bdd.hpp"
#include "fsm/fsm.hpp"
#include "fsm/quantify.hpp"

namespace hsis {

class TransitionRelation {
 public:
  /// Build the monolithic T(x,y) = ∃ nonstate . ∏ relations.
  static TransitionRelation monolithic(const Fsm& fsm,
                                       QuantMethod method = QuantMethod::Tree,
                                       QuantExecStats* stats = nullptr);

  /// Cluster the relations: quantify every non-state variable first
  /// (quantifiedPieces), then walk the pieces smallest support first and
  /// conjoin each into the current cluster only while the product is no
  /// larger than min(|cluster| + |piece|, clusterLimit). `clusterLimit`
  /// caps merges only: a single piece above it is a cluster of its own.
  /// Present-state variables are quantified during image computation,
  /// next-state ones during preimage (computeStepCubes).
  static TransitionRelation partitioned(const Fsm& fsm,
                                        size_t clusterLimit = 5000);

  /// Replicate `src` against an already-transferred Fsm (same transfer, so
  /// variable ids line up): clusters and quantification schedules are
  /// structurally copied, preserving the cluster decomposition exactly.
  static TransitionRelation transferred(const Fsm& dstFsm, BddTransfer& tx,
                                        const TransitionRelation& src);

  /// The transition relation of `product`, a Fsm::withMonitor() product of
  /// `design`'s machine: `design`'s clusters and quantification schedule
  /// as they are, plus `monitor` — a relation over present state, the
  /// monitor latch and its next state only — as the first image step. The
  /// monitor's present bits are quantified with it on image, its next bits
  /// with it on preimage; no support walk over the design clusters.
  static TransitionRelation withMonitorCluster(const Fsm& product,
                                               const TransitionRelation& design,
                                               Bdd monitor);

  /// Successor states: img(S)(x) = (∃x,i. T ∧ S)[y := x].
  [[nodiscard]] Bdd image(const Bdd& statesX) const;
  /// Predecessor states: pre(S)(x) = ∃y,i. T ∧ S[x := y].
  [[nodiscard]] Bdd preimage(const Bdd& statesX) const;

  /// Restrict every cluster to a care set over present-state variables
  /// (don't-care minimization; see DESIGN.md §2 item 3). Returns a new TR.
  [[nodiscard]] TransitionRelation minimized(const Bdd& careStatesX) const;

  [[nodiscard]] bool isMonolithic() const { return clusters_.size() == 1; }
  [[nodiscard]] const Bdd& monolithicRelation() const;
  [[nodiscard]] size_t clusterCount() const { return clusters_.size(); }
  [[nodiscard]] const std::vector<Bdd>& clusters() const { return clusters_; }
  /// The quantification schedule: imageCubes()[i] is quantified right after
  /// cluster i on image, preimageCubes()[i] on preimage.
  [[nodiscard]] const std::vector<Bdd>& imageCubes() const { return imgCubes_; }
  [[nodiscard]] const std::vector<Bdd>& preimageCubes() const { return preCubes_; }
  [[nodiscard]] size_t totalNodes() const;
  [[nodiscard]] const Fsm& fsm() const { return *fsm_; }

 private:
  explicit TransitionRelation(const Fsm& fsm) : fsm_(&fsm) {}
  void computeStepCubes();

  const Fsm* fsm_;
  std::vector<Bdd> clusters_;
  /// imgCubes_[i]: variables (present-state + residual non-state) to
  /// quantify right after conjoining cluster i during image computation.
  std::vector<Bdd> imgCubes_;
  /// preCubes_[i]: ditto for preimage (next-state + residual non-state).
  std::vector<Bdd> preCubes_;
};

/// Breadth-first reachability.
struct ReachOptions {
  /// Keep ReachResult::onionRings. CtlChecker always does: its invariant
  /// traces and coverage's frontier series read them. Reaches that need
  /// only the reached set leave this off.
  bool keepOnionRings = false;
  /// Called after each frontier step with the newly reached states and the
  /// step index; return true to stop early (early failure detection).
  std::function<bool(const Bdd& frontier, size_t depth)> watch;
  /// If nonzero, stop after this many steps (bounded reachability).
  size_t maxSteps = 0;
};

struct ReachResult {
  Bdd reached;
  std::vector<Bdd> onionRings;  ///< rings[d] = states first reached at depth d
  size_t depth = 0;
  bool stoppedEarly = false;
};

ReachResult reachableStates(const TransitionRelation& tr, const Bdd& init,
                            const ReachOptions& opts = {});

}  // namespace hsis
