#include "fsm/image.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "obs/control.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"

namespace hsis {

namespace {

void noteTrBuilt(const TransitionRelation& tr) {
  obs::gauge("fsm.tr.clusters").set(static_cast<int64_t>(tr.clusterCount()));
  obs::gauge("fsm.tr.nodes").set(static_cast<int64_t>(tr.totalNodes()));
  HSIS_LOG_INFO("fsm.tr", "transition relation built",
                {{"clusters", tr.clusterCount()},
                 {"nodes", tr.totalNodes()}});
}

}  // namespace

TransitionRelation TransitionRelation::monolithic(const Fsm& fsm,
                                                  QuantMethod method,
                                                  QuantExecStats* stats) {
  obs::Span span("fsm.tr.build");
  TransitionRelation tr(fsm);
  Bdd t = productAndQuantify(fsm.mgr(), fsm.relations(), fsm.nonStateCube(),
                             method, stats);
  tr.clusters_.push_back(std::move(t));
  tr.computeStepCubes();
  noteTrBuilt(tr);
  return tr;
}

TransitionRelation TransitionRelation::partitioned(const Fsm& fsm,
                                                   size_t clusterLimit) {
  obs::Span span("fsm.tr.build");
  TransitionRelation tr(fsm);
  BddManager& mgr = fsm.mgr();

  // Execute the greedy early-quantification plan, but emit any intermediate
  // result that exceeds the size cap as a standalone cluster instead of
  // conjoining it further. A variable scheduled for quantification higher
  // up in the plan is only quantified there if no emitted cluster still
  // mentions it; the rest are quantified during image computation
  // (computeStepCubes).
  std::vector<bool> nonState(mgr.numVars(), false);
  for (BddVar v : mgr.support(fsm.nonStateCube())) nonState[v] = true;
  const std::vector<Bdd>& rels = fsm.relations();

  QuantPlan plan = planQuantification(mgr, rels, nonState, QuantMethod::Greedy);

  std::vector<bool> emittedSupport(mgr.numVars(), false);
  auto emitIfBig = [&](Bdd f) -> Bdd {
    if (f.nodeCount() <= clusterLimit) return f;
    static obs::Histogram& clusterNodes =
        obs::histogram("fsm.tr.cluster.nodes");
    clusterNodes.record(f.nodeCount());
    for (BddVar v : mgr.support(f)) emittedSupport[v] = true;
    tr.clusters_.push_back(std::move(f));
    return mgr.bddOne();
  };
  std::function<Bdd(const QuantPlanNode*)> exec =
      [&](const QuantPlanNode* node) -> Bdd {
    Bdd result;
    if (node->relation >= 0) {
      result = rels[node->relation];
      if (!node->quantifyHere.empty())
        result = mgr.exists(result, mgr.cube(node->quantifyHere));
      return emitIfBig(std::move(result));
    }
    Bdd l = exec(node->left.get());
    Bdd r = exec(node->right.get());
    std::vector<BddVar> quantify;
    for (BddVar v : node->quantifyHere)
      if (!emittedSupport[v]) quantify.push_back(v);
    result = mgr.andExists(l, r, mgr.cube(quantify));
    return emitIfBig(std::move(result));
  };
  Bdd top = exec(plan.root.get());
  if (!top.isOne() || tr.clusters_.empty()) tr.clusters_.push_back(std::move(top));

  tr.computeStepCubes();
  noteTrBuilt(tr);
  return tr;
}

TransitionRelation TransitionRelation::withMonitorCluster(
    const Fsm& product, const TransitionRelation& design, Bdd monitor) {
  // The monitor latch is the product's last one (Fsm::withMonitor).
  const MvSpace& space = product.space();
  TransitionRelation tr(product);
  tr.clusters_.reserve(design.clusters_.size() + 1);
  tr.clusters_.push_back(std::move(monitor));
  tr.clusters_.insert(tr.clusters_.end(), design.clusters_.begin(),
                      design.clusters_.end());
  // Going first on image, the monitor cluster is the last user of the
  // monitor's present bits; last on preimage, of its next bits. Every
  // design variable keeps its step: the monitor cluster reads none that a
  // design step quantifies earlier than before.
  tr.imgCubes_.push_back(space.cube(product.stateVars().back()));
  tr.imgCubes_.insert(tr.imgCubes_.end(), design.imgCubes_.begin(),
                      design.imgCubes_.end());
  tr.preCubes_.push_back(space.cube(product.nextVars().back()));
  tr.preCubes_.insert(tr.preCubes_.end(), design.preCubes_.begin(),
                      design.preCubes_.end());
  return tr;
}

void TransitionRelation::computeStepCubes() {
  BddManager& mgr = fsm_->mgr();
  uint32_t nv = mgr.numVars();

  std::vector<bool> isPresent(nv, false), isNext(nv, false), isNonState(nv, false);
  for (BddVar v : mgr.support(fsm_->presentCube())) isPresent[v] = true;
  for (BddVar v : mgr.support(fsm_->nextCube())) isNext[v] = true;
  for (BddVar v : mgr.support(fsm_->nonStateCube())) isNonState[v] = true;

  // lastUse[v] = index of the last cluster whose support contains v.
  std::vector<int> lastUse(nv, -1);
  for (size_t i = 0; i < clusters_.size(); ++i) {
    for (BddVar v : mgr.support(clusters_[i])) lastUse[v] = static_cast<int>(i);
  }

  // firstUse for the preimage pass, which walks the clusters in reverse.
  std::vector<int> firstUse(nv, -1);
  for (size_t i = clusters_.size(); i-- > 0;) {
    for (BddVar v : mgr.support(clusters_[i])) firstUse[v] = static_cast<int>(i);
  }

  // Collect each step's variables, then build each cube in one level-ordered
  // pass (BddManager::cube): folding bddVar one variable at a time rebuilds
  // the chain below every new variable, quadratic in the cube size.
  std::vector<std::vector<BddVar>> imgVars(clusters_.size());
  std::vector<std::vector<BddVar>> preVars(clusters_.size());
  for (uint32_t v = 0; v < nv; ++v) {
    bool quantForImage = isPresent[v] || isNonState[v];
    bool quantForPre = isNext[v] || isNonState[v];
    // Variables used by no cluster are folded into the first processed step
    // (they may still occur in the argument state set).
    size_t imgStep = lastUse[v] < 0 ? 0 : static_cast<size_t>(lastUse[v]);
    size_t preStep =
        firstUse[v] < 0 ? clusters_.size() - 1 : static_cast<size_t>(firstUse[v]);
    if (quantForImage) imgVars[imgStep].push_back(v);
    if (quantForPre) preVars[preStep].push_back(v);
  }
  imgCubes_.clear();
  preCubes_.clear();
  for (const auto& vars : imgVars) imgCubes_.push_back(mgr.cube(vars));
  for (const auto& vars : preVars) preCubes_.push_back(mgr.cube(vars));
}

Bdd TransitionRelation::image(const Bdd& statesX) const {
  static obs::Counter& calls = obs::counter("fsm.image.calls");
  static obs::Histogram& micros = obs::histogram("fsm.image.micros");
  calls.add();
  obs::Span span("fsm.image");
  obs::WallTimer timer;
  BddManager& mgr = fsm_->mgr();
  Bdd acc = statesX;
  for (size_t i = 0; i < clusters_.size(); ++i) {
    acc = mgr.andExists(acc, clusters_[i], imgCubes_[i]);
  }
  acc = fsm_->nextToPresent(acc);
  micros.record(timer.micros());
  return acc;
}

Bdd TransitionRelation::preimage(const Bdd& statesX) const {
  static obs::Counter& calls = obs::counter("fsm.preimage.calls");
  static obs::Histogram& micros = obs::histogram("fsm.preimage.micros");
  calls.add();
  obs::Span span("fsm.preimage");
  obs::WallTimer timer;
  BddManager& mgr = fsm_->mgr();
  Bdd acc = fsm_->presentToNext(statesX);
  // Reverse cluster order: the greedy segmentation puts "early" (top of the
  // dependency order) relations first, so walking backwards kills next-state
  // variables as aggressively as the forward walk kills present-state ones.
  for (size_t i = clusters_.size(); i-- > 0;) {
    acc = mgr.andExists(acc, clusters_[i], preCubes_[i]);
  }
  micros.record(timer.micros());
  return acc;
}

TransitionRelation TransitionRelation::minimized(const Bdd& careStatesX) const {
  TransitionRelation tr(*fsm_);
  BddManager& mgr = fsm_->mgr();
  tr.clusters_.reserve(clusters_.size());
  for (const Bdd& c : clusters_) tr.clusters_.push_back(mgr.restrict(c, careStatesX));
  tr.computeStepCubes();
  return tr;
}

const Bdd& TransitionRelation::monolithicRelation() const {
  if (!isMonolithic())
    throw std::logic_error("TransitionRelation: not monolithic");
  return clusters_[0];
}

size_t TransitionRelation::totalNodes() const {
  return fsm_->mgr().sharedNodeCount(clusters_);
}

ReachResult reachableStates(const TransitionRelation& tr, const Bdd& init,
                            const ReachOptions& opts) {
  obs::Span span("fsm.reach");
  static obs::Counter& iterations = obs::counter("fsm.reach.iterations");
  static obs::Histogram& frontierNodes =
      obs::histogram("fsm.reach.frontier.nodes");
  ReachResult res;
  res.reached = init;
  Bdd frontier = init;
  if (opts.keepOnionRings) res.onionRings.push_back(init);
  if (opts.watch && opts.watch(init, 0)) {
    res.stoppedEarly = true;
    return res;
  }
  static obs::Gauge& frontierLast = obs::gauge("fsm.reach.frontier.last");
  while (!frontier.isZero()) {
    obs::checkAbort();
    iterations.add();
    size_t fsize = frontier.nodeCount();
    frontierNodes.record(fsize);
    frontierLast.set(static_cast<int64_t>(fsize));
    HSIS_LOG_DEBUG("fsm.reach", "frontier step",
                   {{"depth", res.depth},
                    {"frontier_nodes", fsize},
                    {"reached_nodes", res.reached.nodeCount()}});
    Bdd next = tr.image(frontier);
    frontier = next & !res.reached;
    if (frontier.isZero()) break;
    res.reached |= frontier;
    ++res.depth;
    if (opts.keepOnionRings) res.onionRings.push_back(frontier);
    if (opts.watch && opts.watch(frontier, res.depth)) {
      res.stoppedEarly = true;
      break;
    }
    if (opts.maxSteps != 0 && res.depth >= opts.maxSteps) {
      res.stoppedEarly = true;
      break;
    }
  }
  obs::gauge("fsm.reach.depth").set(static_cast<int64_t>(res.depth));
  HSIS_LOG_INFO("fsm.reach", "fixpoint reached",
                {{"depth", res.depth},
                 {"reached_nodes", res.reached.nodeCount()},
                 {"stopped_early", res.stoppedEarly}});
  return res;
}


TransitionRelation TransitionRelation::transferred(
    const Fsm& dstFsm, BddTransfer& tx, const TransitionRelation& src) {
  // The quantification schedule is a function of the cluster decomposition
  // and the variable sets, both of which transfer verbatim — so the copies
  // are taken directly instead of re-running computeStepCubes (which would
  // recompute the same cubes from the replica's Fsm anyway).
  TransitionRelation tr(dstFsm);
  tr.clusters_ = tx.copy(src.clusters_);
  tr.imgCubes_ = tx.copy(src.imgCubes_);
  tr.preCubes_ = tx.copy(src.preCubes_);
  return tr;
}

}  // namespace hsis
