#include "lc/lc.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "fsm/quantify.hpp"
#include "obs/control.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"

namespace hsis {

namespace {

bool isStateVar(const Fsm& fsm, MvVarId v) {
  const std::vector<MvVarId>& sv = fsm.stateVars();
  return std::find(sv.begin(), sv.end(), v) != sv.end();
}

/// Guard signal `v` as a function of present state: G(x, v) = ∃ cone.
/// ∏ cone, over the relations of the tables in v's combinational fan-in
/// (down to latch outputs and free inputs). Exact for v's own value: every
/// consistent assignment of the design's relations satisfies the cone.
Bdd guardFunction(const Fsm& fsm, MvVarId v) {
  BddManager& mgr = fsm.mgr();
  const MvSpace& space = fsm.space();
  std::vector<Bdd> rels;
  std::vector<MvVarId> inner;  // cone signals other than v and latches
  std::unordered_set<MvVarId> seen{v};
  std::vector<MvVarId> stack{v};
  while (!stack.empty()) {
    MvVarId s = stack.back();
    stack.pop_back();
    const Fsm::Driver* d = fsm.driverOf(s);
    if (d == nullptr) continue;
    rels.push_back(fsm.relations()[d->relation]);
    for (MvVarId in : d->inputs) {
      if (!seen.insert(in).second) continue;
      if (!isStateVar(fsm, in)) inner.push_back(in);
      stack.push_back(in);
    }
  }
  if (rels.empty()) return mgr.bddOne();  // a free input: any value
  return productAndQuantify(mgr, rels, space.cube(inner), QuantMethod::Tree);
}

}  // namespace

LcChecker::LcChecker(Fsm& design, const TransitionRelation& designTr,
                     const Bdd& designReached, const Automaton& property,
                     const FairnessSpec& fairness, LcOptions options)
    : opts_(options) {
  obs::Span span("lc.build");
  buildProduct(design, designTr, designReached, property);
  buildConstraints(property, fairness);
}

LcChecker::LcChecker(BddManager& mgr, const blifmv::Model& flatDesign,
                     const Automaton& property, const FairnessSpec& fairness,
                     LcOptions options)
    : opts_(options) {
  obs::Span span("lc.build");
  Fsm design(mgr, flatDesign);
  TransitionRelation tr =
      opts_.partitionedTr
          ? TransitionRelation::partitioned(design, opts_.clusterLimit)
          : TransitionRelation::monolithic(design, opts_.quantMethod);
  Bdd reached = reachableStates(tr, design.initialStates()).reached;
  buildProduct(design, tr.minimized(reached), reached, property);
  buildConstraints(property, fairness);
}

void LcChecker::buildProduct(Fsm& design, const TransitionRelation& designTr,
                             const Bdd& designReached,
                             const Automaton& property) {
  BddManager& mgr = design.mgr();
  monitor_ = "_monitor";
  while (design.signalVar(monitor_).has_value()) monitor_ += "_";
  std::vector<std::string> names;
  for (uint32_t s = 0; s < property.numStates(); ++s)
    names.push_back(property.stateName(s));
  if (names.empty())
    throw std::runtime_error("automaton " + property.name() + ": no states");
  design.reserveMonitorRail(MvSpace::bitsFor(property.numStates()));
  fsm_.emplace(design.withMonitor(monitor_, names, property.initialState()));
  monitorVar_ = fsm_->stateVars().back();
  obs::Span span("lc.monitor");
  Bdd tmon =
      property.monitorRelation(*fsm_, monitorVar_, fsm_->nextVars().back());
  fsm_->appendRelation(tmon);
  domain_ = designReached & fsm_->space().validEncodings(monitorVar_);

  // M = ∃g. T_mon ∧ ∏ G(x,g). Decoupling the guards from the design's own
  // step is exact only where each guard has one value per reachable state.
  const MvSpace& space = fsm_->space();
  Bdd monitor = tmon;
  for (const std::string& sig : property.guardSignals()) {
    MvVarId g = *fsm_->signalVar(sig);
    if (isStateVar(*fsm_, g)) continue;
    Bdd fn = guardFunction(*fsm_, g);
    Bdd seen = mgr.bddZero();
    for (uint32_t k = 0; k < space.domain(g); ++k) {
      Bdd valueAt = mgr.andExists(fn, space.literal(g, k), space.cube(g));
      if (!(valueAt & seen & designReached).isZero()) {
        reclustered_ = true;
        break;
      }
      seen |= valueAt;
    }
    if (reclustered_) {
      HSIS_LOG_INFO("lc.build",
                    "guard is not a function of state; re-clustering",
                    {{"signal", std::string_view(sig)}});
      break;
    }
    monitor = mgr.andExists(monitor, fn, space.cube(g));
  }

  if (!reclustered_) {
    tr_ = TransitionRelation::withMonitorCluster(*fsm_, designTr,
                                                 std::move(monitor));
    return;
  }
  obs::counter("lc.build.reclustered").add();
  TransitionRelation product =
      opts_.partitionedTr
          ? TransitionRelation::partitioned(*fsm_, opts_.clusterLimit)
          : TransitionRelation::monolithic(*fsm_, opts_.quantMethod);
  tr_ = product.minimized(designReached);
}

Bdd LcChecker::monitorSet(const std::vector<uint32_t>& states) const {
  Bdd s = fsm_->mgr().bddZero();
  for (uint32_t k : states) s |= fsm_->space().literal(monitorVar_, k);
  return s;
}

void LcChecker::buildConstraints(const Automaton& property,
                                 const FairnessSpec& fairness) {
  obs::Span span("lc.fairness");
  BddManager& mgr = fsm_->mgr();
  const Fsm& fsm = *fsm_;

  for (const SigExprRef& e : fairness.noStay) {
    // May not stay in S forever == visits ¬S infinitely often.
    buchiSets_.push_back(!evalSigExpr(e, fsm));
  }
  for (const SigExprRef& e : fairness.buchi) {
    buchiSets_.push_back(evalSigExpr(e, fsm));
  }
  for (const auto& [fromE, toE] : fairness.fairEdges) {
    Bdd from = evalSigExpr(fromE, fsm);
    Bdd to = evalSigExpr(toE, fsm);
    // Both sides must be over present-state variables so the target can be
    // renamed onto the next-state rail.
    std::vector<bool> isState(mgr.numVars(), false);
    for (BddVar v : mgr.support(fsm.presentCube())) isState[v] = true;
    for (BddVar v : mgr.support(from))
      if (!isState[v])
        throw std::runtime_error(
            "fair-edge constraint references a non-latch signal");
    for (BddVar v : mgr.support(to))
      if (!isState[v])
        throw std::runtime_error(
            "fair-edge constraint references a non-latch signal");
    edgeSets_.push_back(from & fsm.presentToNext(to));
  }

  // Complemented Rabin acceptance: Streett pairs (L=Inf, U=Fin).
  for (const RabinPair& p : property.rabinPairs()) {
    Bdd inf = monitorSet(p.inf);
    Bdd fin = monitorSet(p.fin);
    if (p.fin.empty()) {
      // (Inf inf-often -> false) == Inf visited finitely often; as a hull
      // constraint this is a Streett pair with empty U.
      streett_.emplace_back(inf, mgr.bddZero());
    } else {
      streett_.emplace_back(inf, fin);
    }
  }
  if (buchiSets_.empty() && edgeSets_.empty())
    buchiSets_.push_back(mgr.bddOne());  // require an infinite run
  HSIS_LOG_INFO("lc.build", "fairness constraints compiled",
                {{"buchi_sets", buchiSets_.size()},
                 {"edge_sets", edgeSets_.size()},
                 {"streett_pairs", streett_.size()}});
}

Bdd LcChecker::preVia(const Bdd& e, const Bdd& set) const {
  const Fsm& fsm = *fsm_;
  BddManager& mgr = fsm.mgr();
  Bdd acc = fsm.presentToNext(set) & e;
  for (const Bdd& c : tr_->clusters()) acc &= c;
  acc = mgr.exists(acc, fsm.nextCube() & fsm.nonStateCube());
  return acc;
}

std::optional<Trace> LcChecker::buildTrace(const Bdd& hull) {
  obs::counter("lc.trace.attempts").add();
  const Fsm& fsm = *fsm_;
  std::optional<Trace> trace =
      fairLasso(*tr_, fsm.initialStates(), hull, buchiSets_, edgeSets_);
  if (!trace.has_value()) return trace;
  // Validate the Streett pairs (complemented Rabin acceptance) on the
  // cycle; if a pair is violated, force a visit to its U set and retry.
  for (const auto& [l, u] : streett_) {
    bool hitL = false, hitU = false;
    for (size_t i = static_cast<size_t>(trace->cycleStart);
         i < trace->states.size(); ++i) {
      Bdd sc = fsm.stateFromValues(fsm.decodeState(trace->states[i]));
      if (!(sc & l).isZero()) hitL = true;
      if (!(sc & u).isZero()) hitU = true;
    }
    if (hitL && !hitU) {
      std::vector<Bdd> cs = buchiSets_;
      cs.push_back(u);
      trace = fairLasso(*tr_, fsm.initialStates(), hull, cs, edgeSets_);
      if (!trace.has_value()) return trace;
    }
  }
  return trace;
}

Bdd LcChecker::fairHull(const Bdd& within) {
  return fairHull(within, false);
}

Bdd LcChecker::reachWithin(const Bdd& z, Bdd y) const {
  while (true) {
    Bdd y2 = y | (z & tr_->preimage(y));
    if (y2 == y) return y;
    y = std::move(y2);
  }
}

Bdd LcChecker::fairHull(const Bdd& within, bool stopUnreached) {
  obs::Span span("lc.hull");
  static obs::Counter& iterations = obs::counter("lc.hull.iterations");
  Bdd z = within;
  Bdd reachedFromInit;  // the last z the EU confirmed reachable
  uint64_t steps = 0;
  while (true) {
    obs::checkAbort();
    ++stats_.hullIterations;
    iterations.add();
    ++steps;
    HSIS_LOG_DEBUG("lc.hull", "Emerson-Lei sweep",
                   {{"iteration", steps}, {"nodes", z.nodeCount()}});
    Bdd zOld = z;

    // Cheapest first (lc.hpp). Streett pairs (L,U): drop L-states that
    // cannot reach U within Z.
    for (const auto& [l, u] : streett_) z &= reachWithin(z, z & u) | !l;

    // Every z_k contains the hull: once no initial state reaches z_k, none
    // reaches the hull. A z equal to the last one confirmed needs no EU.
    if (stopUnreached && !z.isZero() && z != reachedFromInit) {
      if (!initReaches(z)) z = fsm_->mgr().bddZero();
      reachedFromInit = z;
    }

    if (!z.isZero()) {
      // Büchi sets: Z := Z ∧ EX E[Z U (Z ∧ B)].
      for (const Bdd& b : buchiSets_)
        z &= tr_->preimage(reachWithin(z, z & b));
      // Edge sets: from Z one must be able to reach (within Z) a state that
      // fires an E-edge back into Z.
      for (const Bdd& e : edgeSets_) z &= reachWithin(z, z & preVia(e, z));
    }

    if (z == zOld || z.isZero()) {
      HSIS_LOG_DEBUG("lc.hull", "hull converged",
                     {{"iterations", steps},
                      {"empty", z.isZero()},
                      {"nodes", z.nodeCount()}});
      return z;
    }
  }
}

bool LcChecker::initReaches(const Bdd& target) {
  const Bdd& init = fsm_->initialStates();
  Bdd y = target;
  while ((y & init).isZero()) {
    obs::checkAbort();
    Bdd y2 = y | (domain_ & tr_->preimage(y));
    if (y2 == y) return false;
    y = std::move(y2);
    ++stats_.reachabilitySteps;
  }
  return true;
}

LcResult LcChecker::check() {
  obs::Span span("lc.check");
  obs::counter("lc.checks").add();
  auto start = std::chrono::steady_clock::now();
  LcResult res;

  // A statically unsatisfiable fairness constraint means the design has no
  // fair runs at all: containment holds vacuously.
  for (const Bdd& b : buchiSets_) {
    if (b.isZero()) {
      res.contained = true;
      res.notes.push_back(
          "vacuous pass: a fairness constraint is unsatisfiable");
      res.stats = stats_;
      return res;
    }
  }

  // hull(R) = hull(C) ∧ R (lc.hpp), so the property fails iff an initial
  // state reaches hull(C); the hull comes back empty otherwise.
  Bdd hull = fairHull(domain_, true);
  res.contained = hull.isZero();
  HSIS_LOG_INFO("lc.check", "containment check complete",
                {{"contained", res.contained},
                 {"hull_iterations", stats_.hullIterations},
                 {"eu_steps", stats_.reachabilitySteps}});
  if (!res.contained && opts_.wantTrace) {
    res.trace = buildTrace(hull);
    if (!res.trace.has_value()) {
      res.notes.push_back(
          "fair hull nonempty but no concrete lasso found (approximation); "
          "result may be a false failure");
    }
  }
  res.stats = stats_;
  res.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return res;
}

std::string LcChecker::formatState(const std::vector<int8_t>& s) const {
  return fsm_->formatState(s);
}

std::string LcChecker::formatTrace(const Trace& t) const {
  std::ostringstream os;
  for (size_t i = 0; i < t.states.size(); ++i) {
    if (t.cycleStart == static_cast<int>(i)) os << "-- cycle --\n";
    os << "  " << i << ": " << formatState(t.states[i]) << "\n";
  }
  if (t.isLasso()) os << "  (back to " << t.cycleStart << ")\n";
  return os.str();
}

}  // namespace hsis
