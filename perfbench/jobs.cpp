#include "jobs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <unordered_map>

#include "blifmv/blifmv.hpp"
#include "ctl/mc.hpp"
#include "fsm/fsm.hpp"
#include "fsm/image.hpp"
#include "hsis/session.hpp"
#include "lc/lc.hpp"
#include "par/batch.hpp"
#include "pif/pif.hpp"
#include "pif/sigexpr.hpp"
#include "vl2mv/vl2mv.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

hsis::Session::DesignSource sourceOf(const Design& d) {
  return {hsis::Session::DesignSource::Kind::Verilog, d.verilog, d.top};
}

void addBddStats(LayerCounts* c, const hsis::BddManager& mgr) {
  if (c == nullptr) return;
  const hsis::BddStats& s = mgr.stats();
  c->cacheLookups += static_cast<double>(s.cacheLookups);
  c->cacheHits += static_cast<double>(s.cacheHits);
  c->gcRuns += static_cast<double>(s.gcRuns);
  c->peakLiveNodes =
      std::max(c->peakLiveNodes, static_cast<double>(s.peakLiveNodes));
  c->allocatedNodes += static_cast<double>(s.allocatedNodes);
}

/// The reference count of a state set: Shannon expansion over its support
/// in integers, scaled to the Fsm's state rail as Fsm::countStates does.
/// Fsm::countStates works in densities, which cancel to 0 once the reached
/// set of a large design is a complement edge of a near-1 function.
double exactCount(const hsis::Fsm& fsm, const hsis::Bdd& set) {
  using U = unsigned __int128;
  hsis::BddManager& mgr = fsm.mgr();
  std::vector<hsis::BddVar> support;
  {
    std::vector<hsis::Bdd> stack{set};
    std::unordered_map<uint32_t, bool> seen;
    std::vector<char> inSupport(mgr.numVars(), 0);
    while (!stack.empty()) {
      hsis::Bdd f = stack.back();
      stack.pop_back();
      if (f.isConstant() || !seen.emplace(f.index(), true).second) continue;
      if (!inSupport[f.var()]) support.push_back(f.var());
      inSupport[f.var()] = 1;
      stack.push_back(f.low());
      stack.push_back(f.high());
    }
  }
  std::sort(support.begin(), support.end(),
            [&](hsis::BddVar a, hsis::BddVar b) {
              return mgr.level(a) < mgr.level(b);
            });
  std::vector<size_t> pos(mgr.numVars(), 0);
  for (size_t i = 0; i < support.size(); ++i) pos[support[i]] = i;
  const size_t k = support.size();
  std::unordered_map<uint32_t, U> memo;
  // Assignments of support positions >= i that satisfy f.
  std::function<U(const hsis::Bdd&, size_t)> count = [&](const hsis::Bdd& f,
                                                          size_t i) -> U {
    if (f.isZero()) return 0;
    if (f.isOne()) return U(1) << (k - i);
    const size_t j = pos[f.var()];
    auto it = memo.find(f.index());
    U below;
    if (it != memo.end()) {
      below = it->second;
    } else {
      below = count(f.low(), j + 1) + count(f.high(), j + 1);
      memo.emplace(f.index(), below);
    }
    return below << (j - i);
  };
  return std::ldexp(static_cast<double>(count(set, 0)),
                    static_cast<int>(fsm.stateBits() - k));
}

/// Session::ctlFairnessSets, replayed: the CTL checker takes Büchi sets.
std::vector<hsis::Bdd> ctlFairness(const hsis::FairnessSpec& f,
                                   const hsis::Fsm& fsm) {
  std::vector<hsis::Bdd> sets;
  for (const hsis::SigExprRef& e : f.noStay)
    sets.push_back(!hsis::evalSigExpr(e, fsm));
  for (const hsis::SigExprRef& e : f.buchi)
    sets.push_back(hsis::evalSigExpr(e, fsm));
  for (const auto& edge : f.fairEdges)
    sets.push_back(hsis::evalSigExpr(edge.second, fsm));
  return sets;
}

/// The layer-by-layer replay of serialJob's Session calls.
void tracedSerial(const Design& d, Tracer& t, uint64_t job, LayerCounts* c,
                  Clock::time_point t0, JobResult& r) {
  const hsis::Session::Options opts;
  const int p = t.open("job", -1, job);
  hsis::PifFile pif;
  {
    Scoped s(&t, "pif.parse", p, job);
    pif = hsis::parsePif(d.pif);
  }
  hsis::blifmv::Design design;
  {
    Scoped s(&t, "vl2mv.compile", p, job);
    design = hsis::vl2mv::compile(d.verilog, d.top);
  }
  hsis::blifmv::Model flat;
  {
    Scoped s(&t, "blifmv.flatten", p, job);
    flat = hsis::blifmv::flatten(design);
  }
  hsis::BddManager mgr;
  std::unique_ptr<hsis::Fsm> fsm;
  {
    Scoped s(&t, "fsm.elab", p, job);
    fsm = std::make_unique<hsis::Fsm>(mgr, flat);
  }
  std::optional<hsis::TransitionRelation> tr;
  {
    Scoped s(&t, "fsm.tr_build", p, job);
    tr = hsis::TransitionRelation::partitioned(*fsm, opts.clusterLimit);
  }
  hsis::McOptions mo;
  mo.earlyFailureDetection = opts.earlyFailureDetection;
  mo.useReachedDontCares = opts.useReachedDontCares;
  mo.wantTrace = opts.wantTraces;
  std::unique_ptr<hsis::CtlChecker> mc;
  {
    Scoped s(&t, "fsm.reach", p, job);
    mc = std::make_unique<hsis::CtlChecker>(
        *fsm, *tr, ctlFairness(pif.fairness, *fsm), mo);
    r.engineReached = fsm->countStates(mc->reached());
  }
  if (c != nullptr) {
    c->trClusters += static_cast<double>(tr->clusterCount());
    c->trNodes += static_cast<double>(tr->totalNodes());
    c->reachSteps += static_cast<double>(mc->lastStats().reachabilitySteps);
  }
  const Clock::time_point checks = Clock::now();
  for (const hsis::PifProperty& prop : pif.properties) {
    if (prop.kind == hsis::PifProperty::Kind::Ctl) {
      const hsis::McStats before = mc->lastStats();
      hsis::McResult res;
      {
        Scoped s(&t, "ctl.check", p, job);
        res = mc->check(prop.ctl);
      }
      r.verdicts.emplace_back(prop.name, res.holds);
      if (c != nullptr) {
        c->ctlChecks += 1;
        c->ctlEfd += res.stats.usedEarlyFailure ? 1 : 0;
        c->preimageCalls += static_cast<double>(
            mc->lastStats().preimageCalls - before.preimageCalls);
        c->fixpointIters += static_cast<double>(
            mc->lastStats().fixpointIterations - before.fixpointIterations);
      }
      continue;
    }
    hsis::LcOptions lo;
    lo.earlyFailureDetection = opts.earlyFailureDetection;
    lo.wantTrace = opts.wantTraces;
    lo.partitionedTr = opts.partitionedTr;
    lo.clusterLimit = opts.clusterLimit;
    lo.quantMethod = opts.quantMethod;
    hsis::BddManager productMgr;
    std::unique_ptr<hsis::LcChecker> lc;
    {
      Scoped s(&t, "lc.build", p, job);
      lc = std::make_unique<hsis::LcChecker>(productMgr, flat, prop.aut,
                                             pif.fairness, lo);
    }
    hsis::LcResult res;
    {
      Scoped s(&t, "lc.check", p, job);
      res = lc->check();
      // Session renders the product trace while the manager is alive.
      if (res.trace.has_value()) (void)lc->formatTrace(*res.trace);
    }
    r.verdicts.emplace_back(prop.name, res.contained);
    if (c != nullptr) {
      c->lcHullIters += static_cast<double>(res.stats.hullIterations);
      c->lcReachSteps += static_cast<double>(res.stats.reachabilitySteps);
    }
    lc.reset();
    addBddStats(c, productMgr);
  }
  r.checkMs = msSince(checks);
  t.close(p);
  r.ms = msSince(t0);  // the reference count below is not job time
  r.reached = exactCount(*fsm, mc->reached());
  mc.reset();
  tr.reset();
  fsm.reset();
  addBddStats(c, mgr);
}

}  // namespace

std::string verify(const Design& d, const JobResult& r) {
  if (!r.error.empty()) return "error: " + r.error;
  if (r.reached >= 0 &&
      std::fabs(r.reached - d.reached) > 1e-12 * std::fabs(d.reached))
    return "reached " + std::to_string(r.reached) + ", expected " +
           std::to_string(d.reached);
  if (r.verdicts.size() != d.verdicts.size())
    return std::to_string(r.verdicts.size()) + " verdicts, expected " +
           std::to_string(d.verdicts.size());
  for (size_t i = 0; i < d.verdicts.size(); ++i) {
    const Expected& e = d.verdicts[i];
    if (r.verdicts[i].first != e.property || r.verdicts[i].second != e.holds)
      return r.verdicts[i].first + (r.verdicts[i].second ? " holds" : " fails") +
             ", expected " + e.property + (e.holds ? " holds" : " fails");
  }
  return "";
}

JobResult serialJob(const Design& d, Tracer* tracer, uint64_t jobId,
                    LayerCounts* counts) {
  const Clock::time_point t0 = Clock::now();
  JobResult r;
  try {
    if (tracer != nullptr) {
      tracedSerial(d, *tracer, jobId, counts, t0, r);
      return r;
    } else {
      hsis::Session s;
      hsis::PifFile pif = hsis::parsePif(d.pif);
      s.addFairness(pif.fairness);
      s.load(sourceOf(d));
      s.build();
      r.engineReached = s.reachedStates();
      const Clock::time_point checks = Clock::now();
      for (const hsis::PifProperty& prop : pif.properties) {
        hsis::BugReport b = s.check(prop);
        r.verdicts.emplace_back(b.propertyName, b.holds);
      }
      r.checkMs = msSince(checks);
      r.ms = msSince(t0);  // the reference count below is not job time
      r.reached = exactCount(s.fsm(), s.checker().reached());
      return r;
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.ms = msSince(t0);
  return r;
}

JobResult batchJob(const Design& d, int jobs, Tracer* tracer, uint64_t jobId,
                   LayerCounts* counts) {
  const Clock::time_point t0 = Clock::now();
  JobResult r;
  try {
    const int p = tracer ? tracer->open("job", -1, jobId) : -1;
    hsis::Session s;
    hsis::PifFile pif;
    {
      Scoped sp(tracer, "pif.parse", p, jobId);
      pif = hsis::parsePif(d.pif);
      s.addFairness(pif.fairness);
    }
    {
      // Session::load is vl2mv::compile plus line counting.
      Scoped sp(tracer, "vl2mv.compile", p, jobId);
      s.load(sourceOf(d));
    }
    {
      Scoped sp(tracer, "session.build", p, jobId);
      s.build();
    }
    if (tracer != nullptr) {
      // Session times flatten+elaboration and TR construction itself;
      // attribute the build span to those two children.
      const Span& b = tracer->spans().back();
      const int64_t flatNs =
          static_cast<int64_t>(s.lastFlattenMicros()) * 1000;
      const int64_t trNs = static_cast<int64_t>(s.lastTrMicros()) * 1000;
      const int bi = static_cast<int>(tracer->spans().size()) - 1;
      const int64_t start = b.startNs;
      tracer->add("fsm.elab", bi, jobId, start, flatNs);
      tracer->add("fsm.tr_build", bi, jobId, start + flatNs, trNs);
    }
    {
      Scoped sp(tracer, "fsm.reach", p, jobId);
      r.engineReached = s.reachedStates();
    }
    const Clock::time_point checks = Clock::now();
    hsis::par::BatchReport batch;
    {
      Scoped sp(tracer, "par.batch", p, jobId);
      batch = hsis::par::checkBatch(s, pif.properties, {.jobs = jobs});
    }
    r.checkMs = msSince(checks);
    for (const hsis::BugReport& b : batch.reports)
      r.verdicts.emplace_back(b.propertyName, b.holds);
    if (batch.aborted > 0) r.error = "batch aborted a property";
    if (tracer != nullptr) tracer->close(p);
    r.ms = msSince(t0);  // reading counts below is not job time
    if (counts != nullptr) {
      counts->trClusters += static_cast<double>(s.tr().clusterCount());
      counts->trNodes += static_cast<double>(s.tr().totalNodes());
      counts->reachSteps +=
          static_cast<double>(s.checker().lastStats().reachabilitySteps);
      counts->parWallMs += static_cast<double>(batch.wallMicros) / 1e3;
      counts->parTransferMs += static_cast<double>(batch.transferMicros) / 1e3;
      counts->parTransferredNodes +=
          static_cast<double>(batch.transferredNodes);
      for (uint64_t busy : batch.workerBusyMicros)
        counts->parBusyMs += static_cast<double>(busy) / 1e3;
      counts->parWorkerMs += static_cast<double>(batch.wallMicros) / 1e3 *
                             static_cast<double>(batch.jobs);
      counts->parSpeedupBound += batch.theoreticalSpeedup();
      addBddStats(counts, s.manager());
    }
    r.reached = exactCount(s.fsm(), s.checker().reached());
    return r;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.ms = msSince(t0);
  return r;
}

}  // namespace perfbench
