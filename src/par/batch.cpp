#include "par/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ctl/mc.hpp"
#include "fsm/fsm.hpp"
#include "fsm/image.hpp"
#include "obs/control.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "pif/sigexpr.hpp"

namespace hsis::par {

namespace {

uint64_t nowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One worker's private copy of the design's symbolic machine. Everything
/// here lives in the replica's own manager; after construction the worker
/// never touches the source manager again.
struct Replica {
  BddManager mgr;
  std::unique_ptr<Fsm> fsm;                ///< heap: TR/checker hold pointers
  std::optional<TransitionRelation> tr;
  std::vector<Bdd> fairSets;
  // Seed for CtlChecker::seedReachability, transferred from the primary
  // checker so no worker reruns the reachability fixpoint.
  Bdd reached;
  std::vector<Bdd> onionRings;
  size_t reachSteps = 0;
  /// Built on the worker thread (don't-care minimization of the seeded
  /// reached set runs there, concurrently across replicas).
  std::unique_ptr<CtlChecker> checker;
};

/// Build one replica against the (quiescent) source session. Runs on the
/// calling thread — serial-mode handle refcounts on the source manager are
/// not synchronized, so transfers must not overlap.
std::unique_ptr<Replica> buildReplica(Session& session, CtlChecker& primary,
                                      size_t& transferredNodes) {
  auto rep = std::make_unique<Replica>();
  // Sized like the source's cache, not from the replica's own node count:
  // the replica's checks (LC hulls above all) are the source's workload.
  rep->mgr.growCacheToMatch(session.manager());
  BddTransfer tx(session.manager(), rep->mgr);
  rep->fsm = std::make_unique<Fsm>(Fsm::transferred(tx, session.fsm()));
  rep->tr.emplace(
      TransitionRelation::transferred(*rep->fsm, tx, session.tr()));
  // Fairness Büchi sets are cheap propositional evaluations — rebuild them
  // against the replica FSM rather than transferring (same construction as
  // Session::ctlFairnessSets; the fair-edge approximation note is already
  // on the session from building the primary checker).
  const FairnessSpec& fairness = session.fairness();
  for (const SigExprRef& e : fairness.noStay)
    rep->fairSets.push_back(!evalSigExpr(e, *rep->fsm));
  for (const SigExprRef& e : fairness.buchi)
    rep->fairSets.push_back(evalSigExpr(e, *rep->fsm));
  for (const auto& [from, to] : fairness.fairEdges) {
    (void)from;
    rep->fairSets.push_back(evalSigExpr(to, *rep->fsm));
  }
  rep->reached = tx.copy(primary.reached());
  rep->onionRings = tx.copy(primary.onionRings());
  rep->reachSteps = primary.lastStats().reachabilitySteps;
  transferredNodes += tx.copiedNodes();
  return rep;
}

/// The per-worker half of replica setup: checker construction plus
/// reachability seeding (which runs the don't-care TR minimization).
void finishReplica(Replica& rep, const Session::Options& opts) {
  McOptions mo;
  mo.earlyFailureDetection = opts.earlyFailureDetection;
  mo.useReachedDontCares = opts.useReachedDontCares;
  mo.wantTrace = opts.wantTraces;
  rep.checker = std::make_unique<CtlChecker>(*rep.fsm, *rep.tr,
                                             rep.fairSets, mo);
  rep.checker->seedReachability(std::move(rep.reached),
                                std::move(rep.onionRings), rep.reachSteps);
}

}  // namespace

double BatchReport::theoreticalSpeedup() const {
  uint64_t total = 0, longest = 0;
  for (uint64_t b : workerBusyMicros) {
    total += b;
    longest = std::max(longest, b);
  }
  if (longest == 0) return 1.0;
  return static_cast<double>(total) / static_cast<double>(longest);
}

BatchReport checkBatch(Session& session,
                       std::span<const PifProperty> properties,
                       const BatchOptions& options) {
  BatchReport out;
  out.jobs = std::max(1, options.jobs);
  out.reports.resize(properties.size());
  uint64_t wallStart = nowMicros();

  int workers = std::min<int>(out.jobs, static_cast<int>(properties.size()));
  if (workers <= 1) {
    // Serial path: exactly Session::check, property by property.
    out.workerBusyMicros.assign(1, 0);
    for (size_t i = 0; i < properties.size(); ++i) {
      uint64_t t0 = nowMicros();
      out.reports[i] = session.check(properties[i]);
      out.workerBusyMicros[0] += nowMicros() - t0;
    }
    out.wallMicros = nowMicros() - wallStart;
    return out;
  }

  // Build everything shared up front, on this thread: the design machine,
  // the primary checker, and the reachability fixpoint that every replica
  // is seeded with (CTL and LC checks alike run on it).
  session.build();
  CtlChecker& primary = session.checker();
  (void)primary.reached();
  // Collect first: each replica sizes its computed cache like the source's
  // (growCacheToMatch), and a collection fits the source's cache to the
  // live set about to be copied. Without it the source's cache reflects
  // its last collection, before the reach, and every replica would grow
  // its own later on its worker thread.
  session.manager().gc();
  std::vector<std::unique_ptr<Replica>> replicas;
  uint64_t transferStart = nowMicros();
  replicas.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w)
    replicas.push_back(buildReplica(session, primary, out.transferredNodes));
  out.transferMicros = nowMicros() - transferStart;
  HSIS_LOG_INFO("par.batch", "replicas built",
                {{"workers", workers},
                 {"properties", properties.size()},
                 {"transferred_nodes", out.transferredNodes},
                 {"transfer_micros", out.transferMicros}});

  out.workerBusyMicros.assign(static_cast<size_t>(workers), 0);
  std::atomic<size_t> next{0};
  std::atomic<size_t> abortedCount{0};
  std::exception_ptr fatal;
  std::mutex fatalMu;
  const FairnessSpec& fairness = session.fairness();
  const Session::Options& opts = session.options();

  auto workerBody = [&](int w) {
    obs::TaskAbort slot;
    obs::bindTaskAbort(&slot);
    Replica& rep = *replicas[static_cast<size_t>(w)];
    try {
      finishReplica(rep, opts);
      for (;;) {
        if (options.requestAbort != nullptr &&
            options.requestAbort->requested()) {
          auto info = options.requestAbort->info();
          throw obs::AbortedError(info ? info->reason : "request aborted",
                                  info ? info->phase : "par.batch");
        }
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= properties.size()) break;
        const PifProperty& p = properties[i];
        obs::Watchdog wd;  // no timeout arms nothing
        wd.start({.wallLimitSeconds = options.propertyTimeoutSeconds,
                  .target = &slot});
        uint64_t t0 = nowMicros();
        try {
          if (p.kind == PifProperty::Kind::Ctl) {
            out.reports[i] = Session::checkCtlOn(*rep.checker, p.name, p.ctl);
          } else {
            out.reports[i] = Session::checkAutomatonOn(
                *rep.fsm, *rep.checker, fairness, opts, p.name, p.aut);
          }
        } catch (const obs::AbortedError& e) {
          if (obs::detail::g_abortRequested.load(std::memory_order_relaxed))
            throw;  // process-wide: stop the whole batch
          // Per-property abort (watchdog breach or explicit request on this
          // worker's slot): report it, re-arm, take the next property.
          BugReport& r = out.reports[i];
          r.propertyName = p.name;
          r.paradigm = p.kind == PifProperty::Kind::Ctl
                           ? BugReport::Paradigm::ModelChecking
                           : BugReport::Paradigm::LanguageContainment;
          r.holds = false;
          r.notes.push_back("aborted: " + e.reason());
          abortedCount.fetch_add(1, std::memory_order_relaxed);
        }
        out.workerBusyMicros[static_cast<size_t>(w)] += nowMicros() - t0;
        // Re-arm after the fence: a breach that landed after the check
        // returned must not abort the next property.
        wd.stop();
        slot.clear();
      }
    } catch (...) {
      std::lock_guard<std::mutex> g(fatalMu);
      if (!fatal) fatal = std::current_exception();
      // Pull the remaining properties so the other workers drain quickly;
      // a process-wide abort reaches them at their own safe points anyway.
      next.store(properties.size(), std::memory_order_relaxed);
    }
    obs::bindTaskAbort(nullptr);
  };

  {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(workerBody, w);
    for (auto& t : pool) t.join();
  }
  if (fatal) std::rethrow_exception(fatal);

  out.aborted = abortedCount.load();
  out.wallMicros = nowMicros() - wallStart;
  obs::counter("par.batch.properties").add(properties.size());
  obs::gauge("par.batch.jobs").set(workers);
  HSIS_LOG_INFO("par.batch", "batch complete",
                {{"properties", properties.size()},
                 {"workers", workers},
                 {"wall_micros", out.wallMicros},
                 {"aborted", out.aborted}});
  return out;
}

}  // namespace hsis::par
