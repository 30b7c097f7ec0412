#include "par/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
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

/// What every replica is copied from: the session's design machine and the
/// primary checker's reachability. Only read while replicas are copied.
struct Source {
  BddManager& mgr;
  const Fsm& fsm;
  const TransitionRelation& tr;
  const FairnessSpec& fairness;
  const Bdd& reached;
  const std::vector<Bdd>& onionRings;
  size_t reachSteps;
};

/// One worker's private copy of the design's symbolic machine. Everything
/// here lives in the replica's own manager; once copied, the worker never
/// touches the source manager again.
struct Replica {
  BddManager mgr;
  std::unique_ptr<Fsm> fsm;                ///< heap: TR/checker hold pointers
  std::optional<TransitionRelation> tr;
  std::vector<Bdd> fairSets;
  // Seed for CtlChecker::seedReachability, so no worker reruns the
  // reachability fixpoint.
  Bdd reached;
  std::vector<Bdd> onionRings;
  size_t reachSteps = 0;
  std::unique_ptr<CtlChecker> checker;
};

/// Copy the design into a fresh replica. Runs on the worker thread, at the
/// same time as the other workers' copies: BddTransfer only reads the
/// source, and no source handle is copied, so its reference counts stay
/// untouched.
std::unique_ptr<Replica> copyReplica(const Source& src,
                                     size_t& transferredNodes) {
  auto rep = std::make_unique<Replica>();
  // Sized like the source's cache, not from the replica's own node count:
  // the replica's checks (LC hulls above all) are the source's workload.
  rep->mgr.growCacheToMatch(src.mgr);
  BddTransfer tx(src.mgr, rep->mgr);
  rep->fsm = std::make_unique<Fsm>(tx, src.fsm);
  rep->tr.emplace(TransitionRelation::transferred(*rep->fsm, tx, src.tr));
  // Fairness Büchi sets are cheap propositional evaluations — rebuild them
  // against the replica FSM rather than transferring (same construction as
  // Session::ctlFairnessSets; the fair-edge approximation note is already
  // on the session from building the primary checker).
  for (const SigExprRef& e : src.fairness.noStay)
    rep->fairSets.push_back(!evalSigExpr(e, *rep->fsm));
  for (const SigExprRef& e : src.fairness.buchi)
    rep->fairSets.push_back(evalSigExpr(e, *rep->fsm));
  for (const auto& [from, to] : src.fairness.fairEdges) {
    (void)from;
    rep->fairSets.push_back(evalSigExpr(to, *rep->fsm));
  }
  rep->reached = tx.copy(src.reached);
  rep->onionRings = tx.copy(src.onionRings);
  rep->reachSteps = src.reachSteps;
  transferredNodes = tx.copiedNodes();
  return rep;
}

/// The rest of replica setup, which no longer reads the source: checker
/// construction plus reachability seeding (which runs the don't-care TR
/// minimization).
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

/// A propositional AG invariant under early failure detection: the primary
/// checker answers it from the cached reached set in one conjunction, far
/// cheaper than any replica.
bool settledByReach(const PifProperty& p, const Session::Options& opts) {
  return opts.earlyFailureDetection && p.kind == PifProperty::Kind::Ctl &&
         p.ctl->isInvariant();
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
  const uint64_t wallStart = nowMicros();

  // Build everything shared up front, on this thread: the design machine,
  // the primary checker, and the reachability fixpoint that settles the
  // invariants and seeds every replica.
  session.build();
  CtlChecker& primary = session.checker();
  (void)primary.reached();
  const Session::Options& opts = session.options();

  std::atomic<size_t> abortedCount{0};
  // Check properties[i] with `check` under the per-property budget, which
  // the watchdog enforces through `slot` (the thread's bound TaskAbort).
  // A per-property abort becomes the report's "aborted:" note; a request
  // or process-wide abort propagates. Returns the busy time.
  auto checkOne = [&](size_t i, obs::TaskAbort& slot, auto&& check) {
    if (options.requestAbort != nullptr && options.requestAbort->requested()) {
      auto info = options.requestAbort->info();
      throw obs::AbortedError(info ? info->reason : "request aborted",
                              info ? info->phase : "par.batch");
    }
    const PifProperty& p = properties[i];
    obs::Watchdog wd;  // no timeout arms nothing
    wd.start({.wallLimitSeconds = options.propertyTimeoutSeconds,
              .target = &slot});
    const uint64_t t0 = nowMicros();
    try {
      out.reports[i] = check(p);
    } catch (const obs::AbortedError& e) {
      if (obs::detail::g_abortRequested.load(std::memory_order_relaxed))
        throw;  // process-wide: stop the whole batch
      BugReport& r = out.reports[i];
      r.propertyName = p.name;
      r.paradigm = p.kind == PifProperty::Kind::Ctl
                       ? BugReport::Paradigm::ModelChecking
                       : BugReport::Paradigm::LanguageContainment;
      r.holds = false;
      r.notes.push_back("aborted: " + e.reason());
      abortedCount.fetch_add(1, std::memory_order_relaxed);
    }
    const uint64_t busy = nowMicros() - t0;
    // Re-arm after the fence: a breach that landed after the check
    // returned must not abort the next property.
    wd.stop();
    slot.clear();
    return busy;
  };
  auto onSession = [&](const PifProperty& p) { return session.check(p); };

  // The calling thread checks on the session under its own slot, like any
  // worker; whatever slot the caller had bound comes back on every exit.
  obs::TaskAbort callerSlot;
  struct Rebind {
    obs::TaskAbort* previous;
    ~Rebind() { obs::bindTaskAbort(previous); }
  } rebind{obs::bindTaskAbort(&callerSlot)};

  // Invariants first, on the session, before any replica is built.
  uint64_t callerBusy = 0;
  std::vector<size_t> rest;
  for (size_t i = 0; i < properties.size(); ++i) {
    if (settledByReach(properties[i], opts)) {
      callerBusy += checkOne(i, callerSlot, onSession);
    } else {
      rest.push_back(i);
    }
  }

  // The caller plus one replica per further worker share what is left.
  const size_t workers =
      std::clamp<size_t>(rest.size(), 1, static_cast<size_t>(out.jobs));
  const size_t replicas = workers - 1;
  out.workerBusyMicros.assign(workers, 0);
  out.workerBusyMicros[0] = callerBusy;
  std::atomic<size_t> next{0};
  std::exception_ptr fatal;
  std::mutex fatalMu;
  auto fail = [&] {
    std::lock_guard<std::mutex> g(fatalMu);
    if (!fatal) fatal = std::current_exception();
    // Pull the remaining properties so the other workers drain quickly;
    // a process-wide abort reaches them at their own safe points anyway.
    next.store(rest.size(), std::memory_order_relaxed);
  };
  auto drain = [&](size_t w, obs::TaskAbort& slot, auto&& check) {
    for (;;) {
      const size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= rest.size()) break;
      out.workerBusyMicros[w] += checkOne(rest[k], slot, check);
    }
  };

  // Collect first: each replica sizes its computed cache like the source's
  // (growCacheToMatch), and a collection fits the source's cache to the
  // live set about to be copied.
  if (replicas > 0) session.manager().gc();
  const Source source{session.manager(),
                      session.fsm(),
                      session.tr(),
                      session.fairness(),
                      primary.reached(),
                      primary.onionRings(),
                      primary.lastStats().reachabilitySteps};
  // Counted down once per replica when its copy is done: from then on the
  // session is the caller's alone.
  std::latch copied(static_cast<std::ptrdiff_t>(replicas));
  std::vector<size_t> copiedNodes(replicas, 0);
  auto workerBody = [&](size_t w) {
    obs::TaskAbort slot;
    obs::bindTaskAbort(&slot);
    std::unique_ptr<Replica> rep;
    try {
      rep = copyReplica(source, copiedNodes[w - 1]);
    } catch (...) {
      fail();
    }
    copied.count_down();
    if (rep != nullptr) {
      try {
        finishReplica(*rep, opts);
        drain(w, slot, [&](const PifProperty& p) {
          if (p.kind == PifProperty::Kind::Ctl)
            return Session::checkCtlOn(*rep->checker, p.name, p.ctl);
          return Session::checkAutomatonOn(*rep->fsm, *rep->checker,
                                           source.fairness, opts, p.name,
                                           p.aut);
        });
      } catch (...) {
        fail();
      }
      rep.reset();  // tear the replica down on its own thread
    }
    obs::bindTaskAbort(nullptr);
  };

  const uint64_t transferStart = nowMicros();
  std::vector<std::jthread> pool;  // joins on every exit path
  pool.reserve(replicas);
  for (size_t w = 1; w <= replicas; ++w) pool.emplace_back(workerBody, w);
  copied.wait();
  if (replicas > 0) {
    out.transferMicros = nowMicros() - transferStart;
    for (size_t n : copiedNodes) out.transferredNodes += n;
    HSIS_LOG_INFO("par.batch", "replicas built",
                  {{"replicas", replicas},
                   {"properties", rest.size()},
                   {"transferred_nodes", out.transferredNodes},
                   {"transfer_micros", out.transferMicros}});
  }
  try {
    drain(0, callerSlot, onSession);
  } catch (...) {
    fail();
  }
  for (auto& t : pool) t.join();
  if (fatal) std::rethrow_exception(fatal);

  out.aborted = abortedCount.load();
  out.wallMicros = nowMicros() - wallStart;
  obs::counter("par.batch.properties").add(properties.size());
  obs::gauge("par.batch.jobs").set(static_cast<int64_t>(workers));
  HSIS_LOG_INFO("par.batch", "batch complete",
                {{"properties", properties.size()},
                 {"workers", workers},
                 {"wall_micros", out.wallMicros},
                 {"aborted", out.aborted}});
  return out;
}

}  // namespace hsis::par
