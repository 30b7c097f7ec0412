// Coarse-grain parallel verification: check the independent properties of
// ONE loaded design on a pool of worker threads.
//
// The unit of parallelism is the property, and the isolation unit is the
// BddManager. This is the only parallelism in HSIS: a BddManager is
// single-threaded. A batch on `w` workers runs like this:
//
//  1. The calling thread builds the design and its reachable set on the
//     session, then settles every propositional AG invariant there (early
//     failure detection answers it from the cached reached set, far
//     cheaper than a replica).
//  2. The remaining properties go to min(jobs, remaining) workers: the
//     calling thread, checking on the session itself, plus one thread per
//     further worker, each with a full replica of the design's symbolic
//     machine — FSM, transition relation, fairness sets and the reached
//     set — in a manager of its own. The worker copies its replica itself
//     (BddTransfer), all workers at once: the copies only read the
//     session's manager and copy none of its handles, so its reference
//     counts are never written. The calling thread waits until the last
//     copy is done and only then touches the session again.
//  3. After setup the workers share no BDD state at all: no unique-table
//     contention, no cache interference, no GC coordination. Each builds
//     its checker (don't-care minimization of the seeded reached set) and
//     takes properties from a shared queue until it is empty.
//
// At jobs <= 1 the same steps run with no replica: the calling thread
// checks everything on the session.
//
// Language-containment properties run anywhere: the monitor is composed
// onto the design machine of whoever checks it — the session's or a
// replica's — on its monitor rail and its reached-minimized TR
// (Session::checkAutomatonOn).
//
// Abort semantics mirror hsis_serve's per-request contract: every worker,
// the calling thread included, checks under its own obs::TaskAbort slot,
// so a per-property abort (watchdog breach, explicit request) unwinds that
// property only — the report gets an "aborted:" note and the worker moves
// on. The calling thread binds its slot for the checks only and binds
// whatever slot it had before again on return. A process-wide abort stops
// the whole batch and rethrows after every worker has unwound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "debug/report.hpp"
#include "hsis/session.hpp"
#include "obs/control.hpp"
#include "pif/pif.hpp"

namespace hsis::par {

struct BatchOptions {
  /// Workers, the calling thread included. <= 1 checks every property on
  /// the calling thread with Session::check; no replica is built.
  int jobs = 1;
  /// Per-property wall-clock budget in seconds (0 = none), at any jobs.
  /// Breach aborts only the offending property, via the checking thread's
  /// TaskAbort slot.
  double propertyTimeoutSeconds = 0.0;
  /// Optional batch-wide abort relay (e.g. hsis_serve's per-request
  /// budget slot, owned by the submitting thread). Workers poll it at
  /// property boundaries: once raised, the whole batch unwinds and
  /// checkBatch rethrows AbortedError. Mid-property engine work is not
  /// interrupted by this relay — only the worker's own slot reaches the
  /// engine's safe points — so a breach surfaces at the next boundary.
  const obs::TaskAbort* requestAbort = nullptr;
};

struct BatchReport {
  /// One report per input property, in input order. An aborted property's
  /// report carries holds=false and an "aborted: <reason>" note.
  std::vector<BugReport> reports;
  /// Wall time each worker spent inside checks (excludes setup, idle and
  /// join time); entry 0 is the calling thread, which also settled the
  /// invariants. One entry per worker: min(jobs, properties not settled
  /// by the reached set), at least 1.
  std::vector<uint64_t> workerBusyMicros;
  uint64_t wallMicros = 0;
  /// Wall time from starting the worker threads until the last replica is
  /// copied, when the calling thread starts checking (0 without replicas).
  uint64_t transferMicros = 0;
  /// Total nodes structurally copied into all replicas.
  size_t transferredNodes = 0;
  int jobs = 1;  ///< the requested jobs (at least 1)
  size_t aborted = 0;  ///< properties that hit a per-property abort

  /// Busy-time bound on the batch speedup: sum of per-worker busy time
  /// over the longest worker. What the schedule would gain over serial
  /// execution given enough cores — reported alongside measured wall time
  /// because the two diverge on core-starved hosts.
  [[nodiscard]] double theoreticalSpeedup() const;
};

/// Check `properties` against the session's loaded design on up to `jobs`
/// workers. The session must have a design loaded; it is built (and its
/// reachability computed) on the calling thread first. The session is only
/// ever used by the calling thread, apart from the concurrent read-only
/// replica copies, during which the calling thread waits.
BatchReport checkBatch(Session& session,
                       std::span<const PifProperty> properties,
                       const BatchOptions& options = {});

}  // namespace hsis::par
