#include "serve/pool.hpp"

#include <deque>
#include <optional>
#include <thread>

#include "cex/cex.hpp"
#include "debug/report.hpp"
#include "obs/control.hpp"
#include "obs/ledger.hpp"
#include "obs/jsonlite.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/tracectx.hpp"
#include "par/batch.hpp"
#include "serve/telemetry.hpp"

namespace hsis::serve {

struct SessionPool::Job {
  CheckRequest req;
  FrameSink sink;
  std::string digest;
  uint64_t traceId = 0;    ///< resolved at admission, nonzero
  uint64_t enqueueNs = 0;  ///< admission time; queue stage + wall origin
  uint64_t dequeueNs = 0;  ///< worker pickup time (set by workerMain)
};

namespace {

/// The per-stage serve.latency.* histograms (micros). Registered once;
/// references are stable for the process lifetime (obs::Registry).
struct LatencyHistograms {
  obs::Histogram& queue = obs::histogram("serve.latency.queue");
  obs::Histogram& parse = obs::histogram("serve.latency.parse");
  obs::Histogram& tr = obs::histogram("serve.latency.tr");
  obs::Histogram& reach = obs::histogram("serve.latency.reach");
  obs::Histogram& check = obs::histogram("serve.latency.check");
  obs::Histogram& render = obs::histogram("serve.latency.render");
  obs::Histogram& total = obs::histogram("serve.latency.total");
};

LatencyHistograms& latencyHistograms() {
  static LatencyHistograms h;
  return h;
}

void recordStageLatencies(const StageMicros& st, uint64_t totalMicros) {
  LatencyHistograms& h = latencyHistograms();
  h.queue.record(st.queue);
  h.parse.record(st.parse);
  h.tr.record(st.tr);
  h.reach.record(st.reach);
  h.check.record(st.check);
  h.render.record(st.render);
  h.total.record(totalMicros);
}

}  // namespace

/// The coverage rollup a done frame carries: one cov::Report, reduced to
/// the five fields the frame and the ledger record.
struct CovRollup {
  bool enabled = false;
  double stateFraction = 0.0;
  uint64_t valuesReached = 0;
  uint64_t valuesTotal = 0;
  uint64_t binsHit = 0;
  uint64_t binsTotal = 0;
};

struct SessionPool::Worker {
  size_t index = 0;
  Session session;
  /// Coverage rollup of the resident design, built by its first CTL
  /// request and dropped when load() recompiles. The reached set does not
  /// depend on fairness, so a setFairness that rebuilds the checker keeps
  /// it. Empty until computed.
  std::optional<CovRollup> cov;
  obs::TaskAbort slot;
  obs::Watchdog dog;
  std::deque<Job> queue;  ///< guarded by the pool mutex
  bool busy = false;      ///< guarded by the pool mutex
  std::thread thread;

  explicit Worker(Session::Options options) : session(options) {}
};

SessionPool::SessionPool(PoolOptions options)
    : opts_(options),
      startNs_(obs::WallTimer::nowNs()),
      cache_(options.workers == 0 ? 1 : options.workers) {
  if (opts_.workers == 0) opts_.workers = 1;
  counters_.workers = opts_.workers;
  workers_.reserve(opts_.workers);
  for (size_t i = 0; i < opts_.workers; ++i) {
    auto w = std::make_unique<Worker>(opts_.session);
    w->index = i;
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    Worker& worker = *w;
    worker.thread = std::thread([this, &worker] { workerMain(worker); });
  }
}

SessionPool::~SessionPool() { shutdown(true); }

bool SessionPool::submit(CheckRequest request, FrameSink sink) {
  // Fill in server defaults / clamp to the ceiling outside the lock.
  Budget& b = request.budget;
  if (b.wallSeconds <= 0) b.wallSeconds = opts_.defaultBudget.wallSeconds;
  if (b.rssMb == 0) b.rssMb = opts_.defaultBudget.rssMb;
  if (opts_.maxBudget.wallSeconds > 0 &&
      (b.wallSeconds <= 0 || b.wallSeconds > opts_.maxBudget.wallSeconds))
    b.wallSeconds = opts_.maxBudget.wallSeconds;
  if (opts_.maxBudget.rssMb > 0 &&
      (b.rssMb == 0 || b.rssMb > opts_.maxBudget.rssMb))
    b.rssMb = opts_.maxBudget.rssMb;
  std::string digest = request.design.digest();
  // Resolve the request's trace identity at admission so the accepted
  // frame already carries it. A client-supplied id (16 hex digits) wins;
  // anything absent or malformed gets a fresh server-assigned id.
  uint64_t traceId = obs::parseTraceId(request.traceId);
  if (traceId == 0) traceId = obs::newTraceId();
  const std::string traceHex = obs::traceIdHex(traceId);
  const uint64_t enqueueNs = obs::WallTimer::nowNs();

  std::string accepted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ++counters_.rejected;
      obs::counter("serve.requests.rejected").add();
      sink(errorFrame(request.id, "server is shutting down"));
      return false;
    }
    if (queuedTotal_ >= opts_.maxQueue) {
      ++counters_.rejected;
      obs::counter("serve.requests.rejected").add();
      sink(errorFrame(request.id,
                      "queue full (" + std::to_string(queuedTotal_) +
                          " queued), retry later"));
      return false;
    }
    // Route: resident digest -> its worker (warm session); otherwise take
    // the LRU slot, evicting that worker's cold design.
    size_t slot;
    if (std::optional<size_t> hit = cache_.find(digest)) {
      slot = *hit;
      cache_.touch(digest);
    } else {
      slot = cache_.assign(digest);
    }
    ++queuedTotal_;
    obs::gauge("serve.queue_depth").set(static_cast<int64_t>(queuedTotal_));
    ++counters_.accepted;
    obs::counter("serve.requests.accepted").add();
    accepted = acceptedFrame(request.id, queuedTotal_, traceHex);
    workers_[slot]->queue.push_back(
        Job{std::move(request), sink, std::move(digest), traceId, enqueueNs});
  }
  sink(accepted);
  cv_.notify_all();
  return true;
}

void SessionPool::workerMain(Worker& worker) {
  obs::setThreadName("serve.worker." + std::to_string(worker.index));
  // The slot outlives every request this thread runs; safe points reached
  // below observe it, so a per-request watchdog can cancel just this
  // worker's request.
  obs::bindTaskAbort(&worker.slot);
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !worker.queue.empty(); });
      if (worker.queue.empty()) {
        if (stopping_) break;
        continue;
      }
      job = std::move(worker.queue.front());
      worker.queue.pop_front();
      job.dequeueNs = obs::WallTimer::nowNs();
      --queuedTotal_;
      obs::gauge("serve.queue_depth").set(static_cast<int64_t>(queuedTotal_));
      worker.busy = true;
    }
    runJob(worker, job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      worker.busy = false;
    }
  }
  obs::bindTaskAbort(nullptr);
}

void SessionPool::runJob(Worker& worker, Job& job) {
  // Bind the request's identity first: every Span, HSIS_LOG_* event, and
  // flight-recorder mirror on this thread now carries the trace id until
  // the scope closes. The span must nest inside the scope so it is stamped.
  obs::TraceContext traceCtx{job.traceId, job.req.id};
  obs::TraceScope traceScope(traceCtx);
  const std::string traceHex = obs::traceIdHex(job.traceId);
  obs::Span span("serve.request");
  const CheckRequest& req = job.req;
  std::string verdict = "error";
  std::string detail;
  DoneStats stats;
  stats.stages.queue =
      job.dequeueNs > job.enqueueNs ? (job.dequeueNs - job.enqueueNs) / 1000
                                    : 0;

  // Arm the per-request budget. Current (not peak) RSS: VmHWM is monotonic
  // over the daemon lifetime, so a peak check would trip forever once any
  // request ever crossed the limit.
  obs::WatchdogOptions wo;
  wo.wallLimitSeconds = req.budget.wallSeconds;
  wo.memLimitKb = req.budget.rssMb * 1024;
  wo.useCurrentRss = true;
  wo.target = &worker.slot;
  worker.dog.start(wo);  // a budget of 0/0 arms nothing

  try {
    obs::WallTimer stageTimer;
    bool reloaded = worker.session.load(req.design);
    if (reloaded) worker.cov.reset();
    worker.session.build();
    const uint64_t loadBuildMicros = stageTimer.micros();
    stats.cacheHit = !reloaded;
    stats.readMicros = reloaded ? worker.session.lastBuildMicros() : 0;
    // Stage split: the Session separates TR construction from the rest of
    // the build; everything else under load+build (parse, flatten, FSM
    // elaboration) counts as "parse". A cache hit leaves both at ~0.
    stats.stages.tr = worker.session.lastTrMicros();
    stats.stages.parse = loadBuildMicros > stats.stages.tr
                             ? loadBuildMicros - stats.stages.tr
                             : 0;
    obs::counter(stats.cacheHit ? "serve.cache.hit" : "serve.cache.miss")
        .add();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats.cacheHit ? ++counters_.cacheHits : ++counters_.cacheMisses;
    }
    job.sink(loadedFrame(req.id, stats.cacheHit, stats.readMicros, traceHex));
    HSIS_LOG_INFO("serve.request", "design loaded",
                  {{"digest", std::string_view(job.digest)},
                   {"cache", std::string_view(stats.cacheHit ? "hit"
                                                             : "miss")},
                   {"read_micros", stats.readMicros}});

    stageTimer.restart();
    PifFile pif = parsePif(req.pif);
    worker.session.setFairness(pif.fairness);
    worker.session.setWantTraces(req.wantTrace);
    stats.stages.parse += stageTimer.micros();

    // Force the reached-state fixpoint once, as its own stage, when any
    // CTL property will need it. The checker caches the result, so the
    // per-property "check" stage below measures pure model checking — and
    // a warm re-submission reports reach ~0 instead of re-paying it.
    bool anyCtl = false;
    for (const PifProperty& p : pif.properties)
      anyCtl = anyCtl || p.kind == PifProperty::Kind::Ctl;
    if (anyCtl) {
      stageTimer.restart();
      obs::Span reachSpan("serve.stage.reach");
      (void)worker.session.checker().reached();
      // Coverage rides on the just-computed fixpoint (symbolic-only here:
      // no simulator enumeration on the serve path), once per loaded
      // design. A disabled report leaves hasCoverage false, so legacy
      // frame/ledger shapes survive.
      if (!worker.cov) {
        cov::Report r = worker.session.coverage();
        worker.cov = CovRollup{r.enabled, r.stateFraction(),
                               r.valuesReached, r.valuesTotal, r.binsHit,
                               r.binsTotal};
      }
      if (worker.cov->enabled) {
        stats.hasCoverage = true;
        stats.covStateFraction = worker.cov->stateFraction;
        stats.covValuesReached = worker.cov->valuesReached;
        stats.covValuesTotal = worker.cov->valuesTotal;
        stats.covBinsHit = worker.cov->binsHit;
        stats.covBinsTotal = worker.cov->binsTotal;
      }
      stats.stages.reach = stageTimer.micros();
    }

    // Multi-property requests fan out onto the batch scheduler when the
    // pool is configured for it: one replica manager per batch worker,
    // verdict frames emitted afterwards in property order. The request's
    // abort slot is relayed so a budget breach still unwinds the batch
    // (at property boundaries) with verdict "aborted".
    std::vector<BugReport> batchReports;
    bool usedBatch = false;
    if (opts_.batchJobs > 1 && pif.properties.size() > 1) {
      stageTimer.restart();
      obs::Span batchSpan("serve.stage.batch");
      par::BatchOptions bo;
      bo.jobs = opts_.batchJobs;
      bo.requestAbort = &worker.slot;
      par::BatchReport batch =
          par::checkBatch(worker.session, pif.properties, bo);
      stats.stages.check += stageTimer.micros();
      batchReports = std::move(batch.reports);
      usedBatch = true;
    }

    for (size_t pi = 0; pi < pif.properties.size(); ++pi) {
      const PifProperty& p = pif.properties[pi];
      obs::checkAbort();  // between properties, not only at engine depth
      stageTimer.restart();
      BugReport r =
          usedBatch ? std::move(batchReports[pi]) : worker.session.check(p);
      if (!usedBatch) stats.stages.check += stageTimer.micros();
      ++stats.properties;
      VerdictInfo v;
      v.property = r.propertyName;
      v.languageContainment =
          r.paradigm == BugReport::Paradigm::LanguageContainment;
      v.holds = r.holds;
      v.seconds = r.seconds;
      if (!r.holds && req.wantTrace) {
        stageTimer.restart();
        if (r.trace.has_value())
          v.trace = renderTrace(*r.trace, worker.session.fsm());
        for (const std::string& n : r.notes) {
          if (!v.trace.empty()) v.trace += '\n';
          v.trace += n;
        }
        stats.stages.render += stageTimer.micros();
      }
      if (!r.holds) {
        ++stats.failures;
        if (!detail.empty()) detail += ", ";
        detail += r.propertyName;
      }
      // Counterexample capture: the first failing CTL check with a trace
      // gets a replay-verified cex.json/cex.vcd pair under the artifact
      // dir, keyed by the request's trace id. Unlike slow capture this
      // runs before the done frame, so the done stats and the ledger
      // record both carry the pointer. LC failures live in the product
      // FSM, whose states don't decode against the design — excluded.
      if (!r.holds && r.trace.has_value() &&
          r.paradigm == BugReport::Paradigm::ModelChecking && !stats.hasCex &&
          !opts_.artifactDir.empty() && cex::cexEnabled()) {
        cex::BuildInputs bi;
        bi.propertyName = r.propertyName;
        bi.propertyText = r.propertyText;
        bi.traceId = traceHex;
        bi.designName = req.name.empty() ? job.digest : req.name;
        bi.designDigest = job.digest;
        bi.designKind =
            req.design.kind == Session::DesignSource::Kind::Verilog
                ? "verilog"
                : "blifmv";
        bi.designTop = req.design.top;
        bi.designText = req.design.text;
        cex::Artifact art = cex::build(worker.session.fsm(), *r.trace, bi);
        cex::verifyAndStamp(art, worker.session.fsm(), worker.session.tr());
        std::string dir = opts_.artifactDir + "/" + traceHex;
        if (cex::writeFiles(art, dir + "/cex.json", dir + "/cex.vcd")) {
          stats.hasCex = true;
          stats.cexPath = dir;
          stats.cexReplay = art.replay;
          obs::counter("serve.cex_captures").add();
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.cexCaptures;
          }
          HSIS_LOG_INFO("serve.request", "counterexample captured",
                        {{"property", std::string_view(r.propertyName)},
                         {"replay", std::string_view(art.replay)},
                         {"artifact_dir", std::string_view(dir)}});
        }
      }
      job.sink(verdictFrame(req.id, v, traceHex));
    }
    verdict = stats.failures == 0 ? "pass" : "fail";
  } catch (const obs::AbortedError& e) {
    verdict = "aborted";
    detail = e.reason();
  } catch (const std::exception& e) {
    verdict = "error";
    detail = e.what();
  }
  worker.dog.stop();
  worker.slot.clear();

  // A failed/aborted load leaves the session empty: drop the cache claim
  // so the next request for this digest is routed as a plain miss.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!worker.session.resident() || worker.session.digest() != job.digest)
      cache_.drop(job.digest);
    if (verdict == "pass" || verdict == "fail") {
      ++counters_.completed;
    } else if (verdict == "aborted") {
      ++counters_.aborted;
    } else {
      ++counters_.failed;
    }
    if (stats.hasCoverage) {
      ++counters_.covReports;
      counters_.covLastStateFraction = stats.covStateFraction;
      counters_.covLastValuesReached = stats.covValuesReached;
      counters_.covLastValuesTotal = stats.covValuesTotal;
      counters_.covLastBinsHit = stats.covBinsHit;
      counters_.covLastBinsTotal = stats.covBinsTotal;
    }
  }
  obs::counter(verdict == "aborted"  ? "serve.requests.aborted"
               : verdict == "error" ? "serve.requests.failed"
                                    : "serve.requests.completed")
      .add();

  // Wall is end-to-end (admission -> done), so the stage micros — queue
  // included — account for it: their sum tracks wall_s to within the
  // untimed slivers (frame I/O, counter updates).
  const uint64_t doneNs = obs::WallTimer::nowNs();
  const uint64_t totalMicros =
      doneNs > job.enqueueNs ? (doneNs - job.enqueueNs) / 1000 : 0;
  stats.wallSeconds = static_cast<double>(totalMicros) * 1e-6;
  recordStageLatencies(stats.stages, totalMicros);
  job.sink(doneFrame(req.id, verdict, detail, stats, traceHex));

  if (!opts_.ledgerPath.empty()) {
    obs::ledger::Record rec;
    rec.runId = obs::ledger::runId();
    rec.time = obs::ledger::timestampUtc();
    rec.driver = opts_.driverName;
    rec.subject = req.name.empty() ? job.digest : req.name;
    rec.result = verdict;
    rec.detail = detail;
    rec.digest = job.digest;
    rec.wallSeconds = stats.wallSeconds;
    rec.peakRssKb = obs::peakRssKb();
    rec.gitSha = obs::gitSha();
    rec.config = std::string("cache=") + (stats.cacheHit ? "hit" : "miss") +
                 " wall_budget_s=" + std::to_string(req.budget.wallSeconds) +
                 " rss_budget_mb=" + std::to_string(req.budget.rssMb);
    rec.traceId = traceHex;
    rec.stages = {{"queue", stats.stages.queue},
                  {"parse", stats.stages.parse},
                  {"tr", stats.stages.tr},
                  {"reach", stats.stages.reach},
                  {"check", stats.stages.check},
                  {"render", stats.stages.render}};
    if (stats.hasCoverage) {
      rec.hasCoverage = true;
      rec.covStateFraction = stats.covStateFraction;
      rec.covValuesReached = stats.covValuesReached;
      rec.covValuesTotal = stats.covValuesTotal;
      rec.covBinsHit = stats.covBinsHit;
      rec.covBinsTotal = stats.covBinsTotal;
    }
    if (stats.hasCex) {
      rec.cexPath = stats.cexPath;
      rec.cexReplay = stats.cexReplay;
    }
    rec.obsEnabled = obs::kEnabled;
    obs::ledger::append(opts_.ledgerPath, rec);
  }

  // Slow-request auto-capture: after the done frame, so the client never
  // waits on artifact I/O. One call site -> at most one capture/request.
  if (opts_.slowThresholdSeconds > 0 && !opts_.artifactDir.empty() &&
      stats.wallSeconds > opts_.slowThresholdSeconds) {
    SlowRequestInfo info;
    info.traceId = job.traceId;
    info.requestId = req.id;
    info.name = req.name.empty() ? job.digest : req.name;
    info.digest = job.digest;
    info.verdict = verdict;
    info.detail = detail;
    info.cacheHit = stats.cacheHit;
    info.wallSeconds = stats.wallSeconds;
    info.thresholdSeconds = opts_.slowThresholdSeconds;
    info.stages = stats.stages;
    std::string dir = writeSlowRequestArtifacts(opts_.artifactDir, info);
    if (!dir.empty()) {
      obs::counter("serve.slow_captures").add();
      HSIS_LOG_WARN("serve.request", "slow request captured",
                    {{"wall_s", stats.wallSeconds},
                     {"threshold_s", opts_.slowThresholdSeconds},
                     {"artifact_dir", std::string_view(dir)}});
    }
  }
}

void SessionPool::shutdown(bool abortInFlight) {
  std::vector<Job> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      if (abortInFlight) {
        for (auto& w : workers_) {
          // Reject everything still queued and cancel the running request;
          // the slot is only honored by a thread mid-job (runJob clears it
          // on the way out), so raising it on an idle worker is harmless —
          // its next wait loops back to the stopping_ exit.
          for (Job& job : w->queue) dropped.push_back(std::move(job));
          w->queue.clear();
          if (w->busy) w->slot.request("server shutdown");
        }
        queuedTotal_ = 0;
        obs::gauge("serve.queue_depth").set(0);
      }
    }
  }
  for (Job& job : dropped) {
    ++counters_.rejected;
    job.sink(errorFrame(job.req.id, "server shutting down"));
  }
  cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

SessionPool::Stats SessionPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = counters_;
  s.queueDepth = queuedTotal_;
  s.workers = workers_.size();
  s.busyWorkers = 0;
  for (const auto& w : workers_) {
    if (w->busy) ++s.busyWorkers;
  }
  s.evictions = cache_.evictions();
  s.resident = cache_.residents();
  return s;
}

std::string SessionPool::statsJsonObject() const {
  Stats s = stats();
  std::string out;
  obs::jsonlite::Writer w(out);
  w.beginObject().key("workers").value(s.workers);
  w.key("busy_workers").value(s.busyWorkers);
  w.key("queue_depth").value(s.queueDepth);
  w.key("accepted").value(s.accepted).key("rejected").value(s.rejected);
  w.key("completed").value(s.completed).key("failed").value(s.failed);
  w.key("aborted").value(s.aborted).key("cache_hits").value(s.cacheHits);
  w.key("cache_misses").value(s.cacheMisses);
  w.key("evictions").value(s.evictions);
  w.key("cex_captures").value(s.cexCaptures);
  w.key("resident").beginArray();
  for (const std::string& digest : s.resident) w.value(digest);
  w.endArray().endObject();
  return out;
}

std::string SessionPool::statsStreamJson() const {
  Stats s = stats();
  const uint64_t nowNs = obs::WallTimer::nowNs();
  const double tSeconds =
      nowNs > startNs_ ? static_cast<double>(nowNs - startNs_) * 1e-9 : 0.0;
  const uint64_t lookups = s.cacheHits + s.cacheMisses;
  const double hitRate =
      lookups > 0 ? static_cast<double>(s.cacheHits) /
                        static_cast<double>(lookups)
                  : 0.0;
  std::string out;
  obs::jsonlite::Writer w(out);
  w.beginObject().key("t_s").value(tSeconds);
  w.key("queue_depth").value(s.queueDepth).key("workers").value(s.workers);
  w.key("busy_workers").value(s.busyWorkers);
  w.key("rss_kb").value(obs::currentRssKb());
  w.key("requests").beginObject().key("accepted").value(s.accepted);
  w.key("rejected").value(s.rejected).key("completed").value(s.completed);
  w.key("failed").value(s.failed).key("aborted").value(s.aborted);
  w.endObject().key("cache").beginObject().key("hits").value(s.cacheHits);
  w.key("misses").value(s.cacheMisses).key("evictions").value(s.evictions);
  w.key("hit_rate").value(hitRate).endObject();
  w.key("latency_us").beginObject();
  const LatencyHistograms& h = latencyHistograms();
  const std::pair<const char*, const obs::Histogram*> stages[] = {
      {"queue", &h.queue}, {"parse", &h.parse},   {"tr", &h.tr},
      {"reach", &h.reach}, {"check", &h.check},   {"render", &h.render},
      {"total", &h.total}};
  for (const auto& [name, hist] : stages) {
    w.key(name).raw(obs::histogramSummaryJson(obs::summarizeHistogram(*hist)));
  }
  // Constant-shape coverage summary (last report wins); all zeros until a
  // CTL request completed with coverage enabled.
  w.endObject().key("coverage").beginObject();
  w.key("reports").value(s.covReports);
  w.key("state_fraction").value(s.covLastStateFraction);
  w.key("values_reached").value(s.covLastValuesReached);
  w.key("values_total").value(s.covLastValuesTotal);
  w.key("bins_hit").value(s.covLastBinsHit);
  w.key("bins_total").value(s.covLastBinsTotal).endObject();
  w.key("cex").beginObject().key("captures").value(s.cexCaptures);
  w.endObject().endObject();
  return out;
}

}  // namespace hsis::serve
