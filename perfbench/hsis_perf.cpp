// hsis_perf — the benchmark program behind perfbench/run.py.
//
//   hsis_perf --workload table1|scaled|serve|batch --seed N --seconds S
//             --trace 0|1 --models DIR --serve-bin PATH
//
// Sets up the workload several times (input generation, daemon start on
// `serve`, one warm-up job per distinct design), then runs jobs closed-loop
// for S seconds and checks every verdict and reached count. Reference
// slices timed beside the jobs give the host's speed, and end-to-end times
// are reported at a fixed host speed (hostspeed.hpp). --trace 1
// replays every other round of jobs under per-layer spans. Prints a
// report, then one JSON result line; exits 1 when any job failed. See
// perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "designs.hpp"
#include "hostspeed.hpp"
#include "jobs.hpp"
#include "obs/obs.hpp"
#include "serve/protocol.hpp"
#include "serve_client.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr int kServeWorkers = 2;
constexpr int kServeClients = 4;
/// On `serve` the reference slices run beside the daemon, one this often.
constexpr double kServeSlicePeriodMs = 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string models = "models";
  std::string serveBin;
};

/// splitmix64: a fixed generator, so a seed means the same inputs on every
/// standard library.
struct Rng {
  uint64_t s;
  uint64_t next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[next() % i]);
  }
};

double seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The mean of the sorted samples whose rank lies within n/20 of
/// q * (n - 1), or the one sample nearest to it. A mix of designs has gaps
/// between their times, and a single order statistic at a gap jumps from
/// one design's fastest run to the next design's slowest; the mean over a
/// band of ranks moves smoothly instead.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double center = q * (n - 1);
  const double half = std::max(0.5, n / 20);
  const auto lo = static_cast<size_t>(std::max(0.0, std::ceil(center - half)));
  const auto hi = static_cast<size_t>(std::min(n - 1, std::floor(center + half)));
  double sum = 0;
  for (size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double processCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec / 1e3; };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

std::string hostBlock(const Args& a) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  const char* sha = std::getenv("HSIS_GIT_SHA");
  using hsis::serve::escapeJson;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"obs\": %s, \"git_sha\": \"%s\", "
                "\"seed\": %llu}",
                std::thread::hardware_concurrency(), escapeJson(cpu).c_str(),
                HSIS_PERF_COMPILER, HSIS_PERF_BUILD_TYPE,
                hsis::obs::kEnabled ? "true" : "false",
                escapeJson(sha ? sha : "unknown").c_str(),
                static_cast<unsigned long long>(a.seed));
  return buf;
}

// ------------------------------------------------------------- workloads

int batchJobs() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// An in-process workload: its designs, and how one job checks a design.
struct Workload {
  std::function<std::vector<Design>()> designs;
  /// Shuffle each round by the seed. Off for table1, whose peak RSS
  /// otherwise follows the order the six designs grow the heap in.
  bool seededOrder = true;
  bool batch = false;  ///< par::checkBatch instead of serial checks

  /// Runs one job of design `d`; traced when `t` is set.
  JobResult job(const Design& d, Tracer* t, uint64_t id,
                LayerCounts* c) const {
    JobResult r = batch ? batchJob(d, batchJobs(), t, id, c)
                        : serialJob(d, t, id, c);
    // Hand the free heap back, so the next job starts from memory like a
    // fresh hsis_cli process's. Without it, how earlier jobs fragmented the
    // heap set table1's peak RSS at 29 or 35.6 MB from run to run.
    malloc_trim(0);
    return r;
  }
};

// Generated sizes: one job takes about 0.2-0.6 s on a 4-core Xeon, so the
// BDD core and fixpoints dominate and parsing is a few percent, yet a run
// still holds about seventy jobs (per-job times on a shared host vary by
// a third). Three designs per round keep the median inside one design's
// runs. philos-N grows about tenfold per seat past 6.
Workload makeWorkload(const Args& a) {
  if (a.workload == "table1")
    return {[m = a.models] { return table1Designs(m); }, false};
  if (a.workload == "scaled")
    return {[] {
      return std::vector<Design>{scheduler(16, false), scheduler(24, false),
                                 philos(6, false)};
    }};
  if (a.workload == "batch")
    return {[] {
              return std::vector<Design>{scheduler(16, true),
                                         scheduler(20, true), philos(6, true)};
            },
            true, true};
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

// ------------------------------------------------------------------ runs

struct Sample {
  size_t design = 0;
  JobResult r;
  RequestTimes times;  ///< serve only
  int64_t startNs = 0, endNs = 0;  ///< the job's span, steady clock
};

using Interval = std::pair<int64_t, int64_t>;  ///< steady-clock ns

struct Outcome {
  std::vector<Interval> setups;  ///< one per set-up
  std::vector<Sample> measured;  ///< untraced jobs
  std::vector<Sample> traced;    ///< traced jobs (--trace 1)
  Interval window;               ///< the measured window
  double windowS = 0;  ///< measured wall time, reference slices excluded
  double cpuMs = 0;
  HostSpeed speed;
  double peakRssMb = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;
  Tracer tracer;
  LayerCounts counts;
  std::vector<Design> designs;
};

void record(Outcome& o, const Design& d, const JobResult& r) {
  ++o.attempted;
  std::string why = verify(d, r);
  if (why.empty()) return;
  ++o.failed;
  if (o.failures.size() < 10) o.failures.push_back(d.name + ": " + why);
}

/// The traced replay must give exactly the untraced answers.
void compareTraced(Outcome& o) {
  std::map<size_t, const JobResult*> first;
  for (const Sample& s : o.measured) first.emplace(s.design, &s.r);
  for (const Sample& s : o.traced) {
    auto it = first.find(s.design);
    if (it == first.end()) continue;
    if (it->second->reached != s.r.reached ||
        it->second->verdicts != s.r.verdicts) {
      ++o.failed;
      o.failures.push_back(o.designs[s.design].name +
                           ": traced answer differs from untraced");
    }
  }
}

/// Closed loop, one client: whole rounds (every design once) until
/// `secs` have passed, so each design gets the same job count. With
/// `trace`, every other round replays its jobs under spans, so host speed
/// phases fall on traced and untraced jobs alike. A reference slice runs
/// before each job, on the job's thread, outside its time.
void runRounds(const Workload& w, Rng& rng, double secs, bool trace,
               Outcome& o) {
  std::vector<size_t> order(o.designs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const int64_t start = Tracer::nowNs();
  const int64_t deadline = start + static_cast<int64_t>(secs * 1e9);
  double sliceMs = 0;
  for (size_t round = 0; Tracer::nowNs() < deadline; ++round) {
    if (w.seededOrder) rng.shuffle(order);
    const bool traced = trace && round % 2 == 1;
    std::vector<Sample>& out = traced ? o.traced : o.measured;
    for (size_t i : order) {
      sliceMs += o.speed.sample();
      Sample s;
      s.design = i;
      s.startNs = Tracer::nowNs();
      s.r = w.job(o.designs[i], traced ? &o.tracer : nullptr, out.size(),
                  traced ? &o.counts : nullptr);
      s.endNs = s.startNs + static_cast<int64_t>(s.r.ms * 1e6);
      record(o, o.designs[i], s.r);
      out.push_back(std::move(s));
    }
  }
  o.window = {start, Tracer::nowNs()};
  o.windowS = seconds(o.window.second - start) - sliceMs / 1e3;
}

void runInProcess(const Args& a, Outcome& o) {
  const Workload w = makeWorkload(a);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    o.speed.sample();
    const int64_t t0 = Tracer::nowNs();
    o.designs = w.designs();
    for (const Design& d : o.designs)
      record(o, d, w.job(d, nullptr, 0, nullptr));
    o.setups.emplace_back(t0, Tracer::nowNs());
  }
  o.speed.sample();  // the last set-up's slices on both sides
  Rng rng{a.seed};
  const double cpu0 = processCpuMs();
  runRounds(w, rng, a.seconds, a.trace, o);
  o.cpuMs = processCpuMs() - cpu0;
  o.peakRssMb = vmHwmMb("/proc/self/status");
  if (a.trace) compareTraced(o);
}

/// The `serve` designs: the Table-1 designs whose jobs take under 50 ms.
/// scheduler and 2mdlc requests take 0.2-1 s once queued, so a run holds
/// too few of them for its latency medians to repeat: with all six
/// designs they spread 0.15-0.33 (IQR over median) across five seeds.
std::vector<Design> serveDesigns(const std::string& models) {
  std::vector<Design> out;
  for (Design& d : table1Designs(models))
    if (d.name != "scheduler" && d.name != "2mdlc") out.push_back(std::move(d));
  return out;
}

/// The `serve` request mix: a deck holding 60/k cards of the k-th design
/// in Table-1 order, a Zipf(1) popularity, dealt in seeded random order and
/// shuffled again when empty. All connections draw from the one deck
/// without waiting for each other, so the order of requests is random but
/// a run's mix stays within one deck of the popularity.
class Deck {
 public:
  Deck(size_t designs, uint64_t seed) : rng_{seed} {
    for (size_t k = 0; k < designs; ++k)
      cards_.insert(cards_.end(), 60 / (k + 1), k);
    next_ = cards_.size();
  }
  size_t draw() {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ == cards_.size()) {
      rng_.shuffle(cards_);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::mutex mu_;
  Rng rng_;
  std::vector<size_t> cards_;
  size_t next_ = 0;  ///< guarded by mu_
};

/// kServeClients connections, each closed-loop, drawing designs from the
/// seeded deck until `secs` have passed.
std::vector<Sample> serveWindow(const Daemon& daemon,
                                const std::vector<Design>& designs,
                                uint64_t seed, double secs, Outcome& o) {
  std::vector<Sample> out;
  std::mutex mu;
  Deck deck(designs.size(), seed);
  const int64_t start = Tracer::nowNs();
  const int64_t deadline = start + static_cast<int64_t>(secs * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<Sample> mine;
      try {
        Connection conn(daemon.socketPath());
        while (Tracer::nowNs() < deadline) {
          Sample s;
          s.design = deck.draw();
          s.r = checkRequest(conn, designs[s.design],
                             "c" + std::to_string(c) + "-" +
                                 std::to_string(mine.size()),
                             s.times);
          s.startNs = s.times.sendNs;
          s.endNs = s.times.doneNs;
          mine.push_back(std::move(s));
        }
      } catch (const std::exception& e) {
        Sample s;
        s.r.error = e.what();
        mine.push_back(std::move(s));
      }
      std::lock_guard<std::mutex> lock(mu);
      for (Sample& s : mine) {
        record(o, designs[s.design], s.r);
        out.push_back(std::move(s));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  o.window = {start, Tracer::nowNs()};
  o.windowS = seconds(o.window.second - start);
  return out;
}

void runServe(const Args& a, Outcome& o) {
  std::vector<Design>& designs = o.designs;
  std::unique_ptr<Daemon> daemon;
  o.speed.startBackground(kServeSlicePeriodMs);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();  // the previous repetition's daemon
    const int64_t t0 = Tracer::nowNs();
    designs = serveDesigns(a.models);
    daemon = std::make_unique<Daemon>(
        a.serveBin, "hsis-" + std::to_string(rep) + ".sock", kServeWorkers);
    Connection conn(daemon->socketPath());
    for (size_t i = 0; i < designs.size(); ++i) {
      RequestTimes t;
      record(o, designs[i],
             checkRequest(conn, designs[i], "warm-" + std::to_string(i), t));
    }
    o.setups.emplace_back(t0, Tracer::nowNs());
  }
  const double cpu0 = daemon->cpuMs();
  o.measured = serveWindow(*daemon, designs, a.seed, a.seconds, o);
  o.cpuMs = daemon->cpuMs() - cpu0;
  o.speed.stopBackground();
  o.peakRssMb = daemon->peakRssMb();
  if (!a.trace) return;
  // The client keeps every request's frame arrival times, traced or not,
  // so the traced run is the same window; its spans are built afterwards.
  o.traced = o.measured;
  uint64_t id = 0;
  for (const Sample& s : o.traced) {
    const RequestTimes& t = s.times;
    if (t.doneNs == 0) continue;
    o.tracer.add("serve.request", -1, id, t.sendNs, t.doneNs - t.sendNs);
    const int root = static_cast<int>(o.tracer.spans().size()) - 1;
    if (t.acceptedNs && t.loadedNs && t.lastVerdictNs) {
      o.tracer.add("serve.accepted", root, id, t.sendNs,
                   t.acceptedNs - t.sendNs);
      o.tracer.add("serve.loaded", root, id, t.acceptedNs,
                   t.loadedNs - t.acceptedNs);
      o.tracer.add("serve.verdicts", root, id, t.loadedNs,
                   t.lastVerdictNs - t.loadedNs);
      o.tracer.add("serve.done", root, id, t.lastVerdictNs,
                   t.doneNs - t.lastVerdictNs);
    }
    ++id;
  }
}

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< report only: sample count or base
};

/// Job times of the samples without error; with `design`, of that design
/// only.
std::vector<double> jobMs(const std::vector<Sample>& s,
                          std::optional<size_t> design = std::nullopt) {
  std::vector<double> v;
  for (const Sample& x : s)
    if (x.r.error.empty() && (!design || x.design == *design))
      v.push_back(x.r.ms);
  return v;
}

/// Times as measured, and divided by the host slowdown they ran under.
struct Series {
  std::vector<double> measured, normalized;
  void add(double v, double slowdown) {
    measured.push_back(v);
    normalized.push_back(v / slowdown);
  }
};

/// Each job's and set-up's time is divided by the host slowdown around it,
/// and the window's rate and CPU time by the window's mean slowdown
/// (hostspeed.hpp); each note keeps the figure as measured.
std::vector<Metric> endToEnd(const Args& a, const Outcome& o) {
  std::vector<Metric> m;
  auto add = [&](const char* name, double value, double measured,
                 const char* unit, const std::string& note) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "measured %.4g; ", measured);
    m.push_back({name, value, unit, buf + note});
  };
  auto median = [&](const char* name, const Series& s, double q,
                    const char* unit, const std::string& note) {
    add(name, quantile(s.normalized, q), quantile(s.measured, q), unit, note);
  };
  Series setup;
  for (const auto& [from, to] : o.setups)
    setup.add(seconds(to - from), o.speed.slowdownAt(from, to));
  median("setup_s", setup, 0.5, "s",
         "median of " + std::to_string(o.setups.size()) + " set-ups");
  const double slow = o.speed.meanSlowdown(o.window.first, o.window.second);
  const double jobs = static_cast<double>(o.measured.size());
  add("jobs_per_s", jobs / o.windowS * slow, jobs / o.windowS, "1/s",
      std::to_string(o.measured.size()) + " jobs in " +
          std::to_string(o.windowS) + " s");
  // Off `serve` every job compiles its design. There the cold part of a
  // job is load through reachability, the work a `serve` cache hit skips,
  // and the warm part the property checks, the work a hit runs.
  Series all, cold, warm;
  for (const Sample& s : o.measured) {
    if (!s.r.error.empty()) continue;
    const double f = o.speed.slowdownAt(s.startNs, s.endNs);
    all.add(s.r.ms, f);
    if (a.workload == "serve") {
      (s.r.cold ? cold : warm).add(s.r.ms, f);
    } else {
      cold.add(s.r.ms - s.r.checkMs, f);
      warm.add(s.r.checkMs, f);
    }
  }
  const std::string n = "n=" + std::to_string(all.measured.size());
  median("job_ms.p50", all, 0.5, "ms", n);
  median("job_ms.p90", all, 0.9, "ms", n);
  median("cold_job_ms.p50", cold, 0.5, "ms",
         "n=" + std::to_string(cold.measured.size()));
  median("warm_job_ms.p50", warm, 0.5, "ms",
         "n=" + std::to_string(warm.measured.size()));
  const double cpu = jobs > 0 ? o.cpuMs / jobs : 0;
  add("cpu_ms_per_job", cpu / slow, cpu, "ms",
      a.workload == "serve" ? "daemon" : "benchmark process");
  m.push_back({"peak_rss_mb", o.peakRssMb, "MB",
               a.workload == "serve" ? "daemon" : "benchmark process"});
  return m;
}

std::vector<Metric> perLayer(const Args& a, const Outcome& o) {
  const auto totals = o.tracer.totals();
  const double jobs = std::max<double>(1.0, static_cast<double>(o.traced.size()));
  auto selfMs = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.selfMs / jobs;
  };
  const LayerCounts& c = o.counts;
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::vector<Metric> m = {
      {"vl2mv.compile_ms", selfMs("vl2mv.compile"), "ms", ""},
      {"blifmv.flatten_ms", selfMs("blifmv.flatten"), "ms", ""},
      {"fsm.elab_ms", selfMs("fsm.elab"), "ms", ""},
      {"fsm.tr_build_ms", selfMs("fsm.tr_build"), "ms", ""},
      {"fsm.tr_clusters", c.trClusters / jobs, "count", ""},
      {"fsm.tr_nodes", c.trNodes / jobs, "count", ""},
      {"fsm.reach_ms", selfMs("fsm.reach"), "ms", ""},
      {"fsm.reach_steps", c.reachSteps / jobs, "count", ""},
      {"ctl.check_ms", selfMs("ctl.check"), "ms", ""},
      {"ctl.preimage_calls", c.preimageCalls / jobs, "count", ""},
      {"ctl.fixpoint_iters", c.fixpointIters / jobs, "count", ""},
      {"ctl.efd_frac", frac(c.ctlEfd, c.ctlChecks), "frac",
       "base " + std::to_string(static_cast<long long>(c.ctlChecks)) +
           " CTL checks"},
      {"lc.build_ms", selfMs("lc.build"), "ms", ""},
      {"lc.check_ms", selfMs("lc.check"), "ms", ""},
      {"lc.hull_iters", c.lcHullIters / jobs, "count", ""},
      {"lc.reach_steps", c.lcReachSteps / jobs, "count", ""},
      {"bdd.cache_lookups", c.cacheLookups / jobs, "count", ""},
      {"bdd.cache_hit_frac", frac(c.cacheHits, c.cacheLookups), "frac",
       "base " + std::to_string(static_cast<long long>(c.cacheLookups)) +
           " lookups"},
      {"bdd.gc_runs", c.gcRuns / jobs, "count", ""},
      {"bdd.peak_live_nodes", c.peakLiveNodes, "count", "max over managers"},
      {"bdd.allocated_nodes", c.allocatedNodes / jobs, "count", ""},
      {"par.wall_ms", c.parWallMs / jobs, "ms", ""},
      {"par.transfer_ms", c.parTransferMs / jobs, "ms", ""},
      {"par.transferred_nodes", c.parTransferredNodes / jobs, "count", ""},
      {"par.busy_frac", frac(c.parBusyMs, c.parWorkerMs), "frac",
       "busy / (workers x batch wall)"},
      {"par.speedup_bound", c.parSpeedupBound / jobs, "x", ""},
  };
  // Serve frame gaps, client side: send->accepted->loaded->last verdict->done.
  double queueMs = 0, hits = 0, rejected = 0;
  for (const Sample& s : o.traced) {
    queueMs += static_cast<double>(s.times.queueMicros) / 1e3;
    hits += s.r.cold ? 0 : 1;
    rejected += s.times.rejected ? 1 : 0;
  }
  const bool serve = a.workload == "serve";
  m.push_back({"serve.accepted_ms", selfMs("serve.accepted"), "ms", ""});
  m.push_back({"serve.loaded_ms", selfMs("serve.loaded"), "ms", ""});
  m.push_back({"serve.verdicts_ms", selfMs("serve.verdicts"), "ms", ""});
  m.push_back({"serve.done_ms", selfMs("serve.done"), "ms", ""});
  m.push_back({"serve.queue_ms", serve ? queueMs / jobs : 0, "ms", ""});
  m.push_back({"serve.cache_hit_frac", serve ? hits / jobs : 0, "frac",
               "base " + std::to_string(o.traced.size()) + " requests"});
  m.push_back({"serve.rejected", rejected, "count", ""});
  // On `serve` the traced and untraced requests are the same requests.
  // Elsewhere each design's traced and untraced medians are compared, so
  // the mix of designs around the overall median does not enter.
  double overhead = 0;
  if (!serve && !o.designs.empty()) {
    for (size_t d = 0; d < o.designs.size(); ++d)
      overhead += quantile(jobMs(o.traced, d), 0.5) -
                  quantile(jobMs(o.measured, d), 0.5);
    overhead /= static_cast<double>(o.designs.size());
  }
  m.push_back({"trace.overhead_ms", overhead, "ms",
               serve ? "spans built from frame times kept on every request"
                     : "traced minus untraced median job ms, mean over "
                       "designs, alternate rounds"});
  return m;
}

void printPerDesign(const std::vector<Sample>& samples,
                    const std::vector<Design>& designs) {
  // The reached check uses the benchmark's exact count; where the engine's
  // own double count disagrees, say so without failing the job.
  std::map<size_t, double> engine;
  for (const Sample& s : samples)
    if (s.r.engineReached >= 0 && s.r.reached > 0 &&
        std::fabs(s.r.engineReached - s.r.reached) > 1e-12 * s.r.reached)
      engine[s.design] = s.r.engineReached;
  for (const auto& [d, count] : engine)
    std::printf("note: %s: Session::reachedStates() = %.17g, exact %.17g\n",
                designs[d].name.c_str(), count, designs[d].reached);
  std::printf("per design (median ms, jobs):\n");
  for (size_t d = 0; d < designs.size(); ++d) {
    std::vector<double> v, cold, warm;
    for (const Sample& s : samples) {
      if (s.design != d || !s.r.error.empty()) continue;
      v.push_back(s.r.ms);
      (s.r.cold ? cold : warm).push_back(s.r.ms);
    }
    std::printf("  %-14s %10.3f ms %5zu jobs  (cold %zu, %.3f ms; warm %zu, "
                "%.3f ms)\n",
                designs[d].name.c_str(), quantile(v, 0.5), v.size(),
                cold.size(), quantile(cold, 0.5), warm.size(),
                quantile(warm, 0.5));
  }
}

void printSelfTimes(const Outcome& o) {
  const double jobs = std::max<double>(1.0, static_cast<double>(o.traced.size()));
  std::printf("self time per job (%zu traced jobs):\n", o.traced.size());
  std::printf("  %-18s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : o.tracer.totals())
    std::printf("  %-18s %8zu %12.3f %12.3f\n", name.c_str(), t.count,
                t.totalMs / jobs, t.selfMs / jobs);
}

void writeSpans(const Args& a, const Tracer& t) {
  std::ofstream out("spans-" + a.workload + "-" + std::to_string(a.seed) +
                    ".json");
  out << "[\n";
  bool first = true;
  for (const Span& s : t.spans()) {
    out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs
        << ", \"parent\": " << s.parent << ", \"job\": " << s.job << "}";
    first = false;
  }
  out << "\n]\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: hsis_perf --workload table1|scaled|serve|batch "
               "--seed N --seconds S --trace 0|1 --models DIR "
               "[--serve-bin PATH]\n");
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--models") a.models = v;
    else if (k == "--serve-bin") a.serveBin = v;
    else return usage();
  }
  if (a.workload.empty() || a.seconds <= 0) return usage();
  if (a.workload == "serve" && a.serveBin.empty()) return usage();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("host: %s\n", hostBlock(a).c_str());
  std::fflush(stdout);

  Outcome o;
  if (a.workload == "serve") runServe(a, o);
  else runInProcess(a, o);

  const std::vector<Metric> metrics = a.trace ? perLayer(a, o) : endToEnd(a, o);
  std::printf("host speed: median reference slice %.4f ms of %zu (calm "
              "%.2f ms); window slowdown %.4f at sensitivity %.2f\n",
              o.speed.medianSliceMs(), o.speed.samples(),
              HostSpeed::kCalmSliceMs,
              o.speed.meanSlowdown(o.window.first, o.window.second),
              HostSpeed::kSensitivity);
  printPerDesign(o.measured, o.designs);
  if (a.trace) {
    printSelfTimes(o);
    writeSpans(a, o.tracer);
  }
  for (const Metric& m : metrics)
    std::printf("  %-22s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("  %-22s %16.6f %-6s %zu of %zu jobs\n", "failed_frac",
              o.attempted ? static_cast<double>(o.failed) /
                                static_cast<double>(o.attempted)
                          : 1.0,
              "frac", o.failed, o.attempted);
  for (const std::string& f : o.failures) std::printf("FAILED %s\n", f.c_str());

  const bool correct = o.failed == 0 && o.attempted > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(o.attempted) +
                     ", \"failed\": " + std::to_string(o.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char val[64];
    std::snprintf(val, sizeof val, "%.17g", metrics[i].value);
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + val + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hsis_perf: %s\n", e.what());
    return 2;
  }
}
