// hsis_bench: the unified benchmark runner. Subsumes the per-experiment
// drivers (bench_table1, bench_reach, ...) behind a declarative scenario
// table, runs each case warmup+repeat times with a clean metrics registry,
// and writes a BENCH_<suite>.json baseline (schema hsis-bench-v1, see
// bench_schema.hpp) that perf_compare can diff against a later run.
//
//   hsis_bench --list
//   hsis_bench --suite table1 --repeat 3 --stats-json out/
//   hsis_bench --suite reach --filter gigamax --heartbeat 500 --timeout-s 60
//
// --stats-json takes either a directory (gets BENCH_<suite>.json inside)
// or an explicit .json path. --trace-out DIR writes one Chrome trace
// (phase spans plus profiler counter tracks) per case as
// TRACE_<case>.json, mirroring how --stats-json names baselines. The
// shared obs flags (--heartbeat, --timeout-s, --mem-limit-mb, --profile)
// work like in every other driver; a watchdog abort stops the suite but
// the baseline written so far is still valid, with the aborted case
// marked, and the exit code is 3.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_schema.hpp"
#include "hsis/environment.hpp"
#include "hsis/session.hpp"
#include "minimize/bisim.hpp"
#include "models/models.hpp"
#include "obs/control.hpp"
#include "obs/version.hpp"
#include "par/batch.hpp"
#include "vl2mv/vl2mv.hpp"

namespace {

struct Case {
  std::string name;
  std::function<void()> body;
};

// ------------------------------------------------------------ case bodies

void verifyModel(const hsis::models::ModelDef& model) {
  // Runs on hsis::Session directly — the same load/build/check path an
  // hsis_serve worker takes, so these numbers transfer to the service.
  hsis::Session session;
  hsis::Session::DesignSource src;
  src.kind = hsis::Session::DesignSource::Kind::Verilog;
  src.text = std::string(model.verilog);
  src.top = std::string(model.top);
  session.load(src);
  session.build();
  hsis::PifFile pif = hsis::parsePif(std::string(model.pif));
  session.setFairness(pif.fairness);
  (void)session.reachedStates();
  for (const hsis::PifProperty& p : pif.properties) (void)session.check(p);
}

/// Compiled+flattened design shared across the repeats of a case so the
/// measured body is the BDD work, not the parser.
using FlatPtr = std::shared_ptr<const hsis::blifmv::Model>;

FlatPtr flatten(const hsis::models::ModelDef& model) {
  auto design = hsis::vl2mv::compile(std::string(model.verilog),
                                     std::string(model.top));
  return std::make_shared<hsis::blifmv::Model>(hsis::blifmv::flatten(design));
}

hsis::Bdd randomFunction(hsis::BddManager& m, std::mt19937& rng, uint32_t vars,
                         int cubes) {
  hsis::Bdd f = m.bddZero();
  for (int k = 0; k < cubes; ++k) {
    hsis::Bdd cube = m.bddOne();
    for (hsis::BddVar v = 0; v < vars; ++v) {
      switch (rng() % 3) {
        case 0: cube &= m.bddVar(v); break;
        case 1: cube &= !m.bddVar(v); break;
        default: break;
      }
    }
    f |= cube;
  }
  return f;
}

// --------------------------------------------------------------- the table

std::vector<Case> makeSuite(const std::string& suite, int maxThreads = 4) {
  std::vector<Case> cases;
  auto add = [&](std::string name, std::function<void()> body) {
    cases.push_back({std::move(name), std::move(body)});
  };

  if (suite == "smoke") {
    // The fast end-to-end pass CI runs on every push: two toy designs
    // through the full pipeline plus one BDD micro.
    for (const char* name : {"philos", "pingpong"}) {
      const auto* model = hsis::models::find(name);
      add(std::string("smoke/") + name, [model] { verifyModel(*model); });
    }
    add("smoke/bdd-ite", [] {
      hsis::BddManager m(24);
      std::mt19937 rng(1);
      hsis::Bdd f = randomFunction(m, rng, 24, 32);
      hsis::Bdd g = randomFunction(m, rng, 24, 32);
      hsis::Bdd h = randomFunction(m, rng, 24, 32);
      for (int i = 0; i < 16; ++i) {
        (void)m.ite(f, g, h);
        m.clearCaches();
      }
    });
  } else if (suite == "table1") {
    // The paper's Table 1: every bundled design through read + build +
    // reachability + all of its PIF properties.
    for (const auto& model : hsis::models::all()) {
      add(std::string("table1/") + std::string(model.name),
          [&model] { verifyModel(model); });
    }
  } else if (suite == "reach") {
    // Monolithic vs partitioned transition relations (bench_reach).
    for (const char* name : {"philos", "pingpong", "gigamax"}) {
      const auto* model = hsis::models::find(name);
      FlatPtr flat = flatten(*model);
      struct Config {
        const char* label;
        bool partitioned;
        size_t limit;
      };
      for (const Config& cfg : {Config{"monolithic", false, 0},
                                Config{"part-5000", true, 5000},
                                Config{"part-500", true, 500}}) {
        add(std::string("reach/") + name + "/" + cfg.label, [flat, cfg] {
          hsis::BddManager mgr;
          hsis::Fsm fsm(mgr, *flat);
          auto tr = cfg.partitioned
                        ? hsis::TransitionRelation::partitioned(fsm, cfg.limit)
                        : hsis::TransitionRelation::monolithic(fsm);
          auto rr = hsis::reachableStates(tr, fsm.initialStates());
          (void)tr.preimage(rr.reached);
        });
      }
    }
  } else if (suite == "quantify") {
    // Early-quantification planners on the monolithic product.
    for (const char* name : {"philos", "pingpong", "gigamax"}) {
      const auto* model = hsis::models::find(name);
      FlatPtr flat = flatten(*model);
      for (hsis::QuantMethod method :
           {hsis::QuantMethod::Greedy, hsis::QuantMethod::Tree}) {
        add(std::string("quantify/") + name + "/" + toString(method),
            [flat, method] {
              hsis::BddManager mgr;
              hsis::Fsm fsm(mgr, *flat);
              (void)hsis::TransitionRelation::monolithic(fsm, method);
            });
      }
    }
  } else if (suite == "efd") {
    // Early failure detection on a seeded gigamax bug (bench_efd).
    std::string verilog(hsis::models::find("gigamax")->verilog);
    const char* from = "if (st == owned) st <= shared;   // supply data, demote";
    size_t pos = verilog.find(from);
    if (pos != std::string::npos)
      verilog.replace(pos, std::strlen(from), "st <= st;");
    const char* property =
        "AG ((p0.st=owned -> (p1.st=invalid & p2.st=invalid)) & "
        "(p1.st=owned -> (p0.st=invalid & p2.st=invalid)) & "
        "(p2.st=owned -> (p0.st=invalid & p1.st=invalid)))";
    for (bool efd : {true, false}) {
      add(std::string("efd/gigamax/") + (efd ? "efd-on" : "efd-off"),
          [verilog, property, efd] {
            hsis::Environment::Options opts;
            opts.earlyFailureDetection = efd;
            opts.wantTraces = false;
            hsis::Environment env(opts);
            env.readVerilog(verilog);
            env.build();
            (void)env.verifyCtl("seeded", hsis::parseCtl(property));
          });
    }
  } else if (suite == "dontcare") {
    // Restrict-minimized transition relations plus a bisimulation pass.
    for (const char* name : {"pingpong", "philos", "gigamax"}) {
      const auto* model = hsis::models::find(name);
      FlatPtr flat = flatten(*model);
      add(std::string("dontcare/") + name + "/minimize", [flat] {
        hsis::BddManager mgr;
        hsis::Fsm fsm(mgr, *flat);
        auto tr = hsis::TransitionRelation::partitioned(fsm);
        auto rr = hsis::reachableStates(tr, fsm.initialStates());
        (void)tr.minimized(rr.reached);
      });
      add(std::string("dontcare/") + name + "/bisim", [flat] {
        hsis::BddManager mgr;
        hsis::Fsm fsm(mgr, *flat);
        auto tr = hsis::TransitionRelation::monolithic(fsm);
        auto rr = hsis::reachableStates(tr, fsm.initialStates());
        std::vector<hsis::Bdd> obs{fsm.space().literal(fsm.stateVar(0), 0)};
        (void)hsis::bisimulation(fsm, tr, obs, rr.reached);
      });
    }
  } else if (suite == "lc_vs_mc") {
    // The matched pingpong invariance pair from bench_lc_vs_mc.
    const char* ctl = R"PIF(ctl p "AG !(ball=ping_side & ball=pong_side)";)PIF";
    const char* automaton =
        R"PIF(automaton p { state ok init; state bad;
          edge ok -> ok on "!(ping_has & pong_has)";
          edge ok -> bad on "ping_has & pong_has";
          edge bad -> bad on "1"; accept stay ok; })PIF";
    const auto* model = hsis::models::find("pingpong");
    for (bool mc : {true, false}) {
      std::string prop = mc ? ctl : automaton;
      add(std::string("lc_vs_mc/pingpong/") + (mc ? "mc" : "lc"),
          [model, prop] {
            hsis::Environment env;
            env.readVerilog(std::string(model->verilog),
                            std::string(model->top));
            env.build();
            (void)env.reachedStates();
            hsis::PifFile pif = hsis::parsePif(prop);
            (void)env.verify(pif.properties.at(0));
          });
    }
  } else if (suite == "bdd") {
    // BDD package micros (a subset of bench_bdd, without google-benchmark).
    for (uint32_t nv : {16u, 32u}) {
      add("bdd/ite/" + std::to_string(nv), [nv] {
        hsis::BddManager m(nv);
        std::mt19937 rng(1);
        hsis::Bdd f = randomFunction(m, rng, nv, 32);
        hsis::Bdd g = randomFunction(m, rng, nv, 32);
        hsis::Bdd h = randomFunction(m, rng, nv, 32);
        for (int i = 0; i < 32; ++i) {
          (void)m.ite(f, g, h);
          m.clearCaches();
        }
      });
      add("bdd/and-exists/" + std::to_string(nv), [nv] {
        hsis::BddManager m(nv);
        std::mt19937 rng(2);
        hsis::Bdd f = randomFunction(m, rng, nv, 32);
        hsis::Bdd g = randomFunction(m, rng, nv, 32);
        hsis::Bdd cube = m.bddOne();
        for (hsis::BddVar v = 0; v < nv; v += 2) cube &= m.bddVar(v);
        for (int i = 0; i < 32; ++i) {
          (void)m.andExists(f, g, cube);
          m.clearCaches();
        }
      });
      add("bdd/not/" + std::to_string(nv), [nv] {
        // With complement edges negation is a bit flip: this case should
        // stay flat no matter how big the operand gets.
        hsis::BddManager m(nv);
        std::mt19937 rng(3);
        hsis::Bdd f = randomFunction(m, rng, nv, 32);
        for (int i = 0; i < 4096; ++i) f = !f;
      });
    }
    add("bdd/gc-churn", [] {
      // A fixpoint-shaped loop in the band where a collector that waits
      // for a fixed total node count collects most often: ~10K nodes stay
      // live (the state sets), and every step combines two of them under
      // a fresh random cube into a result that dies at the next step.
      constexpr uint32_t nv = 32;
      hsis::BddManager m(nv);
      std::mt19937 rng(4);
      std::vector<hsis::Bdd> sets;
      while (m.sharedNodeCount(sets) < 10000)
        sets.push_back(randomFunction(m, rng, nv, 16));
      hsis::Bdd frontier = m.bddZero();
      for (size_t step = 0; step < 4096; ++step) {
        const hsis::Bdd& a = sets[step % sets.size()];
        const hsis::Bdd& b = sets[(step * 7 + 3) % sets.size()];
        hsis::Bdd sel = randomFunction(m, rng, nv, 1);
        frontier = m.ite(sel, a, b) & !frontier;
      }
    });
    add("bdd/cube/2048", [] {
      // Quantification cubes as the TR schedule builds them: variables in
      // ascending level order, each new one below all the others. Linear
      // in the cube size; folding bddVar instead is quadratic.
      constexpr uint32_t nv = 2048;
      hsis::BddManager m(nv);
      for (uint32_t stride = 1; stride <= 8; ++stride) {
        std::vector<hsis::BddVar> vars;
        for (hsis::BddVar v = stride - 1; v < nv; v += stride) vars.push_back(v);
        (void)m.cube(vars);
      }
    });
  } else if (suite == "parallel") {
    // The property batch of one design fanned out onto k replica-owning
    // workers (exactly hsis_cli --jobs k), swept over a thread count list
    // (1, 2, 4, ... up to --threads). j1 rows are the serial anchors a
    // sweep is read against.
    std::vector<int> ks{1};
    for (int k = 2; k <= maxThreads; k *= 2) ks.push_back(k);
    if (ks.back() != maxThreads) ks.push_back(maxThreads);

    for (const char* name : {"philos", "gigamax"}) {
      const auto* model = hsis::models::find(name);
      for (int k : ks) {
        add("parallel/batch/" + std::string(name) + "/j" + std::to_string(k),
            [model, k] {
              hsis::Session session;
              hsis::Session::DesignSource src;
              src.kind = hsis::Session::DesignSource::Kind::Verilog;
              src.text = std::string(model->verilog);
              src.top = std::string(model->top);
              session.load(src);
              session.build();
              hsis::PifFile pif = hsis::parsePif(std::string(model->pif));
              session.setFairness(pif.fairness);
              (void)hsis::par::checkBatch(session, pif.properties,
                                          {.jobs = k});
            });
      }
    }
  }
  return cases;
}

const char* const kSuites[] = {"smoke",    "table1",   "reach",
                               "quantify", "efd",      "dontcare",
                               "lc_vs_mc", "bdd",      "parallel"};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--suite NAME] [--repeat N] [--warmup N] [--filter SUBSTR]\n"
      "          [--threads N] [--stats-json DIR-or-FILE.json]\n"
      "          [--trace-out DIR] [--list]\n"
      "          [--heartbeat MS] [--heartbeat-file F] [--timeout-s S]\n"
      "          [--mem-limit-mb M] [--profile] [--profile-out BASE]\n"
      "          [--profile-interval-ms N] [--log-level LVL] [--log-file F]\n"
      "          [--ledger PATH] [--flight-dir DIR]\n"
      "suites: smoke table1 reach quantify efd dontcare lc_vs_mc bdd "
      "parallel\n"
      "--threads caps the parallel suite's thread sweep (default 4)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (hsis::obs::handleVersionFlag(argc, argv, "hsis_bench")) return 0;
  // hsis_bench owns --stats-json (it means the BENCH baseline, not a bare
  // obs snapshot) and its own ledger records (one per case, not one per
  // process).
  hsis::obs::ObsCliOptions obsOpts = hsis::obs::initDriverObs(
      argc, argv,
      {.driverName = "hsis_bench", .ownStatsJson = true, .ownLedger = true});

  std::string suite = "smoke";
  std::string filter;
  std::string traceOut;
  int repeat = 3;
  int warmup = 1;
  int threads = 4;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--suite") suite = value();
    else if (arg == "--repeat") repeat = std::atoi(value());
    else if (arg == "--warmup") warmup = std::atoi(value());
    else if (arg == "--filter") filter = value();
    else if (arg == "--threads") threads = std::atoi(value());
    else if (arg == "--trace-out") traceOut = value();
    else if (arg == "--list") list = true;
    else return usage(argv[0]);
  }
  if (repeat < 1) repeat = 1;
  if (warmup < 0) warmup = 0;
  if (threads < 1) threads = 1;

  if (list) {
    for (const char* s : kSuites) {
      std::printf("%s\n", s);
      for (const Case& c : makeSuite(s, threads))
        std::printf("  %s\n", c.name.c_str());
    }
    return 0;
  }

  bool known = false;
  for (const char* s : kSuites) known |= suite == s;
  if (!known) {
    std::fprintf(stderr, "unknown suite '%s'\n", suite.c_str());
    return usage(argv[0]);
  }

  std::vector<Case> cases = makeSuite(suite, threads);
  if (!filter.empty()) {
    std::erase_if(cases, [&](const Case& c) {
      return c.name.find(filter) == std::string::npos;
    });
  }
  if (cases.empty()) {
    std::fprintf(stderr, "no cases match\n");
    return 2;
  }

  hsisbench::BenchDoc doc;
  doc.suite = suite;
  doc.gitSha = hsis::obs::gitSha();
  doc.repeat = repeat;
  doc.warmup = warmup;

  bool aborted = false;
  std::printf("suite %s: %zu cases, repeat=%d warmup=%d%s\n", suite.c_str(),
              cases.size(), repeat, warmup,
              hsis::obs::kEnabled ? "" : " (obs disabled)");
  const std::string ledgerPath = hsis::obs::activeLedgerPath();
  for (const Case& c : cases) {
    std::printf("%-40s ", c.name.c_str());
    std::fflush(stdout);
    hsisbench::CaseResult result =
        hsisbench::runCase(c.name, c.body, repeat, warmup);
    if (result.anyAborted()) {
      const hsisbench::RunStats& last = result.runs.back();
      std::printf("ABORTED (%s)\n", last.abortReason.c_str());
      aborted = true;
    } else {
      std::printf("%10.3f ms (min of %zu)\n", result.wallMsMin(),
                  result.runs.size());
    }
    if (!ledgerPath.empty()) {
      // One ledger record per case: the per-case min wall time and peak RSS
      // are what hsis_report diffs across runs/commits.
      hsis::obs::ledger::Record rec = hsis::obs::baseLedgerRecord();
      rec.subject = c.name;
      if (result.anyAborted()) {
        rec.result = "aborted";
        rec.detail = result.runs.empty() ? std::string("no runs")
                                         : result.runs.back().abortReason;
      } else {
        rec.result = "completed";
      }
      rec.wallSeconds = result.wallMsMin() * 1e-3;
      rec.peakRssKb = result.peakRssKbMin();
      hsis::obs::ledger::append(ledgerPath, rec);
    }
    doc.cases.push_back(std::move(result));
    if (!traceOut.empty()) {
      // runCase resets the tracer before each measured run, so the
      // snapshot here holds exactly the last run of this case.
      namespace fs = std::filesystem;
      fs::create_directories(traceOut);
      std::string fname = c.name;
      std::replace(fname.begin(), fname.end(), '/', '_');
      fs::path file = fs::path(traceOut) / ("TRACE_" + fname + ".json");
      std::ofstream f(file);
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", file.c_str());
        return 2;
      }
      f << hsis::obs::toChromeTrace(hsis::obs::snapshot());
    }
    // A watchdog breach is a whole-process condition: running the
    // remaining cases would only re-trip it, so stop here. The baseline
    // written below is still schema-valid with this case marked aborted.
    if (aborted) break;
  }

  if (!obsOpts.statsJsonPath.empty()) {
    namespace fs = std::filesystem;
    fs::path out(obsOpts.statsJsonPath);
    bool isDir = out.extension() != ".json";
    fs::path file = isDir ? out / ("BENCH_" + suite + ".json") : out;
    if (file.has_parent_path())
      fs::create_directories(file.parent_path());
    std::ofstream f(file);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", file.c_str());
      return 2;
    }
    f << hsisbench::toJson(doc);
    std::printf("wrote %s\n", file.c_str());
  }
  return aborted ? 3 : 0;
}
