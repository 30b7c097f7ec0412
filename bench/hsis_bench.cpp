// hsis_bench: the benchmark harness. Each of the paper's experiments is a
// suite of cases in one declarative table (smoke, table1, reach,
// quantify, efd, dontcare, lc_vs_mc, bdd, parallel); hsis_bench runs each
// case warmup+repeat times with a clean metrics registry and writes a
// BENCH_<suite>.json baseline (schema hsis-bench-v1, see bench_schema.hpp)
// that perf_compare can diff against a later run. A case's figures other
// than its time (reached states, TR nodes, bisimulation classes, ...) are
// in the hsis-obs-v1 snapshot each case embeds: the engine's own metrics,
// plus a bench.* gauge where the engine keeps none.
//
//   hsis_bench --list
//   hsis_bench --suite table1 --repeat 3 --stats-json out/
//   hsis_bench --suite reach --filter gigamax --profile --timeout-s 60
//
// --stats-json takes either a directory (gets BENCH_<suite>.json inside)
// or an explicit .json path. --trace-out DIR writes one Chrome trace
// (phase spans plus profiler counter tracks) of each case's last run as
// TRACE_<case>.json, mirroring how --stats-json names baselines, and the
// same spans' flamegraph input as TRACE_<case>.folded (the --profile
// BASE.folded holds only the suite's last run). The
// shared obs flags (--timeout-s, --mem-limit-mb, --profile, --log-level)
// work like in every other driver; a watchdog abort stops the suite but
// the baseline written so far is still valid, with the aborted case
// marked, and the exit code is 3. --list builds every suite's table:
// each design is compiled, each seeded bug's patch site found, and the
// synthetic netlist built, without running a case.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_schema.hpp"
#include "fsm/quantify.hpp"
#include "hsis/session.hpp"
#include "minimize/bisim.hpp"
#include "models/models.hpp"
#include "obs/control.hpp"
#include "obs/version.hpp"
#include "paper_cases.hpp"
#include "par/batch.hpp"
#include "vl2mv/vl2mv.hpp"

namespace {

struct Case {
  std::string name;
  std::function<void()> body;
  /// Too slow to repeat (seconds per run): runs once, with no warmup,
  /// whatever --repeat and --warmup say.
  bool once = false;
};

// ------------------------------------------------------------ case bodies

void setGauge(const char* name, double value) {
  hsis::obs::gauge(name).set(static_cast<int64_t>(value));
}

void verifyModel(const hsis::models::ModelDef& model) {
  // Runs on hsis::Session directly — the same load/build/check path an
  // hsis_serve worker takes, so these numbers transfer to the service.
  hsis::Session session;
  hsisbench::loadVerilog(session, std::string(model.verilog), model.top);
  hsis::PifFile pif = hsis::parsePif(std::string(model.pif));
  session.setFairness(pif.fairness);
  (void)session.reachedStates();
  for (const hsis::PifProperty& p : pif.properties) (void)session.check(p);
  setGauge("bench.lines.verilog", session.linesVerilog());
  setGauge("bench.lines.blifmv", session.linesBlifMv());
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

/// The paper's Section-4 data point: "around 1600 relations had to be
/// multiplied and 1500 variables had to be quantified out. Determining the
/// schedule and performing the multiplication and quantification takes
/// only several seconds." A netlist of that scale: 100 latches, each fed
/// by a cone of 15 two-input gates chained through fresh wires (the
/// quantified variables) and mixing in a neighbour latch.
struct SyntheticNetlist {
  hsis::BddManager mgr;
  std::vector<hsis::Bdd> relations;
  std::vector<bool> quantifiable;

  SyntheticNetlist() {
    constexpr uint32_t kLatches = 100;
    constexpr uint32_t kDepth = 15;  // wires per latch cone
    // Present/next rails interleaved (the ordering rule of [1]); wires
    // below them.
    std::vector<hsis::BddVar> state, next, wires;
    for (uint32_t l = 0; l < kLatches; ++l) {
      state.push_back(mgr.newVar());
      next.push_back(mgr.newVar());
    }
    auto equiv = [&](hsis::BddVar out, const hsis::Bdd& fn) {
      hsis::Bdd fo = mgr.bddVar(out);
      return (fo & fn) | ((!fo) & !fn);
    };
    for (uint32_t l = 0; l < kLatches; ++l) {
      hsis::BddVar prev = state[l];
      for (uint32_t d = 0; d < kDepth; ++d) {
        hsis::BddVar w = mgr.newVar();
        hsis::Bdd a = mgr.bddVar(prev);
        hsis::Bdd b = mgr.bddVar(state[(l + d % 2) % kLatches]);
        relations.push_back(
            equiv(w, d % 3 == 0 ? (a & b) : d % 3 == 1 ? (a | b) : (a ^ b)));
        wires.push_back(w);
        prev = w;
      }
      relations.push_back(equiv(next[l], mgr.bddVar(prev)));
    }
    quantifiable.assign(mgr.numVars(), false);
    for (hsis::BddVar w : wires) quantifiable[w] = true;
  }
};

// --------------------------------------------------------------- the table

std::vector<Case> makeSuite(const std::string& suite, int maxThreads = 4) {
  std::vector<Case> cases;
  auto add = [&](std::string name, std::function<void()> body,
                 bool once = false) {
    cases.push_back({std::move(name), std::move(body), once});
  };
  auto caseName = [&](std::string_view design, const std::string& rest) {
    return suite + "/" + std::string(design) + "/" + rest;
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
    // reachability + all of its PIF properties. The columns are in the
    // snapshot: bench.lines.*, env.read.micros, env.reached.states,
    // env.props.{lc,ctl} and env.{lc,mc}.micros.
    for (const auto& model : hsis::models::all()) {
      add(std::string("table1/") + std::string(model.name),
          [&model] { verifyModel(model); });
    }
  } else if (suite == "reach") {
    // Monolithic vs partitioned transition relations for reachability and
    // one preimage of the reached set (the paper's future-work item 4).
    for (const auto& model : hsis::models::all()) {
      FlatPtr flat = flatten(model);
      struct Config {
        const char* label;
        bool partitioned;
        size_t limit;
      };
      for (const Config& cfg : {Config{"monolithic", false, 0},
                                Config{"part-5000", true, 5000},
                                Config{"part-500", true, 500}}) {
        add(caseName(model.name, cfg.label),
            [flat, cfg] {
              hsis::BddManager mgr;
              hsis::Fsm fsm(mgr, *flat);
              auto tr =
                  cfg.partitioned
                      ? hsis::TransitionRelation::partitioned(fsm, cfg.limit)
                      : hsis::TransitionRelation::monolithic(fsm);
              auto rr = hsis::reachableStates(tr, fsm.initialStates());
              (void)tr.preimage(rr.reached);
            });
      }
    }
  } else if (suite == "quantify") {
    // Early quantification (Section 4): the monolithic product under each
    // planner, the naive baseline where it does not explode, and the
    // synthetic netlist at the paper's scale.
    for (const auto& model : hsis::models::all()) {
      FlatPtr flat = flatten(model);
      std::vector<hsis::QuantMethod> methods{hsis::QuantMethod::Greedy,
                                             hsis::QuantMethod::Tree};
      if (model.name == "philos" || model.name == "pingpong")
        methods.push_back(hsis::QuantMethod::Naive);
      for (hsis::QuantMethod method : methods) {
        add(caseName(model.name, toString(method)), [flat, method] {
          hsis::BddManager mgr;
          hsis::Fsm fsm(mgr, *flat);
          hsis::QuantExecStats stats;
          (void)hsis::TransitionRelation::monolithic(fsm, method, &stats);
          setGauge("bench.quant.relations", fsm.relations().size());
          setGauge("bench.quant.vars", mgr.support(fsm.nonStateCube()).size());
          setGauge("bench.quant.peak_nodes", stats.peakIntermediateNodes);
        });
      }
    }
    auto net = std::make_shared<SyntheticNetlist>();
    for (hsis::QuantMethod method :
         {hsis::QuantMethod::Greedy, hsis::QuantMethod::Tree}) {
      add(caseName("synthetic", toString(method)), [net, method] {
        net->mgr.clearCaches();
        hsis::QuantPlan plan = hsis::planQuantification(
            net->mgr, net->relations, net->quantifiable, method);
        hsis::QuantExecStats stats;
        hsis::Bdd t = hsis::executePlan(net->mgr, plan, net->relations, &stats);
        setGauge("bench.quant.relations", net->relations.size());
        setGauge("bench.quant.vars",
                 std::count(net->quantifiable.begin(),
                            net->quantifiable.end(), true));
        setGauge("bench.quant.peak_nodes", stats.peakIntermediateNodes);
        setGauge("bench.quant.result_nodes", t.nodeCount());
      });
    }
  } else if (suite == "efd") {
    // Early failure detection (Section 5.4) on the seeded bugs: every
    // invariant fails; bench.efd.steps is how many reachability steps the
    // check took before it did.
    for (const hsisbench::SeededBug& bug : hsisbench::kSeededBugs) {
      std::string verilog = hsisbench::seededVerilog(bug);
      for (bool efd : {true, false}) {
        add(caseName(bug.design, efd ? "efd-on" : "efd-off"),
            [&bug, verilog, efd] {
              hsisbench::SeededRun run =
                  hsisbench::checkSeeded(bug, verilog, efd);
              setGauge("bench.efd.steps", run.steps);
            });
      }
    }
  } else if (suite == "dontcare") {
    // Don't cares (Section 2, item 3): restrict-minimizing the TR by the
    // reached set, model checking with and without reached don't cares,
    // and bisimulation classes as don't cares.
    for (const auto& model : hsis::models::all()) {
      FlatPtr flat = flatten(model);
      add(caseName(model.name, "minimize"), [flat] {
        hsis::BddManager mgr;
        hsis::Fsm fsm(mgr, *flat);
        auto tr = hsis::TransitionRelation::partitioned(fsm);
        auto rr = hsis::reachableStates(tr, fsm.initialStates());
        setGauge("bench.dontcare.minimized_nodes",
                 tr.minimized(rr.reached).totalNodes());
      });
      for (bool dc : {true, false}) {
        add(caseName(model.name, dc ? "mc-dc" : "mc-nodc"), [flat, dc] {
          hsis::BddManager mgr;
          hsis::Fsm fsm(mgr, *flat);
          auto tr = hsis::TransitionRelation::partitioned(fsm);
          hsis::McOptions opts;
          opts.useReachedDontCares = dc;
          opts.wantTrace = false;
          hsis::CtlChecker mc(fsm, tr, {}, opts);
          (void)mc.check(hsis::parseCtl(
              "AG EF " + fsm.latchName(0) + "=" +
              fsm.space().valueName(fsm.stateVar(0), 0)));
        });
      }
    }
    // dcnew's bisimulation takes seconds, so it runs once.
    for (const char* name : {"pingpong", "philos", "gigamax", "dcnew"}) {
      FlatPtr flat = flatten(*hsis::models::find(name));
      add(caseName(name, "bisim"), [flat] {
        hsis::BddManager mgr;
        hsis::Fsm fsm(mgr, *flat);
        auto tr = hsis::TransitionRelation::monolithic(fsm);
        auto rr = hsis::reachableStates(tr, fsm.initialStates());
        // Observe the first latch's zero value, a typical property atom,
        // and shrink its reached (class-closed) set to representatives.
        std::vector<hsis::Bdd> obs{fsm.space().literal(fsm.stateVar(0), 0)};
        hsis::BisimResult bisim = hsis::bisimulation(fsm, tr, obs, rr.reached);
        hsis::Bdd set = obs[0] & rr.reached;
        hsis::Bdd shrunk = hsis::shrinkToRepresentatives(fsm, bisim, set);
        setGauge("bench.bisim.states", fsm.countStates(rr.reached));
        setGauge("bench.bisim.classes", bisim.classCount);
        setGauge("bench.bisim.set_nodes", set.nodeCount());
        setGauge("bench.bisim.shrunk_nodes", shrunk.nodeCount());
      }, std::strcmp(name, "dcnew") == 0);
    }
  } else if (suite == "lc_vs_mc") {
    // Section 5.2: each matched pair's requirement checked as CTL (mc) and
    // as an automaton (lc), after reachability.
    for (const hsisbench::MatchedPair& pair : hsisbench::kMatchedPairs) {
      for (bool mc : {true, false}) {
        std::string kind = std::string(pair.kind) + (mc ? "/mc" : "/lc");
        add(caseName(pair.design, kind),
            [&pair, mc] { (void)hsisbench::checkMatched(pair, mc); });
      }
    }
  } else if (suite == "bdd") {
    // BDD package micros: the primitive operations every algorithm is
    // built from.
    for (uint32_t nv : {16u, 32u}) {
      const std::string n = std::to_string(nv);
      add("bdd/ite/" + n, [nv] {
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
      add("bdd/and-exists/" + n, [nv] {
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
      add("bdd/not/" + n, [nv] {
        // With complement edges negation is a bit flip: this case should
        // stay flat no matter how big the operand gets.
        hsis::BddManager m(nv);
        std::mt19937 rng(3);
        hsis::Bdd f = randomFunction(m, rng, nv, 32);
        for (int i = 0; i < 4096; ++i) f = !f;
      });
      add("bdd/permute/" + n, [nv] {
        // Swap the two halves of the variables, as the present/next rails
        // are swapped after an image.
        hsis::BddManager m(nv);
        std::mt19937 rng(3);
        hsis::Bdd f = randomFunction(m, rng, nv / 2, 32);
        std::vector<hsis::BddVar> map(nv);
        for (hsis::BddVar v = 0; v < nv / 2; ++v) {
          map[v] = v + nv / 2;
          map[v + nv / 2] = v;
        }
        for (int i = 0; i < 32; ++i) {
          (void)m.permute(f, map);
          m.clearCaches();
        }
      });
    }
    for (int cubes : {16, 128}) {
      add("bdd/satcount/" + std::to_string(cubes), [cubes] {
        hsis::BddManager m(24);
        std::mt19937 rng(4);
        hsis::Bdd f = randomFunction(m, rng, 24, cubes);
        for (int i = 0; i < 64; ++i) (void)m.satCount(f, 24);
      });
    }
    add("bdd/sift", [] {
      // The interleaved conjunction x0&x1 | x2&x3 | ... built under the
      // adversarial order (evens, then odds), then sifted.
      for (int i = 0; i < 16; ++i) {
        hsis::BddManager m(16);
        std::vector<hsis::BddVar> badOrder;
        for (hsis::BddVar v = 0; v < 16; v += 2) badOrder.push_back(v);
        for (hsis::BddVar v = 1; v < 16; v += 2) badOrder.push_back(v);
        m.setOrder(badOrder);
        hsis::Bdd f = m.bddZero();
        for (hsis::BddVar v = 0; v < 16; v += 2)
          f |= m.bddVar(v) & m.bddVar(v + 1);
        m.sift();
      }
    });
    add("bdd/gc", [] {
      // One live function and rounds of 2000 dead ones, collected.
      hsis::BddManager m(16);
      std::mt19937 rng(5);
      hsis::Bdd keep = randomFunction(m, rng, 16, 64);
      for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 2000; ++i) (void)randomFunction(m, rng, 16, 4);
        m.gc();
      }
    });
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
              hsisbench::loadVerilog(session, std::string(model->verilog),
                                     model->top);
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

/// The host block of a baseline: read once, when the run starts.
hsisbench::HostInfo currentHost() {
  hsisbench::HostInfo host;
  host.nproc = std::thread::hardware_concurrency();
  host.cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t start = line.find_first_not_of(" \t:", line.find(':'));
      if (start != std::string::npos) host.cpu = line.substr(start);
      break;
    }
  }
  std::ifstream("/proc/loadavg") >> host.loadavg;
  host.compiler = HSIS_BENCH_COMPILER;
  host.buildType = HSIS_BENCH_BUILD_TYPE;
  return host;
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
      "          [--timeout-s S] [--mem-limit-mb M] [--profile]\n"
      "          [--profile-out BASE]\n"
      "          [--log-level LVL] [--log-file F] [--ledger PATH]\n"
      "          [--flight-dir DIR]\n"
      "suites: smoke table1 reach quantify efd dontcare lc_vs_mc bdd "
      "parallel\n"
      "--threads caps the parallel suite's thread sweep (default 4)\n"
      "a case listed as (runs once) ignores --repeat and --warmup\n",
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
    auto count = [&]() {
      const char* text = value();
      std::optional<int> n = hsis::obs::parseNumber<int>(text);
      if (!n) {
        std::fprintf(stderr, "%s needs a whole number, got '%s'\n",
                     arg.c_str(), text);
        std::exit(usage(argv[0]));
      }
      return *n;
    };
    if (arg == "--suite") suite = value();
    else if (arg == "--repeat") repeat = count();
    else if (arg == "--warmup") warmup = count();
    else if (arg == "--filter") filter = value();
    else if (arg == "--threads") threads = count();
    else if (arg == "--trace-out") traceOut = value();
    else if (arg == "--list") list = true;
    else return usage(argv[0]);
  }
  if (repeat < 1) repeat = 1;
  if (warmup < 0) warmup = 0;
  if (threads < 1) threads = 1;

  bool known = false;
  for (const char* s : kSuites) known |= suite == s;
  if (!known) {
    std::fprintf(stderr, "unknown suite '%s'\n", suite.c_str());
    return usage(argv[0]);
  }

  // Building a table compiles its designs and patches the seeded bugs; a
  // design or patch site that no longer fits is reported here.
  std::vector<Case> cases;
  try {
    if (list) {
      for (const char* s : kSuites) {
        std::printf("%s\n", s);
        for (const Case& c : makeSuite(s, threads))
          std::printf("  %s%s\n", c.name.c_str(),
                      c.once ? "  (runs once)" : "");
      }
      return 0;
    }
    cases = makeSuite(suite, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hsis_bench: %s\n", e.what());
    return 2;
  }
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
  doc.host = currentHost();

  bool aborted = false;
  std::printf("suite %s: %zu cases, repeat=%d warmup=%d%s\n", suite.c_str(),
              cases.size(), repeat, warmup,
              hsis::obs::kEnabled ? "" : " (obs disabled)");
  const std::string ledgerPath = hsis::obs::activeLedgerPath();
  // The first case's own warmup runs leave it slower than the same work
  // later in the suite: the process itself is still cold. One untimed run
  // before anything is measured puts it on a par with the cases after it.
  if (warmup > 0 && !cases.front().once) {
    try {
      cases.front().body();
    } catch (const hsis::obs::AbortedError&) {
      // the measured runs record it
    }
  }
  for (const Case& c : cases) {
    std::printf("%-40s ", c.name.c_str());
    std::fflush(stdout);
    hsisbench::CaseResult result =
        hsisbench::runCase(c.name, c.body, c.once ? 1 : repeat,
                           c.once ? 0 : warmup);
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
      const hsis::obs::Snapshot snap = hsis::obs::snapshot();
      for (const auto& [ext, text] :
           {std::pair{".json", hsis::obs::toChromeTrace(snap)},
            std::pair{".folded", hsis::obs::toFolded(snap)}}) {
        fs::path file = fs::path(traceOut) / ("TRACE_" + fname + ext);
        std::ofstream f(file);
        if (!(f << text)) {
          std::fprintf(stderr, "cannot write %s\n", file.c_str());
          return 2;
        }
      }
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
