#include "hsis/session.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/control.hpp"
#include "obs/ledger.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "vl2mv/vl2mv.hpp"

namespace hsis {

namespace {

uint64_t toMicros(double seconds) {
  return seconds <= 0 ? 0 : static_cast<uint64_t>(std::llround(seconds * 1e6));
}

int64_t clampToGauge(double v) {
  constexpr double kMax = 9.2e18;
  if (v >= kMax) return static_cast<int64_t>(kMax);
  if (v <= 0) return 0;
  return static_cast<int64_t>(v);
}

}  // namespace

std::string Session::DesignSource::digest() const {
  // Kind and top participate: the same text compiled as BLIF-MV vs Verilog,
  // or under a different top module, is a different compiled design.
  std::string key;
  key += kind == Kind::Verilog ? "v:" : "mv:";
  key += top;
  key += '\n';
  key += text;
  return obs::ledger::digestOf(key);
}

Session::Session() : Session(Options{}) {}
Session::Session(Options options) : opts_(options) {}
Session::~Session() = default;

void Session::resetMachine() {
  checker_.reset();
  tr_.reset();
  fsm_.reset();
  mgr_.reset();
  builtCheckerKey_.clear();
}

bool Session::load(const DesignSource& source) {
  const std::string digest = source.digest();
  if (digest == digest_ && resident()) {
    // Compiled-design cache hit: the symbolic machine is already resident.
    lastBuildMicros_ = 0;
    lastFlattenMicros_ = 0;
    lastTrMicros_ = 0;
    return false;
  }
  // (Re)compile. Clear the digest first so an abort or parse error leaves
  // the session empty rather than claiming a design it does not hold.
  digest_.clear();
  resetMachine();
  notes_.clear();
  try {
    if (source.kind == DesignSource::Kind::Verilog) {
      design_ = vl2mv::compile(source.text, source.top);
      linesVerilog_ = vl2mv::verilogLineCount(source.text);
      linesBlifMv_ = blifmv::lineCount(design_);
      HSIS_LOG_INFO("vl2mv.compile", "verilog compiled to BLIF-MV",
                    {{"top", std::string_view(source.top.empty()
                                                  ? "(auto)"
                                                  : source.top)},
                     {"lines_verilog", linesVerilog_},
                     {"lines_blifmv", linesBlifMv_}});
    } else {
      design_ = blifmv::parse(source.text);
      linesVerilog_ = 0;
      linesBlifMv_ = blifmv::lineCount(design_);
      HSIS_LOG_INFO("blifmv.parse", "BLIF-MV design parsed",
                    {{"models", design_.models.size()},
                     {"lines_blifmv", linesBlifMv_}});
    }
  } catch (...) {
    design_ = blifmv::Design{};
    throw;
  }
  digest_ = digest;
  return true;
}

void Session::unload() {
  resetMachine();
  design_ = blifmv::Design{};
  flat_ = blifmv::Model{};
  notes_.clear();
  digest_.clear();
  linesVerilog_ = 0;
  linesBlifMv_ = 0;
  lastBuildMicros_ = 0;
  lastFlattenMicros_ = 0;
  lastTrMicros_ = 0;
}

void Session::build() {
  if (resident()) return;
  if (design_.models.empty())
    throw std::runtime_error("hsis: no design loaded");
  obs::Span span("env.build");
  obs::WallTimer timer;
  uint64_t flattenMicros = 0;
  try {
    flat_ = blifmv::flatten(design_);
    mgr_ = std::make_unique<BddManager>();
    fsm_ = std::make_unique<Fsm>(*mgr_, flat_);
    for (const std::string& d : fsm_->diagnostics()) {
      // Elaboration diagnostics double as warn-level log events so they
      // land in the ring (and a crash dump) even when nobody reads notes().
      HSIS_LOG_WARN("env.elaborate", "elaboration diagnostic",
                    {{"note", std::string_view(d)}});
      notes_.push_back(d);
    }
    flattenMicros = timer.micros();
    if (opts_.partitionedTr) {
      tr_ = TransitionRelation::partitioned(*fsm_, opts_.clusterLimit);
    } else {
      tr_ = TransitionRelation::monolithic(*fsm_, opts_.quantMethod);
    }
  } catch (...) {
    // An abort (or any failure) mid-build must not leave a half-built
    // machine resident: drop everything derived and the digest claim, so
    // the next load() starts from scratch and the Session itself survives.
    resetMachine();
    digest_.clear();
    throw;
  }
  lastBuildMicros_ = toMicros(timer.seconds());
  lastFlattenMicros_ = flattenMicros;
  lastTrMicros_ = lastBuildMicros_ > flattenMicros
                      ? lastBuildMicros_ - flattenMicros
                      : 0;
  obs::gauge("env.read.micros").set(static_cast<int64_t>(lastBuildMicros_));
}

std::string Session::checkerKey() const {
  // A cheap structural key over everything the checker bakes in; when it
  // matches, the existing checker (and its cached reached set) is reused.
  std::string key = opts_.wantTraces ? "t|" : "-|";
  for (const SigExprRef& e : fairness_.noStay) key += "n:" + e->toString() + ";";
  for (const SigExprRef& e : fairness_.buchi) key += "b:" + e->toString() + ";";
  for (const auto& [from, to] : fairness_.fairEdges)
    key += "e:" + from->toString() + ">" + to->toString() + ";";
  return key;
}

void Session::setFairness(const FairnessSpec& fairness) {
  fairness_ = fairness;
  if (checker_ != nullptr && builtCheckerKey_ != checkerKey())
    checker_.reset();
}

void Session::addFairness(const FairnessSpec& fairness) {
  fairness_.noStay.insert(fairness_.noStay.end(), fairness.noStay.begin(),
                          fairness.noStay.end());
  fairness_.buchi.insert(fairness_.buchi.end(), fairness.buchi.begin(),
                         fairness.buchi.end());
  fairness_.fairEdges.insert(fairness_.fairEdges.end(),
                             fairness.fairEdges.begin(),
                             fairness.fairEdges.end());
  if (checker_ != nullptr && builtCheckerKey_ != checkerKey())
    checker_.reset();
}

void Session::setWantTraces(bool want) {
  if (opts_.wantTraces == want) return;
  opts_.wantTraces = want;
  if (checker_ != nullptr && builtCheckerKey_ != checkerKey())
    checker_.reset();
}

const Fsm& Session::fsm() {
  build();
  return *fsm_;
}

const TransitionRelation& Session::tr() {
  build();
  return *tr_;
}

BddManager& Session::manager() {
  build();
  return *mgr_;
}

std::vector<Bdd> Session::ctlFairnessSets() {
  std::vector<Bdd> sets;
  for (const SigExprRef& e : fairness_.noStay)
    sets.push_back(!evalSigExpr(e, *fsm_));
  for (const SigExprRef& e : fairness_.buchi)
    sets.push_back(evalSigExpr(e, *fsm_));
  for (const auto& [from, to] : fairness_.fairEdges) {
    // Fair CTL takes Büchi constraints; a fair edge is approximated by its
    // target states (exact when every entry into `to` uses such an edge).
    (void)from;
    sets.push_back(evalSigExpr(to, *fsm_));
    if (notes_.empty() ||
        notes_.back().find("fair-edge") == std::string::npos) {
      notes_.push_back(
          "fair-edge constraint approximated by its target states for CTL "
          "model checking (exact in language containment)");
    }
  }
  return sets;
}

CtlChecker& Session::checker() {
  build();
  if (checker_ == nullptr) {
    McOptions mo;
    mo.earlyFailureDetection = opts_.earlyFailureDetection;
    mo.useReachedDontCares = opts_.useReachedDontCares;
    mo.wantTrace = opts_.wantTraces;
    checker_ =
        std::make_unique<CtlChecker>(*fsm_, *tr_, ctlFairnessSets(), mo);
    builtCheckerKey_ = checkerKey();
  }
  return *checker_;
}

Simulator Session::makeSimulator(uint64_t seed) {
  build();
  return Simulator(*fsm_, *tr_, seed);
}

double Session::reachedStates() {
  CtlChecker& mc = checker();
  Bdd reached = mc.reached();
  double states = fsm_->countStates(reached);
  obs::gauge("env.reached.states").set(clampToGauge(states));
  return states;
}

cov::Report Session::coverage(const cov::Options& options) {
  CtlChecker& mc = checker();
  const Bdd& reached = mc.reached();  // cached fixpoint
  return cov::analyze(*fsm_, *tr_, reached, mc.onionRings(), options);
}

BugReport Session::checkCtl(const std::string& name, const CtlRef& formula) {
  return checkCtlOn(checker(), name, formula);
}

BugReport Session::checkAutomaton(const std::string& name,
                                  const Automaton& aut) {
  CtlChecker& mc = checker();
  return checkAutomatonOn(*fsm_, mc, fairness_, opts_, name, aut);
}

BugReport Session::checkCtlOn(CtlChecker& checker, const std::string& name,
                              const CtlRef& formula) {
  BugReport report;
  report.paradigm = BugReport::Paradigm::ModelChecking;
  report.propertyName = name;
  report.propertyText = formula->toString();
  obs::Span span("env.verify.ctl");
  McResult r = checker.check(formula);
  report.holds = r.holds;
  report.trace = r.counterexample;
  report.seconds = r.stats.seconds;
  report.usedEarlyFailure = r.stats.usedEarlyFailure;
  obs::counter("env.mc.micros").add(toMicros(r.stats.seconds));
  obs::counter("env.props.ctl").add();
  return report;
}

BugReport Session::checkAutomatonOn(Fsm& design, CtlChecker& checker,
                                    const FairnessSpec& fairness,
                                    const Options& opts,
                                    const std::string& name,
                                    const Automaton& aut) {
  BugReport report;
  report.paradigm = BugReport::Paradigm::LanguageContainment;
  report.propertyName = name;
  report.propertyText = "automaton " + aut.name() + " (" +
                        std::to_string(aut.numStates()) + " states)";
  LcOptions lo;
  lo.wantTrace = opts.wantTraces;
  lo.partitionedTr = opts.partitionedTr;
  lo.clusterLimit = opts.clusterLimit;
  lo.quantMethod = opts.quantMethod;
  // The design's reachable states (cached by the checker) bound every
  // product state, so its reached-minimized TR serves the product as is.
  const TransitionRelation& designTr = checker.activeTr();
  obs::Span span("env.verify.lc");
  LcChecker lc(design, designTr, checker.reached(), aut, fairness, lo);
  LcResult r = lc.check();
  report.holds = r.contained;
  report.notes = r.notes;
  report.seconds = r.stats.seconds;
  if (r.trace.has_value()) {
    // Render against the product FSM now; the monitor latch exists only in
    // the product.
    report.notes.push_back("error trace (design + monitor):\n" +
                           lc.formatTrace(*r.trace));
  }
  obs::counter("env.lc.micros").add(toMicros(r.stats.seconds));
  obs::counter("env.props.lc").add();
  return report;
}

BugReport Session::check(const PifProperty& property) {
  if (property.kind == PifProperty::Kind::Ctl) {
    return checkCtl(property.name, property.ctl);
  }
  return checkAutomaton(property.name, property.aut);
}

}  // namespace hsis
