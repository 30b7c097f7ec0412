#include "cov/cov.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <unordered_set>

#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace hsis::cov {

bool coverageEnabled() {
  return obs::kEnabled && std::getenv("HSIS_COV_DISABLE") == nullptr;
}

// ---- coverpoint construction ----

namespace {

PointSpec autoPointNamed(const Fsm& fsm, const std::string& signal,
                         std::string name) {
  auto v = fsm.signalVar(signal);
  if (!v) throw std::runtime_error("cov: unknown signal '" + signal + "'");
  const MvSpace& space = fsm.space();
  PointSpec p;
  p.name = std::move(name);
  for (uint32_t k = 0; k < space.domain(*v); ++k) {
    p.bins.push_back(
        {space.valueName(*v, k), sigAtom(signal, space.valueName(*v, k))});
  }
  return p;
}

}  // namespace

PointSpec autoPoint(const Fsm& fsm, const std::string& signal) {
  return autoPointNamed(fsm, signal, signal);
}

PointSpec crossPoint(const PointSpec& a, const PointSpec& b,
                     std::string name) {
  PointSpec p;
  p.name = name.empty() ? a.name + "_x_" + b.name : std::move(name);
  for (const BinSpec& ba : a.bins) {
    for (const BinSpec& bb : b.bins) {
      p.bins.push_back({ba.name + "/" + bb.name, sigAnd(ba.expr, bb.expr)});
    }
  }
  return p;
}

std::vector<PointSpec> defaultPoints(const Fsm& fsm) {
  std::vector<PointSpec> points;
  points.reserve(fsm.numLatches());
  for (size_t l = 0; l < fsm.numLatches(); ++l)
    points.push_back(autoPoint(fsm, fsm.latchName(l)));
  return points;
}

// ---- spec language ----

namespace {

class SpecParser {
 public:
  SpecParser(const std::string& text, const Fsm& fsm)
      : text_(text), fsm_(fsm) {}

  std::vector<PointSpec> parse() {
    std::vector<PointSpec> points;
    while (true) {
      skipWs();
      if (pos_ == text_.size()) break;
      std::string kw = ident("declaration keyword");
      if (kw == "coverpoint") {
        points.push_back(parseCoverpoint());
      } else if (kw == "cross") {
        points.push_back(parseCross(points));
      } else {
        fail("expected 'coverpoint' or 'cross', got '" + kw + "'");
      }
      skipWs();
      if (pos_ < text_.size() && text_[pos_] == ';') ++pos_;
    }
    return points;
  }

 private:
  PointSpec parseCoverpoint() {
    std::string name = ident("coverpoint name");
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == '{') {
      ++pos_;
      PointSpec p;
      p.name = std::move(name);
      while (true) {
        skipWs();
        if (pos_ >= text_.size()) fail("unterminated coverpoint block");
        if (text_[pos_] == '}') {
          ++pos_;
          break;
        }
        std::string kw = ident("'bin'");
        if (kw != "bin") fail("expected 'bin', got '" + kw + "'");
        std::string binName = ident("bin name");
        expect('=');
        size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != ';') ++pos_;
        if (pos_ >= text_.size()) fail("missing ';' after bin expression");
        std::string exprText = text_.substr(start, pos_ - start);
        ++pos_;  // ';'
        p.bins.push_back({std::move(binName), parseSigExpr(exprText)});
      }
      if (p.bins.empty()) fail("coverpoint '" + p.name + "' has no bins");
      return p;
    }
    std::string kw = ident("'auto'");
    if (kw != "auto") fail("expected '{' or 'auto', got '" + kw + "'");
    std::string signal = ident("signal name");
    return autoPointNamed(fsm_, signal, std::move(name));
  }

  PointSpec parseCross(const std::vector<PointSpec>& declared) {
    std::string name = ident("cross name");
    expect('=');
    std::string a = ident("coverpoint name");
    expect(',');
    std::string b = ident("coverpoint name");
    return crossPoint(lookup(declared, a), lookup(declared, b),
                      std::move(name));
  }

  const PointSpec& lookup(const std::vector<PointSpec>& declared,
                          const std::string& name) {
    for (const PointSpec& p : declared)
      if (p.name == name) return p;
    fail("cross references undeclared coverpoint '" + name + "'");
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else {
        break;
      }
    }
  }

  static bool identChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '$' || c == '[' || c == ']' || c == '<' ||
           c == '>' || c == '-';
  }

  std::string ident(const char* what) {
    skipWs();
    size_t start = pos_;
    while (pos_ < text_.size() && identChar(text_[pos_])) ++pos_;
    if (pos_ == start) fail(std::string("expected ") + what);
    return text_.substr(start, pos_ - start);
  }

  void expect(char c) {
    skipWs();
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  [[noreturn]] void fail(const std::string& msg) {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i)
      if (text_[i] == '\n') ++line;
    throw std::runtime_error("cover spec line " + std::to_string(line) +
                             ": " + msg);
  }

  const std::string& text_;
  const Fsm& fsm_;
  size_t pos_ = 0;
};

}  // namespace

std::vector<PointSpec> parseCoverSpec(const std::string& text,
                                      const Fsm& fsm) {
  return SpecParser(text, fsm).parse();
}

// ---- analysis ----

namespace {

/// True iff every atom of the expression names a present-state (latch)
/// variable — the precondition for concrete evaluation on enumerated
/// states.
bool stateOnly(const SigExpr& e, const Fsm& fsm,
               const std::unordered_set<uint32_t>& stateVars) {
  switch (e.kind) {
    case SigExpr::Kind::True:
    case SigExpr::Kind::False:
      return true;
    case SigExpr::Kind::Atom: {
      auto v = fsm.signalVar(e.signal);
      return v && stateVars.count(*v) != 0;
    }
    case SigExpr::Kind::Not:
    case SigExpr::Kind::And:
    case SigExpr::Kind::Or:
      for (const auto& a : e.args)
        if (!stateOnly(*a, fsm, stateVars)) return false;
      return true;
  }
  return false;
}

/// Symbolic bin evaluation. Unlike evalSigExpr (CTL atoms, latch outputs
/// only), coverage bins may also reference free inputs: the reached set
/// leaves inputs unconstrained and analyze() projects the conjunction back
/// onto the state rail, so an input atom asks "is there a reached state
/// compatible with this input value" — the symbolic-only column of the
/// report. Internal combinational signals are still rejected; they are
/// quantified out of the transition relation and carry no set semantics.
Bdd evalSymbolic(const SigExpr& e, const Fsm& fsm,
                 const std::unordered_set<uint32_t>& stateOrInput) {
  BddManager& mgr = fsm.mgr();
  const MvSpace& space = fsm.space();
  switch (e.kind) {
    case SigExpr::Kind::True:
      return mgr.bddOne();
    case SigExpr::Kind::False:
      return mgr.bddZero();
    case SigExpr::Kind::Not:
      return !evalSymbolic(*e.args[0], fsm, stateOrInput);
    case SigExpr::Kind::And:
      return evalSymbolic(*e.args[0], fsm, stateOrInput) &
             evalSymbolic(*e.args[1], fsm, stateOrInput);
    case SigExpr::Kind::Or:
      return evalSymbolic(*e.args[0], fsm, stateOrInput) |
             evalSymbolic(*e.args[1], fsm, stateOrInput);
    case SigExpr::Kind::Atom: {
      std::optional<MvVarId> var = fsm.signalVar(e.signal);
      if (!var.has_value())
        throw std::runtime_error("cov: bin references unknown signal " +
                                 e.signal);
      if (stateOrInput.count(*var) == 0)
        throw std::runtime_error(
            "cov: signal " + e.signal +
            " is combinational; coverage bins must reference latch outputs "
            "or primary inputs");
      std::string value = e.value;
      if (value.empty()) {
        if (space.domain(*var) != 2)
          throw std::runtime_error("cov: bare atom " + e.signal +
                                   " needs an explicit value (domain > 2)");
        value = "1";
      }
      std::optional<uint32_t> k = space.valueOf(*var, value);
      if (!k.has_value())
        throw std::runtime_error("cov: value " + value +
                                 " not in domain of " + e.signal);
      Bdd lit = space.literal(*var, *k);
      return e.negatedAtom ? (space.validEncodings(*var) & !lit) : lit;
    }
  }
  return mgr.bddZero();
}

/// Evaluate a state-only expression on one enumerated state cube.
bool evalConcrete(const SigExpr& e, const Fsm& fsm,
                  const std::vector<int8_t>& cube) {
  const MvSpace& space = fsm.space();
  switch (e.kind) {
    case SigExpr::Kind::True:
      return true;
    case SigExpr::Kind::False:
      return false;
    case SigExpr::Kind::Atom: {
      MvVarId v = *fsm.signalVar(e.signal);
      uint32_t target = 1;
      if (!e.value.empty()) {
        auto t = space.valueOf(v, e.value);
        if (!t)
          throw std::runtime_error("cov: value '" + e.value +
                                   "' not in domain of '" + e.signal + "'");
        target = *t;
      }
      bool eq = space.decode(v, cube) == target;
      return eq != e.negatedAtom;
    }
    case SigExpr::Kind::Not:
      return !evalConcrete(*e.args[0], fsm, cube);
    case SigExpr::Kind::And:
      return evalConcrete(*e.args[0], fsm, cube) &&
             evalConcrete(*e.args[1], fsm, cube);
    case SigExpr::Kind::Or:
      return evalConcrete(*e.args[0], fsm, cube) ||
             evalConcrete(*e.args[1], fsm, cube);
  }
  return false;
}

}  // namespace

Report analyze(const Fsm& fsm, const TransitionRelation& tr,
               const Bdd& reached, std::span<const Bdd> onionRings,
               const Options& opts) {
  Report rep;
  rep.design = fsm.name();
  if (!coverageEnabled()) return rep;  // valid-empty, enabled == false
  rep.enabled = true;

  obs::Span span("cov.analyze");
  static obs::Counter& reports = obs::counter("cov.reports");
  reports.add();

  BddManager& mgr = fsm.mgr();
  const MvSpace& space = fsm.space();

  // Layer 1: structural occupancy + state-space fraction.
  rep.reachableStates = fsm.countStates(reached);
  rep.stateSpace = 1.0;
  for (size_t l = 0; l < fsm.numLatches(); ++l) {
    MvVarId v = fsm.stateVar(l);
    uint32_t dom = space.domain(v);
    rep.stateSpace *= static_cast<double>(dom);
    LatchOccupancy occ;
    occ.latch = fsm.latchName(l);
    occ.domain = dom;
    for (uint32_t k = 0; k < dom; ++k) {
      bool hit = !(reached & space.literal(v, k)).isZero();
      occ.valueNames.push_back(space.valueName(v, k));
      occ.valueReached.push_back(hit);
      if (hit) ++occ.reachedValues;
    }
    rep.valuesTotal += dom;
    rep.valuesReached += occ.reachedValues;
    rep.latches.push_back(std::move(occ));
  }

  // Frontier time series: the state count of each onion ring.
  std::vector<double> newStates = mgr.satCounts(onionRings, fsm.stateBits());
  double cumulative = 0.0;
  for (size_t d = 0; d < newStates.size(); ++d) {
    cumulative += newStates[d];
    rep.frontier.push_back({d, newStates[d], cumulative});
  }
  if (!rep.frontier.empty()) rep.depth = rep.frontier.size() - 1;

  // Layer 2: coverpoints, symbolically.
  std::unordered_set<uint32_t> stateVars(fsm.stateVars().begin(),
                                         fsm.stateVars().end());
  std::unordered_set<uint32_t> stateOrInput = stateVars;
  stateOrInput.insert(fsm.inputVars().begin(), fsm.inputVars().end());
  std::vector<PointSpec> defaults;
  if (opts.points.empty()) defaults = defaultPoints(fsm);
  const std::vector<PointSpec>& specs =
      opts.points.empty() ? defaults : opts.points;
  for (const PointSpec& spec : specs) {
    PointResult pr;
    pr.name = spec.name;
    for (const BinSpec& bin : spec.bins) {
      BinResult br;
      br.name = bin.name;
      br.expr = bin.expr->toString();
      Bdd restricted = reached & evalSymbolic(*bin.expr, fsm, stateOrInput);
      br.symbolicHit = !restricted.isZero();
      // Project onto the state rail: states where some input/internal
      // assignment satisfies the bin.
      br.symbolicStates =
          fsm.countStates(mgr.exists(restricted, fsm.nonStateCube()));
      br.simEvaluable = stateOnly(*bin.expr, fsm, stateVars);
      ++rep.binsTotal;
      if (br.symbolicHit) {
        ++rep.binsHit;
        ++pr.binsHit;
      }
      pr.bins.push_back(std::move(br));
    }
    rep.points.push_back(std::move(pr));
  }

  // Differential pass: re-count state-only bins by exhaustive enumeration.
  if (opts.simMaxStates > 0) {
    Simulator sim(fsm, tr, opts.simSeed);
    // rep.points mirrors `specs` index-for-index; zip them to pair each
    // evaluable BinResult with its expression.
    std::vector<BinResult*> targets;
    std::vector<const SigExpr*> exprs;
    for (size_t p = 0; p < rep.points.size(); ++p) {
      for (size_t i = 0; i < rep.points[p].bins.size(); ++i) {
        if (!rep.points[p].bins[i].simEvaluable) continue;
        targets.push_back(&rep.points[p].bins[i]);
        exprs.push_back(specs[p].bins[i].expr.get());
      }
    }
    std::vector<int64_t> counts(targets.size(), 0);
    size_t visited = sim.enumerate(
        opts.simMaxStates, [&](const std::vector<int8_t>& cube) {
          for (size_t t = 0; t < targets.size(); ++t)
            if (evalConcrete(*exprs[t], fsm, cube)) ++counts[t];
        });
    rep.simStates = visited;
    rep.simExhaustive =
        static_cast<double>(visited) == rep.reachableStates &&
        rep.reachableStates > 0.0;
    if (rep.simExhaustive) {
      for (size_t t = 0; t < targets.size(); ++t) {
        targets[t]->simHits = counts[t];
        if (static_cast<double>(counts[t]) != targets[t]->symbolicStates)
          rep.simAgrees = false;
      }
    }
  }

  obs::gauge("cov.values.total").set(static_cast<int64_t>(rep.valuesTotal));
  obs::gauge("cov.values.reached")
      .set(static_cast<int64_t>(rep.valuesReached));
  obs::gauge("cov.bins.total").set(static_cast<int64_t>(rep.binsTotal));
  obs::gauge("cov.bins.hit").set(static_cast<int64_t>(rep.binsHit));
  return rep;
}

}  // namespace hsis::cov
