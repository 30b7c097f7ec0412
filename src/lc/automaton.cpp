#include "lc/automaton.hpp"

#include <stdexcept>
#include <unordered_set>

namespace hsis {

namespace {

[[noreturn]] void autError(const std::string& name, const std::string& msg) {
  throw std::runtime_error("automaton " + name + ": " + msg);
}

void collectSignals(const SigExpr& e, std::vector<std::string>& out) {
  if (e.kind == SigExpr::Kind::Atom) {
    for (const std::string& s : out)
      if (s == e.signal) return;
    out.push_back(e.signal);
  }
  for (const auto& a : e.args) collectSignals(*a, out);
}

}  // namespace

uint32_t Automaton::addState(const std::string& name) {
  if (findState(name).has_value()) autError(name_, "duplicate state " + name);
  states_.push_back(name);
  return static_cast<uint32_t>(states_.size() - 1);
}

void Automaton::setInitial(const std::string& name) {
  std::optional<uint32_t> s = findState(name);
  if (!s.has_value()) autError(name_, "unknown initial state " + name);
  initial_ = *s;
}

void Automaton::addEdge(const std::string& from, const std::string& to,
                        SigExprRef guard) {
  std::optional<uint32_t> f = findState(from);
  std::optional<uint32_t> t = findState(to);
  if (!f.has_value()) autError(name_, "unknown state " + from);
  if (!t.has_value()) autError(name_, "unknown state " + to);
  edges_.push_back(Edge{*f, *t, std::move(guard)});
}

std::optional<uint32_t> Automaton::findState(const std::string& name) const {
  for (uint32_t i = 0; i < states_.size(); ++i)
    if (states_[i] == name) return i;
  return std::nullopt;
}

void Automaton::addRabinPair(const std::vector<std::string>& fin,
                             const std::vector<std::string>& inf) {
  RabinPair p;
  for (const std::string& s : fin) {
    std::optional<uint32_t> i = findState(s);
    if (!i.has_value()) autError(name_, "unknown state " + s + " in fin set");
    p.fin.push_back(*i);
  }
  for (const std::string& s : inf) {
    std::optional<uint32_t> i = findState(s);
    if (!i.has_value()) autError(name_, "unknown state " + s + " in inf set");
    p.inf.push_back(*i);
  }
  pairs_.push_back(std::move(p));
}

void Automaton::setStayAcceptance(const std::vector<std::string>& states) {
  std::unordered_set<std::string> in(states.begin(), states.end());
  std::vector<std::string> fin;
  std::vector<std::string> inf;
  for (const std::string& s : states_) {
    if (!in.contains(s)) fin.push_back(s);
    inf.push_back(s);  // Inf = all states: any cycle qualifies
  }
  addRabinPair(fin, inf);
}

void Automaton::setBuchiAcceptance(const std::vector<std::string>& states) {
  addRabinPair({}, states);
}

std::vector<std::string> Automaton::guardSignals() const {
  std::vector<std::string> sigs;
  for (const Edge& e : edges_) collectSignals(*e.guard, sigs);
  return sigs;
}

Bdd Automaton::monitorRelation(const Fsm& fsm, MvVarId present,
                               MvVarId next) const {
  if (states_.empty()) autError(name_, "no states");
  if (pairs_.empty()) autError(name_, "no acceptance condition");
  const MvSpace& space = fsm.space();
  BddManager& mgr = fsm.mgr();
  // Every assignment of the guard signals, as compose() enumerates them.
  Bdd valid = mgr.bddOne();
  for (const std::string& sig : guardSignals()) {
    std::optional<MvVarId> v = fsm.signalVar(sig);
    if (!v.has_value()) autError(name_, "guard reads unknown signal " + sig);
    valid &= space.validEncodings(*v);
  }
  Bdd rel = mgr.bddZero();
  for (uint32_t s = 0; s < states_.size(); ++s) {
    // Union of the guards leading to each target so far.
    std::vector<Bdd> into(states_.size(), mgr.bddZero());
    Bdd covered = mgr.bddZero();
    for (const Edge& e : edges_) {
      if (e.from != s) continue;
      Bdd g = evalSigExpr(*e.guard, fsm, /*anySignal=*/true) & valid;
      if (!(g & covered & !into[e.to]).isZero())
        autError(name_, "nondeterministic at state " + states_[s] +
                            " (two guards overlap)");
      into[e.to] |= g;
      covered |= g;
      rel |= space.literal(present, s) & g & space.literal(next, e.to);
    }
    if (!(valid & !covered).isZero())
      autError(name_, "incomplete at state " + states_[s] +
                          " (no guard matches some input)");
  }
  return rel;
}

}  // namespace hsis
