// Deterministic ω-automata with edge guards over design signals and Rabin
// acceptance — the property formalism of HSIS's language-containment
// paradigm [16]. A property automaton runs as a monitor on a built design:
// one latch plus a transition relation over the design signals its guards
// read (monitorRelation), so the product machine is an ordinary Fsm.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fsm/fsm.hpp"
#include "pif/sigexpr.hpp"

namespace hsis {

/// Rabin pair over automaton states: a run is accepted iff for SOME pair,
/// states in `fin` are visited finitely often AND states in `inf` are
/// visited infinitely often.
struct RabinPair {
  std::vector<uint32_t> fin;
  std::vector<uint32_t> inf;
};

class Automaton {
 public:
  explicit Automaton(std::string name = "property") : name_(std::move(name)) {}

  uint32_t addState(const std::string& name);
  void setInitial(const std::string& name);
  void addEdge(const std::string& from, const std::string& to, SigExprRef guard);

  void addRabinPair(const std::vector<std::string>& fin,
                    const std::vector<std::string>& inf);
  /// Figure-2 style sugar: accepting runs eventually remain inside `states`
  /// forever. Equivalent to the Rabin pair (Fin = complement, Inf = all).
  void setStayAcceptance(const std::vector<std::string>& states);
  /// Büchi sugar: accepting runs visit `states` infinitely often.
  void setBuchiAcceptance(const std::vector<std::string>& states);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] uint32_t numStates() const { return static_cast<uint32_t>(states_.size()); }
  [[nodiscard]] const std::string& stateName(uint32_t s) const { return states_[s]; }
  [[nodiscard]] std::optional<uint32_t> findState(const std::string& name) const;
  [[nodiscard]] uint32_t initialState() const { return initial_; }
  [[nodiscard]] const std::vector<RabinPair>& rabinPairs() const { return pairs_; }

  struct Edge {
    uint32_t from, to;
    SigExprRef guard;
  };
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  /// Design signals read by the edge guards, in order of first use.
  [[nodiscard]] std::vector<std::string> guardSignals() const;

  /// The monitor's transition relation T(g, m, m') in `fsm`: `present` and
  /// `next` are the monitor latch's variables, g the design signals the
  /// guards read (any signal, not only latch outputs). Checks determinism
  /// and completeness symbolically, over every assignment of the guard
  /// signals; throws std::runtime_error on a nondeterministic or incomplete
  /// automaton, an unknown signal or an out-of-domain guard value.
  [[nodiscard]] Bdd monitorRelation(const Fsm& fsm, MvVarId present,
                                    MvVarId next) const;

 private:
  std::string name_;
  std::vector<std::string> states_;
  std::vector<Edge> edges_;
  std::vector<RabinPair> pairs_;
  uint32_t initial_ = 0;
};

}  // namespace hsis
