// Interactive model-checking debugger (paper Section 6.2): unfold a failing
// CTL formula one step at a time. At each point the session holds a state
// and a (formula, expected-value) obligation that is violated there; the
// user picks how to descend:
//  - boolean nodes: choose which operand to certify,
//  - existential X obligations: choose which successor to pursue,
//  - universal obligations: the tool finds the shortest path to a state
//    where the residual obligation fails.
//
// The session is programmatic (choice indices), so tests can drive it; an
// interactive stdin loop lives in examples/gigamax_debug.cpp.
#pragma once

#include <string>
#include <vector>

#include "ctl/mc.hpp"

namespace hsis {

class McDebugSession {
 public:
  /// Start a session for a formula that FAILS on some initial state of the
  /// checker's FSM. Throws std::invalid_argument if it actually holds.
  McDebugSession(CtlChecker& checker, CtlRef formula);

  /// A possible way to descend from the current obligation.
  struct Choice {
    std::string description;
    CtlRef formula;            ///< residual obligation
    bool expected;             ///< expected truth value (violated here)
    std::vector<int8_t> state; ///< state where the obligation is considered
    /// states stepped through to get there (possibly empty; for universal
    /// operators the tool inserts the shortest failing path)
    std::vector<std::vector<int8_t>> path;
  };

  [[nodiscard]] const std::vector<int8_t>& state() const { return state_; }
  [[nodiscard]] const CtlRef& formula() const { return formula_; }
  [[nodiscard]] bool expected() const { return expected_; }
  /// Human-readable summary of the current obligation.
  [[nodiscard]] std::string describe() const;
  /// True when the obligation is an atom (nothing left to unfold).
  [[nodiscard]] bool atLeaf() const;

  [[nodiscard]] const std::vector<Choice>& choices() const { return choices_; }
  /// Descend into choice i. Returns false if out of range.
  bool choose(size_t i);
  /// Go back one step. Returns false at the root.
  bool back();

  /// The full path of states stepped through so far (for the bug report).
  [[nodiscard]] const std::vector<std::vector<int8_t>>& pathSoFar() const {
    return pathSoFar_;
  }

 private:
  struct Frame {
    CtlRef formula;
    bool expected;
    std::vector<int8_t> state;
    size_t pathLen;
  };

  void computeChoices();
  Bdd stateCube(const std::vector<int8_t>& s) const;

  CtlChecker* checker_;
  CtlRef formula_;
  bool expected_ = true;
  std::vector<int8_t> state_;
  std::vector<Choice> choices_;
  std::vector<Frame> history_;
  std::vector<std::vector<int8_t>> pathSoFar_;
};

}  // namespace hsis
