#include "debug/mcdebug.hpp"

#include <sstream>
#include <stdexcept>

#include "fsm/trace.hpp"

namespace hsis {

namespace {

constexpr size_t kMaxSuccessorChoices = 8;

std::vector<std::vector<int8_t>> enumerateStates(const Fsm& fsm, Bdd set,
                                                 size_t limit) {
  std::vector<std::vector<int8_t>> out;
  while (!set.isZero() && out.size() < limit) {
    std::vector<int8_t> s = concretizeState(fsm, set);
    out.push_back(s);
    set &= !fsm.stateFromValues(fsm.decodeState(s));
  }
  return out;
}

}  // namespace

McDebugSession::McDebugSession(CtlChecker& checker, CtlRef formula)
    : checker_(&checker), formula_(std::move(formula)) {
  const Fsm& fsm = checker_->fsm();
  Bdd sat = checker_->states(formula_);
  Bdd badInit = fsm.initialStates() & !sat;
  if (badInit.isZero())
    throw std::invalid_argument(
        "McDebugSession: formula holds on all initial states");
  state_ = concretizeState(fsm, badInit);
  expected_ = true;
  pathSoFar_.push_back(state_);
  computeChoices();
}

Bdd McDebugSession::stateCube(const std::vector<int8_t>& s) const {
  const Fsm& fsm = checker_->fsm();
  return fsm.stateFromValues(fsm.decodeState(s));
}

std::string McDebugSession::describe() const {
  std::ostringstream os;
  os << "at state [" << checker_->fsm().formatState(state_) << "]: "
     << formula_->toString() << " is "
     << (expected_ ? "FALSE (expected true)" : "TRUE (expected false)");
  return os.str();
}

bool McDebugSession::atLeaf() const { return choices_.empty(); }

bool McDebugSession::choose(size_t i) {
  if (i >= choices_.size()) return false;
  history_.push_back(Frame{formula_, expected_, state_, pathSoFar_.size()});
  const Choice& c = choices_[i];
  formula_ = c.formula;
  expected_ = c.expected;
  for (const auto& s : c.path) pathSoFar_.push_back(s);
  if (c.state != state_ && (c.path.empty() || c.path.back() != c.state))
    pathSoFar_.push_back(c.state);
  state_ = c.state;
  computeChoices();
  return true;
}

bool McDebugSession::back() {
  if (history_.empty()) return false;
  Frame f = std::move(history_.back());
  history_.pop_back();
  formula_ = std::move(f.formula);
  expected_ = f.expected;
  state_ = std::move(f.state);
  pathSoFar_.resize(f.pathLen);
  computeChoices();
  return true;
}

void McDebugSession::computeChoices() {
  choices_.clear();
  const Fsm& fsm = checker_->fsm();
  const CtlFormula& f = *formula_;
  Bdd here = stateCube(state_);

  auto addHere = [&](const CtlRef& g, bool exp, const std::string& why) {
    Choice c;
    c.description = why + ": " + g->toString();
    c.formula = g;
    c.expected = exp;
    c.state = state_;
    choices_.push_back(std::move(c));
  };
  auto addSuccessors = [&](const CtlRef& g, bool exp, const Bdd& filter,
                           const std::string& why) {
    Bdd succ = checker_->tr().image(here) & filter;
    for (const auto& s : enumerateStates(fsm, succ, kMaxSuccessorChoices)) {
      Choice c;
      c.description = why + " successor [" + fsm.formatState(s) + "]";
      c.formula = g;
      c.expected = exp;
      c.state = s;
      choices_.push_back(std::move(c));
    }
  };

  Bdd satLeft = f.left != nullptr ? checker_->states(f.left) : Bdd();
  Bdd satRight = f.right != nullptr ? checker_->states(f.right) : Bdd();

  switch (f.kind) {
    case CtlFormula::Kind::True:
    case CtlFormula::Kind::False:
    case CtlFormula::Kind::Atom:
      return;  // leaf
    case CtlFormula::Kind::Not:
      addHere(f.left, !expected_, "negation: certify operand");
      return;
    case CtlFormula::Kind::And:
      if (expected_) {
        // f&g false: offer the false conjuncts (the paper's h = f+g dual).
        if ((satLeft & here).isZero()) addHere(f.left, true, "false conjunct");
        if ((satRight & here).isZero()) addHere(f.right, true, "false conjunct");
      } else {
        addHere(f.left, false, "true conjunct");
        addHere(f.right, false, "true conjunct");
      }
      return;
    case CtlFormula::Kind::Or:
      if (expected_) {
        addHere(f.left, true, "false disjunct");
        addHere(f.right, true, "false disjunct");
      } else {
        if (!(satLeft & here).isZero()) addHere(f.left, false, "true disjunct");
        if (!(satRight & here).isZero()) addHere(f.right, false, "true disjunct");
      }
      return;
    case CtlFormula::Kind::EX:
      if (expected_) {
        // EX p false: no successor satisfies p — pursue any successor.
        addSuccessors(f.left, true, checker_->fsm().mgr().bddOne(), "pursue");
      } else {
        addSuccessors(f.left, false, satLeft, "witness");
      }
      return;
    case CtlFormula::Kind::AX:
      if (expected_) {
        addSuccessors(f.left, true, !satLeft, "failing");
      } else {
        addSuccessors(f.left, false, satLeft, "witness");
      }
      return;
    case CtlFormula::Kind::AG: {
      if (expected_) {
        if ((satLeft & here).isZero()) {
          addHere(f.left, true, "subformula fails here");
        }
        // Shortest path to a state where the subformula fails.
        Bdd bad = checker_->reached() & !satLeft;
        std::optional<Trace> path = shortestPathTo(checker_->tr(), here, bad);
        if (path.has_value() && path->states.size() > 1) {
          Choice c;
          c.description = "shortest path (" +
                          std::to_string(path->states.size() - 1) +
                          " steps) to a state violating " + f.left->toString();
          c.formula = f.left;
          c.expected = true;
          c.state = path->states.back();
          c.path.assign(path->states.begin() + 1, path->states.end() - 1);
          choices_.push_back(std::move(c));
        }
      } else {
        addHere(f.left, false, "holds here and on all paths");
      }
      return;
    }
    case CtlFormula::Kind::AF:
      if (expected_) {
        // AF p false: p false here and some fair successor keeps AF p false.
        addHere(f.left, true, "subformula false here");
        addSuccessors(formula_, true,
                      checker_->reached() & !checker_->states(formula_),
                      "stay on escaping");
      } else {
        addHere(f.left, false, "eventually reached");
      }
      return;
    case CtlFormula::Kind::EG:
      if (expected_) {
        if ((satLeft & here).isZero()) {
          addHere(f.left, true, "subformula false here");
        } else {
          addSuccessors(formula_, true, checker_->fsm().mgr().bddOne(),
                        "pursue");
        }
      } else {
        addHere(f.left, false, "holds here");
        addSuccessors(formula_, false, checker_->states(formula_), "sustain");
      }
      return;
    case CtlFormula::Kind::EF:
      if (expected_) {
        addHere(f.left, true, "unreachable goal false here");
        addSuccessors(formula_, true, checker_->fsm().mgr().bddOne(), "pursue");
      } else {
        // Why EF p true: shortest path to p.
        std::optional<Trace> path =
            shortestPathTo(checker_->tr(), here, satLeft);
        if (path.has_value()) {
          Choice c;
          c.description = "witness path (" +
                          std::to_string(path->states.size() - 1) +
                          " steps) to " + f.left->toString();
          c.formula = f.left;
          c.expected = false;
          c.state = path->states.back();
          if (path->states.size() > 1)
            c.path.assign(path->states.begin() + 1, path->states.end() - 1);
          choices_.push_back(std::move(c));
        }
      }
      return;
    case CtlFormula::Kind::EU:
    case CtlFormula::Kind::AU: {
      bool universal = f.kind == CtlFormula::Kind::AU;
      if (expected_) {
        addHere(f.right, true, "until-goal false here");
        if ((satLeft & here).isZero())
          addHere(f.left, true, "until-condition false here");
        Bdd residual = checker_->reached() & !checker_->states(formula_);
        addSuccessors(formula_, true,
                      universal ? residual : checker_->fsm().mgr().bddOne(),
                      "continue along");
      } else {
        if (!(satRight & here).isZero()) {
          addHere(f.right, false, "until-goal holds here");
        } else {
          addHere(f.left, false, "until-condition holds here");
          addSuccessors(formula_, false, checker_->states(formula_), "sustain");
        }
      }
      return;
    }
  }
}

}  // namespace hsis
