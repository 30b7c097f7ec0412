// Computation Tree Logic: formulas and parser [Clarke-Emerson-Sistla].
//
// Grammar (SMV-flavoured):
//   formula := iff
//   iff     := imp ('<->' imp)*
//   imp     := or ('->' imp)?
//   or      := and ('|' and)*
//   and     := unary ('&' unary)*
//   unary   := '!' unary | 'AG' unary | 'AF' unary | 'AX' unary
//            | 'EG' unary | 'EF' unary | 'EX' unary
//            | 'A' '[' formula 'U' formula ']'
//            | 'E' '[' formula 'U' formula ']'
//            | '(' formula ')' | atom
// Atoms use the shared signal-expression syntax (sig, sig=value, sig!=value).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pif/sigexpr.hpp"

namespace hsis {

struct CtlFormula;
using CtlRef = std::shared_ptr<const CtlFormula>;

struct CtlFormula {
  enum class Kind : uint8_t {
    True, False, Atom, Not, And, Or,
    EX, EG, EU,   // the primitive temporal operators
    AX, AG, AF, AU, EF,  // rewritten to primitives by the checker
  };
  Kind kind = Kind::True;
  SigExprRef atom;  ///< for Atom
  CtlRef left, right;

  [[nodiscard]] std::string toString() const;
  /// Does the formula start with a universal path quantifier at top level
  /// after negation-pushing? (Used for early failure detection.)
  [[nodiscard]] bool isInvariant() const;  // of the form AG p, p propositional
  [[nodiscard]] bool isPropositional() const;
};

CtlRef ctlTrue();
CtlRef ctlFalse();
CtlRef ctlAtom(SigExprRef a);
CtlRef ctlNot(CtlRef a);
CtlRef ctlAnd(CtlRef a, CtlRef b);
CtlRef ctlOr(CtlRef a, CtlRef b);
CtlRef ctlImplies(CtlRef a, CtlRef b);
CtlRef ctlEX(CtlRef a);
CtlRef ctlEG(CtlRef a);
CtlRef ctlEU(CtlRef a, CtlRef b);
CtlRef ctlEF(CtlRef a);
CtlRef ctlAX(CtlRef a);
CtlRef ctlAG(CtlRef a);
CtlRef ctlAF(CtlRef a);
CtlRef ctlAU(CtlRef a, CtlRef b);

/// Parse a CTL formula; throws std::runtime_error on syntax errors.
CtlRef parseCtl(const std::string& text);

/// The states of `fsm` satisfying a propositional (non-temporal) formula:
/// atoms through evalSigExpr, booleans on top. Throws std::logic_error on
/// a temporal operator.
Bdd evalPropositional(const CtlRef& f, const Fsm& fsm);

}  // namespace hsis
