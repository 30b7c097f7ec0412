#include "ctl/ctl.hpp"

#include <cctype>
#include <stdexcept>

namespace hsis {

namespace {

std::shared_ptr<CtlFormula> mk(CtlFormula::Kind k) {
  auto f = std::make_shared<CtlFormula>();
  f->kind = k;
  return f;
}

std::shared_ptr<CtlFormula> mk1(CtlFormula::Kind k, CtlRef a) {
  auto f = mk(k);
  f->left = std::move(a);
  return f;
}

std::shared_ptr<CtlFormula> mk2(CtlFormula::Kind k, CtlRef a, CtlRef b) {
  auto f = mk(k);
  f->left = std::move(a);
  f->right = std::move(b);
  return f;
}

}  // namespace

CtlRef ctlTrue() { return mk(CtlFormula::Kind::True); }
CtlRef ctlFalse() { return mk(CtlFormula::Kind::False); }

CtlRef ctlAtom(SigExprRef a) {
  auto f = mk(CtlFormula::Kind::Atom);
  f->atom = std::move(a);
  return f;
}

CtlRef ctlNot(CtlRef a) { return mk1(CtlFormula::Kind::Not, std::move(a)); }
CtlRef ctlAnd(CtlRef a, CtlRef b) {
  return mk2(CtlFormula::Kind::And, std::move(a), std::move(b));
}
CtlRef ctlOr(CtlRef a, CtlRef b) {
  return mk2(CtlFormula::Kind::Or, std::move(a), std::move(b));
}
CtlRef ctlImplies(CtlRef a, CtlRef b) {
  return ctlOr(ctlNot(std::move(a)), std::move(b));
}
CtlRef ctlEX(CtlRef a) { return mk1(CtlFormula::Kind::EX, std::move(a)); }
CtlRef ctlEG(CtlRef a) { return mk1(CtlFormula::Kind::EG, std::move(a)); }
CtlRef ctlEU(CtlRef a, CtlRef b) {
  return mk2(CtlFormula::Kind::EU, std::move(a), std::move(b));
}
CtlRef ctlEF(CtlRef a) { return mk1(CtlFormula::Kind::EF, std::move(a)); }
CtlRef ctlAX(CtlRef a) { return mk1(CtlFormula::Kind::AX, std::move(a)); }
CtlRef ctlAG(CtlRef a) { return mk1(CtlFormula::Kind::AG, std::move(a)); }
CtlRef ctlAF(CtlRef a) { return mk1(CtlFormula::Kind::AF, std::move(a)); }
CtlRef ctlAU(CtlRef a, CtlRef b) {
  return mk2(CtlFormula::Kind::AU, std::move(a), std::move(b));
}

std::string CtlFormula::toString() const {
  switch (kind) {
    case Kind::True: return "1";
    case Kind::False: return "0";
    case Kind::Atom: return atom->toString();
    case Kind::Not: return "!" + left->toString();
    case Kind::And: return "(" + left->toString() + " & " + right->toString() + ")";
    case Kind::Or: return "(" + left->toString() + " | " + right->toString() + ")";
    case Kind::EX: return "EX " + left->toString();
    case Kind::EG: return "EG " + left->toString();
    case Kind::EU: return "E[" + left->toString() + " U " + right->toString() + "]";
    case Kind::AX: return "AX " + left->toString();
    case Kind::AG: return "AG " + left->toString();
    case Kind::AF: return "AF " + left->toString();
    case Kind::AU: return "A[" + left->toString() + " U " + right->toString() + "]";
    case Kind::EF: return "EF " + left->toString();
  }
  return "?";
}

bool CtlFormula::isPropositional() const {
  switch (kind) {
    case Kind::True:
    case Kind::False:
    case Kind::Atom:
      return true;
    case Kind::Not:
      return left->isPropositional();
    case Kind::And:
    case Kind::Or:
      return left->isPropositional() && right->isPropositional();
    default:
      return false;
  }
}

bool CtlFormula::isInvariant() const {
  return kind == Kind::AG && left->isPropositional();
}

namespace {

class CtlParser {
 public:
  explicit CtlParser(const std::string& text) : text_(text) {}

  CtlRef parse() {
    CtlRef f = parseImp();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters");
    return f;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw std::runtime_error("CTL parse error in \"" + text_ + "\" at offset " +
                             std::to_string(pos_) + ": " + msg);
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  bool eatStr(const char* s) {
    skipWs();
    size_t len = std::string(s).size();
    if (text_.compare(pos_, len, s) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  bool eat(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Next word without consuming.
  std::string peekWord() {
    skipWs();
    size_t p = pos_;
    std::string w;
    while (p < text_.size()) {
      char c = text_[p];
      if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
          c == '.' || c == '$') {
        w.push_back(c);
        ++p;
      } else {
        break;
      }
    }
    return w;
  }

  CtlRef parseImp() {
    CtlRef lhs = parseOr();
    skipWs();
    if (eatStr("->")) return ctlImplies(std::move(lhs), parseImp());
    return lhs;
  }

  CtlRef parseOr() {
    CtlRef f = parseAnd();
    while (true) {
      skipWs();
      // '->' starts with neither '|' nor '&'; safe to eat single '|'
      if (pos_ < text_.size() && text_[pos_] == '|') {
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '|') ++pos_;
        f = ctlOr(std::move(f), parseAnd());
      } else {
        return f;
      }
    }
  }

  CtlRef parseAnd() {
    CtlRef f = parseUnary();
    while (true) {
      skipWs();
      if (pos_ < text_.size() && text_[pos_] == '&') {
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '&') ++pos_;
        f = ctlAnd(std::move(f), parseUnary());
      } else {
        return f;
      }
    }
  }

  CtlRef parseUnary() {
    skipWs();
    if (eat('!')) return ctlNot(parseUnary());
    if (eat('(')) {
      CtlRef f = parseImp();
      if (!eat(')')) fail("missing ')'");
      return f;
    }
    std::string w = peekWord();
    auto eatWord = [&] { pos_ += w.size(); };
    if (w == "AG") { eatWord(); return ctlAG(parseUnary()); }
    if (w == "AF") { eatWord(); return ctlAF(parseUnary()); }
    if (w == "AX") { eatWord(); return ctlAX(parseUnary()); }
    if (w == "EG") { eatWord(); return ctlEG(parseUnary()); }
    if (w == "EF") { eatWord(); return ctlEF(parseUnary()); }
    if (w == "EX") { eatWord(); return ctlEX(parseUnary()); }
    if (w == "A" || w == "E") {
      eatWord();
      if (!eat('[')) fail("expected '[' after path quantifier");
      CtlRef p = parseImp();
      skipWs();
      if (peekWord() != "U") fail("expected 'U'");
      pos_ += 1;
      CtlRef q = parseImp();
      if (!eat(']')) fail("expected ']'");
      return w == "A" ? ctlAU(std::move(p), std::move(q))
                      : ctlEU(std::move(p), std::move(q));
    }
    if (w == "1" || w == "TRUE" || w == "true") {
      eatWord();
      return ctlTrue();
    }
    if (w == "0" || w == "FALSE" || w == "false") {
      eatWord();
      return ctlFalse();
    }
    if (w.empty()) fail("expected formula");
    // Atom: consume "sig", optionally "=value" / "!=value".
    eatWord();
    skipWs();
    bool negated = false;
    bool hasValue = false;
    if (pos_ + 1 < text_.size() && text_[pos_] == '!' && text_[pos_ + 1] == '=') {
      pos_ += 2;
      negated = true;
      hasValue = true;
    } else if (pos_ < text_.size() && text_[pos_] == '=') {
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] == '=') ++pos_;
      hasValue = true;
    }
    if (!hasValue) return ctlAtom(sigAtom(w));
    std::string v = peekWord();
    if (v.empty()) fail("expected value after comparison");
    pos_ += v.size();
    return ctlAtom(sigAtom(w, v, negated));
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

CtlRef parseCtl(const std::string& text) { return CtlParser(text).parse(); }

Bdd evalPropositional(const CtlRef& f, const Fsm& fsm) {
  switch (f->kind) {
    case CtlFormula::Kind::True:
      return fsm.mgr().bddOne();
    case CtlFormula::Kind::False:
      return fsm.mgr().bddZero();
    case CtlFormula::Kind::Atom:
      return evalSigExpr(*f->atom, fsm);
    case CtlFormula::Kind::Not:
      return !evalPropositional(f->left, fsm);
    case CtlFormula::Kind::And:
      return evalPropositional(f->left, fsm) & evalPropositional(f->right, fsm);
    case CtlFormula::Kind::Or:
      return evalPropositional(f->left, fsm) | evalPropositional(f->right, fsm);
    default:
      throw std::logic_error("evalPropositional: temporal operator");
  }
}

}  // namespace hsis
