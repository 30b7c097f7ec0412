// The paper's hand-built case tables, shared by hsis_bench (which times
// them) and hsis_tests (which checks their verdicts):
//
//  - kSeededBugs (Section 5.4, early failure detection): one bug seeded
//    into each of four bundled designs by a source patch, with the
//    invariant it breaks;
//  - kMatchedPairs (Section 5.2, LC vs MC): one requirement stated both as
//    a CTL formula and as an automaton, which must get the same verdict.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

#include "hsis/session.hpp"
#include "models/models.hpp"

namespace hsisbench {

struct SeededBug {
  const char* design;
  const char* patchFrom;  ///< substring of the design's Verilog to replace
  const char* patchTo;
  const char* property;   ///< invariant the patched design fails
};

inline constexpr SeededBug kSeededBugs[] = {
    // gigamax: owners are no longer demoted on foreign read_shared, so an
    // owner and a sharer can coexist
    {"gigamax", "if (st == owned) st <= shared;   // supply data, demote",
     "st <= st;",
     "AG ((p0.st=owned -> (p1.st=invalid & p2.st=invalid)) & "
     "(p1.st=owned -> (p0.st=invalid & p2.st=invalid)) & "
     "(p2.st=owned -> (p0.st=invalid & p1.st=invalid)))"},
    // dcnew: grants ignore the busy bus
    {"dcnew", "assign g1 = busfree && r1 && !r0;", "assign g1 = r1;",
     "AG (!(ch0.st=transfer & ch1.st=transfer) & !(ch1.st=transfer & "
     "ch2.st=transfer) & !(ch0.st=transfer & ch2.st=transfer))"},
    // scheduler: cell 3 spuriously re-creates the token
    {"scheduler", "cell c3(s2, s3, b3);",
     "cell #(.HASTOKEN(1)) c3(s2, s3, b3);",
     "AG !(c0.token=1 & c3.token=1)"},
    // 2mdlc: the receiver stops checking the checksum on link 0
    {"2mdlc", "assign rok = ch_valid && (rx_crc == ch_crc);",
     "assign rok = ch_valid;", "AG (l0.err=0 & l1.err=0)"},
};

/// The design's Verilog with the bug patched in. Throws when the patch
/// site is gone, so an edited design never silently stands in for the
/// buggy one.
inline std::string seededVerilog(const SeededBug& bug) {
  std::string verilog(hsis::models::find(bug.design)->verilog);
  size_t pos = verilog.find(bug.patchFrom);
  if (pos == std::string::npos)
    throw std::runtime_error("seeded bug: patch site not found in " +
                             std::string(bug.design) + ": " + bug.patchFrom);
  verilog.replace(pos, std::string(bug.patchFrom).size(), bug.patchTo);
  return verilog;
}

/// Load `verilog` (top module `top`) into `session` and build it.
inline void loadVerilog(hsis::Session& session, std::string verilog,
                        std::string_view top) {
  hsis::Session::DesignSource src;
  src.kind = hsis::Session::DesignSource::Kind::Verilog;
  src.text = std::move(verilog);
  src.top = std::string(top);
  session.load(src);
  session.build();
}

struct SeededRun {
  bool holds = true;
  size_t steps = 0;  ///< reachability steps the check took
};

/// Check a seeded bug's invariant on `verilog` (from seededVerilog) in a
/// fresh session, with early failure detection on or off.
inline SeededRun checkSeeded(const SeededBug& bug, const std::string& verilog,
                             bool earlyFailureDetection) {
  hsis::Session::Options opts;
  opts.earlyFailureDetection = earlyFailureDetection;
  opts.wantTraces = false;
  hsis::Session session(opts);
  loadVerilog(session, verilog, hsis::models::find(bug.design)->top);
  SeededRun run;
  run.holds = session.checkCtl("seeded", hsis::parseCtl(bug.property)).holds;
  run.steps = session.checker().lastStats().reachabilitySteps;
  return run;
}

struct MatchedPair {
  const char* design;
  const char* kind;       ///< "invariance" or "liveness"
  const char* ctl;        ///< PIF ctl block
  const char* automaton;  ///< PIF automaton block, same requirement
  const char* fairness;   ///< PIF fairness block, "" when none
};

inline constexpr MatchedPair kMatchedPairs[] = {
    {"pingpong", "invariance",
     R"PIF(ctl p "AG !(ball=ping_side & ball=pong_side)";)PIF",
     R"PIF(automaton p { state ok init; state bad;
        edge ok -> ok on "!(ping_has & pong_has)";
        edge ok -> bad on "ping_has & pong_has";
        edge bad -> bad on "1"; accept stay ok; })PIF",
     R"PIF(fairness { nostay "ball=ping_side"; nostay "ball=pong_side"; })PIF"},
    {"pingpong", "liveness",
     R"PIF(ctl p "AG AF ball=pong_side";)PIF",
     R"PIF(automaton p { state wait init; state seen;
        edge wait -> seen on "pong_has"; edge wait -> wait on "!pong_has";
        edge seen -> wait on "!pong_has"; edge seen -> seen on "pong_has";
        accept buchi seen; })PIF",
     R"PIF(fairness { nostay "ball=ping_side"; nostay "ball=pong_side"; })PIF"},
    {"gigamax", "invariance",
     R"PIF(ctl p "AG (!(p0.st=owned & p1.st=owned) & !(p1.st=owned & p2.st=owned) & !(p0.st=owned & p2.st=owned))";)PIF",
     R"PIF(automaton p { state ok init; state bad;
        edge ok -> ok on "!two_owners";
        edge ok -> bad on "two_owners";
        edge bad -> bad on "1"; accept stay ok; })PIF",
     ""},
    {"scheduler", "liveness",
     R"PIF(ctl p "AG AF c0.running=1";)PIF",
     R"PIF(automaton p { state wait init; state seen;
        edge wait -> seen on "c0.running=1"; edge wait -> wait on "!(c0.running=1)";
        edge seen -> wait on "!(c0.running=1)"; edge seen -> seen on "c0.running=1";
        accept buchi seen; })PIF",
     R"PIF(fairness { nostay "c0.running=1"; nostay "c1.running=1";
        nostay "c2.running=1"; nostay "c3.running=1"; nostay "c4.running=1";
        nostay "c5.running=1"; nostay "c6.running=1"; nostay "c7.running=1";
        nostay "c8.running=1"; nostay "c9.running=1"; })PIF"},
    {"dcnew", "invariance",
     R"PIF(ctl p "AG (!(ch0.st=transfer & ch1.st=transfer) & !(ch1.st=transfer & ch2.st=transfer) & !(ch0.st=transfer & ch2.st=transfer))";)PIF",
     R"PIF(automaton p { state ok init; state bad;
        edge ok -> ok on "!((t0 & t1) | (t1 & t2) | (t0 & t2))";
        edge ok -> bad on "(t0 & t1) | (t1 & t2) | (t0 & t2)";
        edge bad -> bad on "1"; accept stay ok; })PIF",
     ""},
    {"2mdlc", "invariance",
     R"PIF(ctl p "AG (l0.err=0 & l1.err=0)";)PIF",
     R"PIF(automaton p { state ok init; state bad;
        edge ok -> ok on "!(l0.err=1 | l1.err=1)";
        edge ok -> bad on "l0.err=1 | l1.err=1";
        edge bad -> bad on "1"; accept stay ok; })PIF",
     ""},
    {"2mdlc", "liveness",
     R"PIF(ctl p "AG AF l0.deliver=1";)PIF",
     R"PIF(automaton p { state wait init; state seen;
        edge wait -> seen on "l0.deliver=1"; edge wait -> wait on "!(l0.deliver=1)";
        edge seen -> wait on "!(l0.deliver=1)"; edge seen -> seen on "l0.deliver=1";
        accept buchi seen; })PIF",
     R"PIF(fairness { buchi "l0.acked=1"; buchi "l1.acked=1"; })PIF"},
};

/// Check the pair's requirement in a fresh session with its fairness, as
/// the CTL formula (`asCtl`) or as the automaton. Reachability runs before
/// the check, so env.mc.micros / env.lc.micros time the check alone.
inline hsis::BugReport checkMatched(const MatchedPair& pair, bool asCtl) {
  const hsis::models::ModelDef* model = hsis::models::find(pair.design);
  hsis::Session session;
  loadVerilog(session, std::string(model->verilog), model->top);
  if (pair.fairness[0] != '\0')
    session.setFairness(hsis::parsePif(pair.fairness).fairness);
  (void)session.reachedStates();
  hsis::PifFile pif = hsis::parsePif(asCtl ? pair.ctl : pair.automaton);
  return session.check(pif.properties.at(0));
}

}  // namespace hsisbench
