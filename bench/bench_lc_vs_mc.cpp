// Paper Section 5.2, point 3: "language containment is faster in general;
// however, CTL model checking is more efficient for invariance properties,
// since we have optimized the model checker with respect to these".
//
// For each design we pose the same invariance property to both paradigms,
// and (where the design has one) the same liveness property, and report the
// verification time of each.
#include <chrono>
#include <cstdio>
#include <string>

#include "hsis/environment.hpp"
#include "models/models.hpp"

#include "obs/control.hpp"

using clock_type = std::chrono::steady_clock;

namespace {

struct Row {
  const char* design;
  const char* kind;
  const char* ctl;           // formula text
  const char* automaton;     // PIF automaton block
  const char* fairness;      // PIF fairness block (may be "")
};

// Matched property pairs: the CTL formula and the automaton express the
// same requirement.
const Row kRows[] = {
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

}  // namespace

int main(int argc, char** argv) {
  hsis::obs::initDriverObs(argc, argv, {.driverName = "bench_lc_vs_mc"});
  return hsis::obs::driverGuard([&] {
  std::printf("LC vs MC on matched properties (seconds, verdicts agree)\n");
  std::printf("%-10s %-10s %10s %10s %8s\n", "design", "kind", "mc(s)",
              "lc(s)", "verdict");

  for (const Row& row : kRows) {
    const auto* model = hsis::models::find(row.design);
    hsis::Environment env;
    env.readVerilog(std::string(model->verilog), std::string(model->top));
    if (row.fairness[0] != '\0') env.readPif(row.fairness);
    env.build();
    env.reachedStates();  // shared setup outside the timed region

    hsis::PifFile ctlProp = hsis::parsePif(row.ctl);
    auto t0 = clock_type::now();
    hsis::BugReport mc = env.verify(ctlProp.properties.at(0));
    double mcS = std::chrono::duration<double>(clock_type::now() - t0).count();

    hsis::PifFile autProp = hsis::parsePif(row.automaton);
    t0 = clock_type::now();
    hsis::BugReport lc = env.verify(autProp.properties.at(0));
    double lcS = std::chrono::duration<double>(clock_type::now() - t0).count();

    std::printf("%-10s %-10s %10.3f %10.3f %8s%s\n", row.design, row.kind,
                mcS, lcS, mc.holds ? "PASS" : "FAIL",
                mc.holds == lc.holds ? "" : "  (MISMATCH!)");
  }
  std::printf(
      "\n(note: both reuse the resident design; each LC check adds one\n"
      " monitor cluster and runs one fair hull over design reached x\n"
      " monitor domain, with no product reach, while MC answers\n"
      " invariants from the cached reached set)\n");
  return 0;
  });
}
