// The interactive model-checking debugger (paper Section 6.2) on the
// Gigamax cache-consistency model: seed a protocol bug, watch a property
// fail, then unfold the formula one step at a time.
//
// Run with no arguments for a scripted session (always picks choice 0);
// pass "-i" to drive the choices from stdin.
#include <cstdio>
#include <cstring>

#include "debug/mcdebug.hpp"
#include "hsis/session.hpp"
#include "models/models.hpp"

int main(int argc, char** argv) {
  bool interactive = argc > 1 && std::strcmp(argv[1], "-i") == 0;

  // Seed a bug into the Gigamax model: snooping a foreign read_shared no
  // longer demotes an owner, so two conflicting copies can coexist.
  std::string verilog(hsis::models::find("gigamax")->verilog);
  const char* good = "if (st == owned) st <= shared;   // supply data, demote";
  size_t pos = verilog.find(good);
  if (pos == std::string::npos) {
    std::fprintf(stderr, "could not seed the bug\n");
    return 1;
  }
  verilog.replace(pos, std::strlen(good), "st <= st;  // BUG: no demotion");

  hsis::Session session;
  session.load({hsis::Session::DesignSource::Kind::Verilog, verilog, ""});
  hsis::CtlRef property = hsis::parseCtl(
      "AG ((p0.st=owned -> (p1.st=invalid & p2.st=invalid)) & "
      "(p1.st=owned -> (p0.st=invalid & p2.st=invalid)))");
  hsis::BugReport report =
      session.checkCtl("owner_excludes_others", property);
  std::printf("property %s: %s\n\n", report.propertyName.c_str(),
              report.holds ? "PASS" : "FAIL");
  if (report.holds) return 0;

  hsis::McDebugSession dbg(session.checker(), property);
  for (int depth = 0; depth < 12; ++depth) {
    std::printf("%s\n", dbg.describe().c_str());
    if (dbg.atLeaf()) {
      std::printf("-- reached an atomic obligation; debugging complete --\n");
      break;
    }
    const auto& choices = dbg.choices();
    for (size_t i = 0; i < choices.size(); ++i) {
      std::printf("  [%zu] %s\n", i, choices[i].description.c_str());
    }
    size_t pick = 0;
    if (interactive) {
      std::printf("choice> ");
      if (std::scanf("%zu", &pick) != 1) break;
    } else {
      std::printf("(auto-choosing 0)\n");
    }
    if (!dbg.choose(pick)) break;
  }

  std::printf("\npath walked while debugging:\n");
  for (const auto& s : dbg.pathSoFar()) {
    std::printf("  %s\n", session.fsm().formatState(s).c_str());
  }
  return 0;
}
