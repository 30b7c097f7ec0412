// The state-based simulator (paper Section 1, feature 4) on the 2mdlc
// data-link controller: single-step through the alternating-bit protocol,
// take a random walk, and enumerate the first reachable states.
#include <cstdio>

#include "hsis/session.hpp"
#include "models/models.hpp"

int main() {
  hsis::Session session;
  session.load({hsis::Session::DesignSource::Kind::Verilog,
                std::string(hsis::models::find("2mdlc")->verilog), ""});
  hsis::Simulator sim = session.makeSimulator(/*seed=*/2026);
  const hsis::Fsm& fsm = session.fsm();

  std::printf("initial state:\n  %s\n\n", sim.show().c_str());

  std::printf("successors of the initial state:\n");
  auto succ = sim.successors(4);
  for (size_t i = 0; i < succ.size(); ++i) {
    std::printf("  [%zu] %s\n", i, fsm.formatState(succ[i]).c_str());
  }

  std::printf("\nstepping into successor 0 three times:\n");
  for (int i = 0; i < 3; ++i) {
    sim.step(0);
    std::printf("  step %zu: %s\n", sim.stepsTaken(), sim.show().c_str());
  }

  std::printf("\nrandom walk of 10 steps:\n");
  sim.reset();
  for (int i = 0; i < 10; ++i) {
    if (!sim.randomStep()) break;
    std::printf("  %s\n", sim.show().c_str());
  }

  std::printf("\nbreadth-first enumeration of the first 8 states:\n");
  sim.enumerate(8, [&](const std::vector<int8_t>& s) {
    std::printf("  %s\n", fsm.formatState(s).c_str());
  });

  std::printf("\ntotal reachable states: %.0f\n", sim.reachableCount());
  return 0;
}
