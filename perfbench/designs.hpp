// Benchmark inputs: the six bundled Table-1 designs (read from models/) and
// generated N-replica designs (scheduler-N, philos-N) whose verdicts and
// reachable-state counts are known by construction.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Expected {
  std::string property;
  bool holds = false;
};

struct Design {
  std::string name;     ///< "gigamax", "scheduler-40", ...
  std::string verilog;  ///< design text handed to vl2mv
  std::string top;      ///< top module ("" = first in file)
  std::string pif;      ///< properties + fairness
  double reached = 0;   ///< expected reachable-state count
  std::vector<Expected> verdicts;  ///< in PIF order
};

/// The Table-1 suite read from `modelsDir`, with the 40 pinned verdicts
/// and the reached counts recorded in EXPERIMENTS.md. Throws when a file
/// is missing.
std::vector<Design> table1Designs(const std::string& modelsDir);

/// Milner's cyclic scheduler with `n` cells, the bundled design's cell.
/// Reaches n * 5^n states. `wide` emits the 8-property batch PIF instead of
/// the bundled 1 CTL + 2 LC mix.
Design scheduler(int n, bool wide);

/// `n` dining philosophers, the bundled design's philosopher. The reached
/// count is the number of ring configurations in which no fork is used by
/// both neighbours. `wide` emits the 8-property batch PIF instead of the
/// bundled 2 CTL + 2 LC mix.
Design philos(int n, bool wide);

}  // namespace perfbench
