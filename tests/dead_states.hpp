// Graph analysis of a property automaton for the LC and proplib tests:
// which monitor states have no accepting continuation. The checker never
// needs it (the fair hull already holds every accepting continuation);
// the tests use it to state what an automaton's shape should be.
#pragma once

#include <cstdint>
#include <vector>

#include "lc/automaton.hpp"

namespace hsis {

/// States from which no run is accepted, every guard assumed satisfiable:
/// for no Rabin pair can they reach an Inf state that lies on a cycle
/// avoiding Fin.
inline std::vector<bool> deadStates(const Automaton& aut) {
  const uint32_t n = aut.numStates();
  std::vector<bool> live(n, false);
  for (const RabinPair& pair : aut.rabinPairs()) {
    std::vector<bool> fin(n, false);
    for (uint32_t s : pair.fin) fin[s] = true;
    // Is s on a cycle that avoids Fin? Search G\Fin from s back to s.
    auto onFinFreeCycle = [&](uint32_t s) {
      std::vector<bool> seen(n, false);
      std::vector<uint32_t> stack{s};
      while (!stack.empty()) {
        uint32_t u = stack.back();
        stack.pop_back();
        for (const Automaton::Edge& e : aut.edges()) {
          if (e.from != u || fin[e.to] || seen[e.to]) continue;
          if (e.to == s) return true;
          seen[e.to] = true;
          stack.push_back(e.to);
        }
      }
      return false;
    };
    std::vector<bool> pairLive(n, false);
    for (uint32_t s : pair.inf)
      if (!fin[s] && onFinFreeCycle(s)) pairLive[s] = true;
    // Live for this pair: can reach such a state through the full graph.
    for (bool changed = true; changed;) {
      changed = false;
      for (const Automaton::Edge& e : aut.edges()) {
        if (pairLive[e.to] && !pairLive[e.from]) {
          pairLive[e.from] = true;
          changed = true;
        }
      }
    }
    for (uint32_t s = 0; s < n; ++s)
      if (pairLive[s]) live[s] = true;
  }
  std::vector<bool> dead(n);
  for (uint32_t s = 0; s < n; ++s) dead[s] = !live[s];
  return dead;
}

}  // namespace hsis
