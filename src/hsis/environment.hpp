// hsis::Environment — the top of the toolflow (paper Figure 1): read a
// design in Verilog or BLIF-MV, read properties and fairness constraints in
// PIF, build the symbolic machine, run both verification paradigms, and
// produce bug reports for the debugger.
//
// Environment is now a thin facade over hsis::Session (session.hpp), which
// owns the BddManager and every structure derived from the design and can
// be pooled/reused by long-lived drivers (hsis_serve). Environment adds
// the batch-oriented surface: a cumulative property list, Table-1-shaped
// Metrics, and verifyAll().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hsis/session.hpp"

namespace hsis {

class Environment {
 public:
  using Options = Session::Options;

  /// Statistics in the shape of the paper's Table 1. Timings come from
  /// hsis_obs wall timers and are mirrored into the process-wide registry
  /// under `env.*` names (env.read.micros, env.mc.micros, env.lc.micros,
  /// env.props.ctl, env.props.lc, env.reached.states).
  struct Metrics {
    size_t linesVerilog = 0;
    size_t linesBlifMv = 0;
    double readSeconds = 0.0;  ///< parse + flatten + relation BDDs + TR
    double reachedStates = 0.0;
    size_t numLcProps = 0;
    size_t numCtlFormulas = 0;
    double lcSeconds = 0.0;
    double mcSeconds = 0.0;
  };

  Environment();
  explicit Environment(Options options);
  ~Environment();
  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  // ---- inputs ----
  /// Compile Verilog through vl2mv; replaces any previous design. Reading
  /// the identical source again is a no-op (the session keeps it resident).
  void readVerilog(const std::string& text, const std::string& top = "");
  /// Read a BLIF-MV design directly.
  void readBlifMv(const std::string& text);
  /// Read properties and fairness constraints (cumulative).
  void readPif(const std::string& text);
  void addFairness(const FairnessSpec& fairness);

  // ---- build ----
  /// Flatten the hierarchy and build the FSM + transition relation. Called
  /// automatically by the verify entry points if needed; idempotent.
  void build();
  [[nodiscard]] bool isBuilt() const { return session_.isBuilt(); }

  // ---- verification ----
  /// Verify every property read so far, in order.
  std::vector<BugReport> verifyAll();
  BugReport verifyCtl(const std::string& name, const CtlRef& formula);
  BugReport verifyAutomaton(const std::string& name, const Automaton& aut);
  BugReport verify(const PifProperty& property);

  // ---- access ----
  [[nodiscard]] const blifmv::Design& design() const {
    return session_.design();
  }
  [[nodiscard]] const blifmv::Model& flatModel() const {
    return session_.flatModel();
  }
  const Fsm& fsm() { return session_.fsm(); }
  const TransitionRelation& tr() { return session_.tr(); }
  /// The CTL checker (fairness constraints applied); valid until the next
  /// read*() call.
  CtlChecker& checker() { return session_.checker(); }
  Simulator makeSimulator(uint64_t seed = 1) {
    return session_.makeSimulator(seed);
  }
  /// Reachable state count (computed on demand).
  double reachedStates();
  /// Coverage analysis of the reachable states (hsis_cov; see cov/cov.hpp).
  cov::Report coverage(const cov::Options& options = {}) {
    return session_.coverage(options);
  }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  /// Full observability snapshot as JSON (hsis-obs-v1): the metrics
  /// registry (bdd.*, fsm.*, ctl.*, lc.*, env.*) plus the nested span
  /// tree with per-phase wall times. Valid (empty) under HSIS_OBS_DISABLE.
  [[nodiscard]] std::string statsJson() const;
  [[nodiscard]] const std::vector<PifProperty>& properties() const {
    return properties_;
  }
  [[nodiscard]] const FairnessSpec& fairness() const {
    return session_.fairness();
  }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return session_.notes();
  }
  /// The underlying reusable session (design + manager lifecycle).
  Session& session() { return session_; }

 private:
  Session session_;
  std::vector<PifProperty> properties_;
  Metrics metrics_;
};

}  // namespace hsis
