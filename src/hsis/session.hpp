// hsis::Session — the reusable verification session underneath
// hsis::Environment and the hsis_serve worker pool.
//
// A Session owns one BddManager plus everything derived from a loaded
// design (flattened model, FSM, transition relation, CTL checker) and
// answers repeated check requests against it. The paper presents HSIS as an
// interactive environment — load a design once, query it many times — and
// Session is that shape as an object: `load()` is digest-keyed, so loading
// a design that is already resident (same source text) is a no-op that
// skips parse, flatten, and TR construction entirely. That no-op is what
// the hsis_serve compiled-design cache trades on.
//
// Lifecycle:
//   Session s;                       // one manager-slot, reusable forever
//   s.load(src);  -> true            // compiled (cache miss)
//   s.build();                       // flatten + FSM + TR (idempotent)
//   s.check(p); s.check(q); ...      // repeated queries, any order
//   s.load(src); -> false            // same digest: resident, nothing done
//   s.load(other); -> true           // new design: fresh BddManager
//
// Abort safety: a cooperative abort (obs::AbortedError) unwinding out of
// load()/build() leaves the Session *empty* (not resident) so the next
// load() restarts cleanly; an abort out of a check leaves the built design
// resident — the session survives to serve the next request, which is the
// contract the hsis_serve workers rely on.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blifmv/blifmv.hpp"
#include "cov/cov.hpp"
#include "ctl/mc.hpp"
#include "debug/report.hpp"
#include "fsm/fsm.hpp"
#include "fsm/image.hpp"
#include "lc/lc.hpp"
#include "pif/pif.hpp"
#include "sim/simulator.hpp"

namespace hsis {

class Session {
 public:
  struct Options {
    bool partitionedTr = true;
    size_t clusterLimit = 5000;
    QuantMethod quantMethod = QuantMethod::Greedy;
    bool earlyFailureDetection = true;  ///< CTL invariants only
    bool useReachedDontCares = true;
    bool wantTraces = true;
  };

  /// One design input, self-describing enough to compile and to key the
  /// compiled-design cache.
  struct DesignSource {
    enum class Kind : uint8_t { Verilog, BlifMv };
    Kind kind = Kind::Verilog;
    std::string text;
    std::string top;  ///< Verilog top module; empty = first in file

    /// Stable content digest (kind + top + text, FNV-1a hex). Two sources
    /// with equal digests compile to the same design.
    [[nodiscard]] std::string digest() const;
  };

  Session();
  explicit Session(Options options);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- design lifecycle ----
  /// Load a design. Returns false when the same source (by digest) is
  /// already resident and built — nothing is parsed, flattened, or rebuilt.
  /// Returns true when the source was (re)compiled; call build() next.
  bool load(const DesignSource& source);
  /// Drop the design and every derived structure, including the manager
  /// (compiled-design cache eviction). The Session stays usable.
  void unload();
  /// True when a design is loaded and its symbolic machine is built.
  [[nodiscard]] bool resident() const { return fsm_ != nullptr; }
  /// Digest of the loaded source ("" when none).
  [[nodiscard]] const std::string& digest() const { return digest_; }

  // ---- build ----
  /// Flatten the hierarchy and build FSM + TR in a fresh BddManager.
  /// Idempotent: a no-op when already built. Mirrors wall time to the
  /// `env.read.micros` gauge, like the paper's Table-1 "read" column.
  void build();
  [[nodiscard]] bool isBuilt() const { return fsm_ != nullptr; }
  /// Microseconds the last *actual* build took; 0 right after a load()
  /// that found the design resident.
  [[nodiscard]] uint64_t lastBuildMicros() const { return lastBuildMicros_; }
  /// Split of lastBuildMicros(): flatten + FSM elaboration vs transition-
  /// relation construction. Both 0 after a resident-hit load(); the serve
  /// pool reports them as the "parse" and "tr" request stages.
  [[nodiscard]] uint64_t lastFlattenMicros() const {
    return lastFlattenMicros_;
  }
  [[nodiscard]] uint64_t lastTrMicros() const { return lastTrMicros_; }

  // ---- fairness (affects the CTL checker, not the machine) ----
  /// Replace the fairness constraints. The checker is rebuilt lazily only
  /// when the constraints actually changed, so re-submitting the same
  /// request keeps the reached-state computation warm.
  void setFairness(const FairnessSpec& fairness);
  void addFairness(const FairnessSpec& fairness);
  [[nodiscard]] const FairnessSpec& fairness() const { return fairness_; }
  /// Per-request trace switch (rebuilds the checker only on change).
  void setWantTraces(bool want);

  // ---- checks ----
  BugReport checkCtl(const std::string& name, const CtlRef& formula);
  BugReport checkAutomaton(const std::string& name, const Automaton& aut);
  BugReport check(const PifProperty& property);

  /// The bodies of checkCtl/checkAutomaton against an explicit design
  /// machine and checker — a Session's own or a batch worker's replica.
  /// The containment product is built in `design`'s manager, on its
  /// monitor rail and on `checker`'s reached-minimized TR.
  static BugReport checkCtlOn(CtlChecker& checker, const std::string& name,
                              const CtlRef& formula);
  static BugReport checkAutomatonOn(Fsm& design, CtlChecker& checker,
                                    const FairnessSpec& fairness,
                                    const Options& opts,
                                    const std::string& name,
                                    const Automaton& aut);

  // ---- access ----
  [[nodiscard]] const blifmv::Design& design() const { return design_; }
  [[nodiscard]] const blifmv::Model& flatModel() const { return flat_; }
  const Fsm& fsm();
  const TransitionRelation& tr();
  /// The CTL checker with the current fairness applied; valid until the
  /// next load()/setFairness().
  CtlChecker& checker();
  BddManager& manager();
  Simulator makeSimulator(uint64_t seed = 1);
  /// Reachable state count (computed on demand, cached in the checker).
  double reachedStates();
  /// Coverage analysis of the reachable state set (hsis_cov). Reuses the
  /// checker's cached fixpoint and reads its frontier series off the
  /// checker's onion rings; returns a valid-empty disabled report under
  /// HSIS_OBS_DISABLE/HSIS_COV_DISABLE.
  cov::Report coverage(const cov::Options& options = {});
  [[nodiscard]] size_t linesVerilog() const { return linesVerilog_; }
  [[nodiscard]] size_t linesBlifMv() const { return linesBlifMv_; }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }
  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  std::vector<Bdd> ctlFairnessSets();
  [[nodiscard]] std::string checkerKey() const;
  void resetMachine();

  Options opts_;
  blifmv::Design design_;
  blifmv::Model flat_;
  FairnessSpec fairness_;
  std::vector<std::string> notes_;
  std::string digest_;
  size_t linesVerilog_ = 0;
  size_t linesBlifMv_ = 0;
  uint64_t lastBuildMicros_ = 0;
  uint64_t lastFlattenMicros_ = 0;
  uint64_t lastTrMicros_ = 0;

  std::unique_ptr<BddManager> mgr_;
  std::unique_ptr<Fsm> fsm_;
  std::optional<TransitionRelation> tr_;
  std::unique_ptr<CtlChecker> checker_;
  std::string builtCheckerKey_;  ///< fairness+options key checker_ embodies
};

}  // namespace hsis
