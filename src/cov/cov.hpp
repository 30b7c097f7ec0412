// hsis_cov: BDD-backed verification coverage.
//
// Three layers on top of the reachability fixpoint:
//  1. Structural coverage — per-latch value occupancy (which domain values
//     each latch ever takes in the reached set), the reachable fraction of
//     the full state space via BDD sat-counting, and the per-depth
//     new-state frontier series, counted from the fixpoint's onion rings
//     when a report is built (reachability itself counts no states).
//  2. Coverpoints and bins — named SigExpr predicates over latches and
//     inputs, evaluated symbolically against the reached BDD and (for
//     state-only bins) concretely by exhaustive simulator enumeration, with
//     a differential check between the two counts.
//  3. Reporting — the hsis-cov-v1 JSON artifact, a markdown renderer with
//     occupancy-threshold gating (hsis_report coverage), and obs metrics.
//
// Everything folds to a valid-empty no-op under HSIS_OBS_DISABLE builds or
// when HSIS_COV_DISABLE is set in the environment (the runtime A/B toggle
// used for the overhead measurement in EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fsm/image.hpp"
#include "pif/sigexpr.hpp"

namespace hsis::cov {

/// Master switch: true when the obs layer is compiled in and
/// HSIS_COV_DISABLE is not set. analyze() returns a valid-empty disabled
/// Report when false, so callers never need to branch.
bool coverageEnabled();

// ---- coverpoint specification ----

/// One bin: a named predicate over design signals. The bin is "hit" when
/// some reachable state (for some input, if the expression mentions
/// inputs) satisfies the predicate.
struct BinSpec {
  std::string name;
  SigExprRef expr;
};

/// A named group of bins, mirroring a functional-coverage coverpoint.
struct PointSpec {
  std::string name;
  std::vector<BinSpec> bins;
};

/// One bin per domain value of the signal, named after the value
/// ("coverpoint NAME auto SIGNAL" in the spec language). Throws
/// std::runtime_error for unknown signals.
PointSpec autoPoint(const Fsm& fsm, const std::string& signal);

/// Cross product of two coverpoints: one bin per pair, named "a/b".
PointSpec crossPoint(const PointSpec& a, const PointSpec& b,
                     std::string name = "");

/// The default battery: one auto coverpoint per latch.
std::vector<PointSpec> defaultPoints(const Fsm& fsm);

/// Parse a coverage spec file. Grammar (one declaration per statement,
/// '#' comments to end of line):
///   coverpoint NAME { bin NAME = EXPR; ... }
///   coverpoint NAME auto SIGNAL
///   cross NAME = POINT, POINT
/// where EXPR is the SigExpr language and POINT names a previously
/// declared coverpoint. Throws std::runtime_error on syntax or unknown
/// signal/point errors.
std::vector<PointSpec> parseCoverSpec(const std::string& text,
                                      const Fsm& fsm);

// ---- results ----

/// Which values of one latch's domain appear in the reached set.
struct LatchOccupancy {
  std::string latch;
  uint32_t domain = 0;
  std::vector<std::string> valueNames;  ///< one per domain value
  std::vector<bool> valueReached;       ///< one per domain value
  uint32_t reachedValues = 0;
  [[nodiscard]] double pct() const {
    return domain == 0 ? 100.0 : 100.0 * reachedValues / domain;
  }
};

/// One step of the reachability frontier time series.
struct FrontierPoint {
  size_t depth = 0;
  double newStates = 0.0;    ///< states first reached at this depth
  double totalStates = 0.0;  ///< cumulative reached states through this depth
};

struct BinResult {
  std::string name;
  std::string expr;  ///< SigExpr::toString of the predicate
  bool symbolicHit = false;
  /// Reached states satisfying the bin (for some input when the expression
  /// mentions inputs), by BDD sat-count.
  double symbolicStates = 0.0;
  /// False when the expression mentions inputs or combinational nets — the
  /// state enumerator cannot evaluate those, so the bin is symbolic-only.
  bool simEvaluable = true;
  /// Concrete hit count from simulator enumeration; -1 when not evaluated
  /// (simMaxStates == 0, enumeration not exhaustive, or not simEvaluable).
  int64_t simHits = -1;
};

struct PointResult {
  std::string name;
  std::vector<BinResult> bins;
  size_t binsHit = 0;
};

struct Report {
  /// False when coverage was disabled; all other fields are then empty.
  bool enabled = false;
  std::string design;
  double reachableStates = 0.0;
  double stateSpace = 0.0;  ///< product of all latch domains
  [[nodiscard]] double stateFraction() const {
    return stateSpace <= 0.0 ? 0.0 : reachableStates / stateSpace;
  }
  uint64_t valuesTotal = 0;    ///< Σ latch domains
  uint64_t valuesReached = 0;  ///< Σ per-latch reached values
  uint64_t binsTotal = 0;
  uint64_t binsHit = 0;
  size_t depth = 0;  ///< reachability fixpoint depth (frontier.size()-1)
  std::vector<LatchOccupancy> latches;
  std::vector<FrontierPoint> frontier;
  std::vector<PointResult> points;
  /// States visited by the concrete differential pass (0 = skipped).
  uint64_t simStates = 0;
  /// True when the enumeration covered every reachable state, making the
  /// differential comparison meaningful.
  bool simExhaustive = false;
  /// True when every sim-evaluable bin's concrete count matches its
  /// symbolic sat-count (vacuously true when the pass was skipped or not
  /// exhaustive).
  bool simAgrees = true;
};

struct Options {
  /// Coverpoints to evaluate; empty means defaultPoints(fsm).
  std::vector<PointSpec> points;
  /// Enumerate up to this many concrete states for the differential check
  /// (0 = symbolic only). The comparison is only scored when the
  /// enumeration exhausted the reachable set.
  size_t simMaxStates = 0;
  uint64_t simSeed = 1;
};

/// Analyze coverage of the reached state set (a BDD over present-state
/// variables, as produced by reachableStates or CtlChecker::reached).
/// `onionRings` are that fixpoint's rings (ReachResult::onionRings,
/// CtlChecker::onionRings): frontier[d].newStates is the state count of
/// ring d, all rings counted in one walk. No rings, no frontier series.
Report analyze(const Fsm& fsm, const TransitionRelation& tr,
               const Bdd& reached, std::span<const Bdd> onionRings,
               const Options& opts = {});

// ---- reporting ----

/// Serialize as an hsis-cov-v1 JSON document (single line, no trailing
/// newline).
std::string reportToJson(const Report& r);

/// Parse an hsis-cov-v1 document back (for hsis_report coverage). Throws
/// std::runtime_error on malformed input or schema mismatch.
Report parseReportJson(const std::string& text);

struct RenderOptions {
  /// When >= 0, append a gating section listing latches whose occupancy
  /// pct() is below the threshold.
  double threshold = -1.0;
};

/// Render a markdown coverage report.
std::string renderReport(const Report& r, const RenderOptions& opts = {});

/// Number of latches whose occupancy is below `thresholdPct` (the
/// hsis_report coverage --threshold gate).
size_t latchesBelow(const Report& r, double thresholdPct);

}  // namespace hsis::cov
