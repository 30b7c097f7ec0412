// Bug reports (paper Figure 1): the artifact handed from the verifier to
// the debugger. Renders results of either paradigm as text.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ctl/mc.hpp"
#include "fsm/trace.hpp"
#include "lc/lc.hpp"

namespace hsis {

struct BugReport {
  enum class Paradigm : uint8_t { ModelChecking, LanguageContainment };
  Paradigm paradigm = Paradigm::ModelChecking;
  std::string propertyName;
  std::string propertyText;
  bool holds = false;
  std::optional<Trace> trace;
  std::vector<std::string> notes;
  double seconds = 0.0;
  bool usedEarlyFailure = false;
};

/// Render a report, decoding trace states against the given FSM (the design
/// FSM for MC, the product FSM for LC).
std::string renderBugReport(const BugReport& report, const Fsm& fsm);

/// Render a trace alone. Source-level debugging (paper Section 8, item
/// 7) — each latch attributed to its HDL line — is the hsis-cex-v1
/// artifact's view (cex/cex.hpp: build + renderMarkdown).
std::string renderTrace(const Trace& trace, const Fsm& fsm);

}  // namespace hsis
