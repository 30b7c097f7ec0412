#include "debug/report.hpp"

#include <sstream>

namespace hsis {

std::string renderTrace(const Trace& trace, const Fsm& fsm) {
  std::ostringstream os;
  for (size_t i = 0; i < trace.states.size(); ++i) {
    if (trace.cycleStart == static_cast<int>(i)) os << "  -- cycle --\n";
    os << "  step " << i << ": " << fsm.formatState(trace.states[i]) << "\n";
  }
  if (trace.isLasso()) os << "  (loops back to step " << trace.cycleStart << ")\n";
  return os.str();
}

std::string renderBugReport(const BugReport& report, const Fsm& fsm) {
  std::ostringstream os;
  os << "=== bug report: " << report.propertyName << " ===\n";
  os << "paradigm: "
     << (report.paradigm == BugReport::Paradigm::ModelChecking
             ? "CTL model checking"
             : "language containment")
     << "\n";
  os << "property: " << report.propertyText << "\n";
  os << "result:   " << (report.holds ? "PASS" : "FAIL");
  if (report.usedEarlyFailure) os << " (early failure detection)";
  os << "\n";
  for (const std::string& n : report.notes) os << "note: " << n << "\n";
  if (report.trace.has_value()) {
    os << (report.holds ? "witness:\n" : "error trace:\n");
    os << renderTrace(*report.trace, fsm);
  }
  return os.str();
}

}  // namespace hsis
