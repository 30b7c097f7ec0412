#include "hsis/environment.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace hsis {

namespace {

/// Seconds -> whole microseconds and back: Metrics quantizes through the
/// same integer ticks the env.* registry entries carry, so the two views
/// stay exactly equal (see test_obs MetricsMatchesRegistry).
double roundToMicros(double seconds) {
  if (seconds <= 0) return 0.0;
  return static_cast<double>(
             static_cast<uint64_t>(std::llround(seconds * 1e6))) *
         1e-6;
}

}  // namespace

Environment::Environment() : Environment(Options{}) {}
Environment::Environment(Options options) : session_(options) {}
Environment::~Environment() = default;

void Environment::readVerilog(const std::string& text, const std::string& top) {
  session_.load({Session::DesignSource::Kind::Verilog, text, top});
  metrics_.linesVerilog = session_.linesVerilog();
  metrics_.linesBlifMv = session_.linesBlifMv();
}

void Environment::readBlifMv(const std::string& text) {
  session_.load({Session::DesignSource::Kind::BlifMv, text, ""});
  metrics_.linesVerilog = session_.linesVerilog();
  metrics_.linesBlifMv = session_.linesBlifMv();
}

void Environment::readPif(const std::string& text) {
  PifFile file = parsePif(text);
  for (PifProperty& p : file.properties) properties_.push_back(std::move(p));
  addFairness(file.fairness);
}

void Environment::addFairness(const FairnessSpec& fairness) {
  session_.addFairness(fairness);  // fairness affects the CTL semantics
}

void Environment::build() {
  bool wasBuilt = session_.isBuilt();
  session_.build();
  if (!wasBuilt)
    metrics_.readSeconds =
        static_cast<double>(session_.lastBuildMicros()) * 1e-6;
}

double Environment::reachedStates() {
  metrics_.reachedStates = session_.reachedStates();
  return metrics_.reachedStates;
}

std::string Environment::statsJson() const { return obs::snapshotJson(); }

BugReport Environment::verifyCtl(const std::string& name,
                                 const CtlRef& formula) {
  BugReport report = session_.checkCtl(name, formula);
  metrics_.mcSeconds += roundToMicros(report.seconds);
  ++metrics_.numCtlFormulas;
  return report;
}

BugReport Environment::verifyAutomaton(const std::string& name,
                                       const Automaton& aut) {
  BugReport report = session_.checkAutomaton(name, aut);
  metrics_.lcSeconds += roundToMicros(report.seconds);
  ++metrics_.numLcProps;
  return report;
}

BugReport Environment::verify(const PifProperty& property) {
  if (property.kind == PifProperty::Kind::Ctl) {
    return verifyCtl(property.name, property.ctl);
  }
  return verifyAutomaton(property.name, property.aut);
}

std::vector<BugReport> Environment::verifyAll() {
  std::vector<BugReport> reports;
  reports.reserve(properties_.size());
  for (const PifProperty& p : properties_) reports.push_back(verify(p));
  return reports;
}

}  // namespace hsis
