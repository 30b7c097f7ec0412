// BENCH_<suite>.json: the on-disk baseline format written by hsis_bench
// and diffed by perf_compare.
//
//   {
//     "schema": "hsis-bench-v1",
//     "suite": "table1",
//     "git_sha": "f318b54",
//     "obs_enabled": true,
//     "config": {"repeat": 3, "warmup": 1},
//     "host": {"nproc": 4, "cpu": "Intel(R) Xeon(R) Processor",
//              "loadavg": 0.12, "compiler": "GNU 12.2.0",
//              "build_type": "Release"},
//     "cases": [
//       {"name": "table1/philos",
//        "runs": [{"wall_ms": 12.3, "user_ms": 11.9, "peak_rss_kb": 5120,
//                  "aborted": null}, ...],
//        "wall_ms_min": 12.3,
//        "obs": { ...hsis-obs-v1 snapshot of the fastest run... }},
//       ...
//     ]
//   }
//
// perf_compare treats the per-case MINIMUM wall time as the statistic (the
// min is the least noisy estimator of the true cost under scheduler
// interference); a case regresses when newMin > oldMin * (1 + threshold%).
// Aborted or missing cases are reported but never counted as regressions.
// The host block (absent from older baselines) records where the numbers
// were taken: CPU count and model, the 1-minute load average at the start
// of the run, and the compiler and build type of the binary.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/control.hpp"
#include "obs/jsonlite.hpp"
#include "obs/obs.hpp"

namespace hsisbench {

struct RunStats {
  double wallMs = 0.0;
  double userMs = 0.0;
  uint64_t peakRssKb = 0;
  bool aborted = false;
  std::string abortReason;
  std::string abortPhase;
};

struct CaseResult {
  std::string name;
  std::vector<RunStats> runs;
  /// hsis-obs-v1 snapshot of the fastest measured run, so every figure of
  /// the case comes from the run wall_ms_min names (of the last run when
  /// every run aborted)
  std::string obsJson;

  [[nodiscard]] bool anyAborted() const {
    for (const RunStats& r : runs)
      if (r.aborted) return true;
    return runs.empty();
  }
  [[nodiscard]] double wallMsMin() const {
    double best = 0.0;
    bool first = true;
    for (const RunStats& r : runs) {
      if (r.aborted) continue;
      if (first || r.wallMs < best) best = r.wallMs;
      first = false;
    }
    return best;
  }
  /// Within-run relative spread (max/min - 1, in percent): the case's own
  /// measured wall-time noise. Threaded cases on a loaded host show double
  /// digits here while the serial micros stay in low single digits.
  [[nodiscard]] double wallNoisePct() const {
    double lo = 0.0, hi = 0.0;
    bool first = true;
    for (const RunStats& r : runs) {
      if (r.aborted) continue;
      if (first || r.wallMs < lo) lo = r.wallMs;
      if (first || r.wallMs > hi) hi = r.wallMs;
      first = false;
    }
    return lo > 0.0 ? (hi / lo - 1.0) * 100.0 : 0.0;
  }
  /// Minimum peak RSS over the non-aborted runs — the same least-noise
  /// statistic as wallMsMin (peak RSS only over-reports under interference,
  /// e.g. when an earlier repeat's allocator high-water mark lingers).
  [[nodiscard]] uint64_t peakRssKbMin() const {
    uint64_t best = 0;
    bool first = true;
    for (const RunStats& r : runs) {
      if (r.aborted) continue;
      if (first || r.peakRssKb < best) best = r.peakRssKb;
      first = false;
    }
    return best;
  }
};

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu;
  double loadavg = 0.0;  ///< 1-minute load average when the run started
  std::string compiler;
  std::string buildType;
};

struct BenchDoc {
  std::string suite;
  std::string gitSha;
  bool obsEnabled = hsis::obs::kEnabled;
  int repeat = 0;
  int warmup = 0;
  std::optional<HostInfo> host;
  std::vector<CaseResult> cases;

  [[nodiscard]] const CaseResult* findCase(const std::string& name) const {
    for (const CaseResult& c : cases)
      if (c.name == name) return &c;
    return nullptr;
  }
};

// ------------------------------------------------------------- measurement

inline double userSeconds() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_utime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
}

/// Run `body` (warmup + repeat times) with a clean registry/tracer/abort
/// state per measured run, recording wall/user/peak-RSS. A run that throws
/// AbortedError is recorded as aborted; later repeats are skipped (the
/// whole case would only abort again).
inline CaseResult runCase(const std::string& name,
                          const std::function<void()>& body, int repeat,
                          int warmup) {
  CaseResult result;
  result.name = name;
  for (int w = 0; w < warmup; ++w) {
    try {
      body();
    } catch (const hsis::obs::AbortedError&) {
      // fall through to the measured runs, which will record it
      break;
    }
  }
  for (int r = 0; r < repeat; ++r) {
    hsis::obs::Registry::instance().resetAll();
    hsis::obs::Tracer::instance().clear();
    hsis::obs::clearAbort();
    RunStats stats;
    double user0 = userSeconds();
    hsis::obs::WallTimer wall;
    try {
      body();
      stats.wallMs = wall.seconds() * 1e3;
      stats.userMs = (userSeconds() - user0) * 1e3;
    } catch (const hsis::obs::AbortedError& e) {
      stats.wallMs = wall.seconds() * 1e3;
      stats.userMs = (userSeconds() - user0) * 1e3;
      stats.aborted = true;
      stats.abortReason = e.reason();
      stats.abortPhase = e.phase();
    }
    stats.peakRssKb = hsis::obs::peakRssKb();
    bool aborted = stats.aborted;
    bool fastest = !aborted && (result.obsJson.empty() ||
                                stats.wallMs < result.wallMsMin());
    result.runs.push_back(std::move(stats));
    if (fastest) result.obsJson = hsis::obs::snapshotJson();
    if (aborted) break;
  }
  if (result.obsJson.empty()) result.obsJson = hsis::obs::snapshotJson();
  return result;
}

// -------------------------------------------------------------- JSON write

namespace detail {

inline std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// Indent a pre-rendered JSON document for splicing as a nested value.
inline std::string indentBlock(const std::string& json, int spaces) {
  std::string pad(static_cast<size_t>(spaces), ' ');
  std::string out;
  out.reserve(json.size());
  for (size_t i = 0; i < json.size(); ++i) {
    out += json[i];
    if (json[i] == '\n' && i + 1 < json.size()) out += pad;
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' '))
    out.pop_back();
  return out;
}

}  // namespace detail

inline std::string toJson(const BenchDoc& doc) {
  using hsis::obs::jsonlite::appendQuoted;
  std::string out;
  out.reserve(8192);
  out += "{\n  \"schema\": \"hsis-bench-v1\",\n  \"suite\": ";
  appendQuoted(out, doc.suite);
  out += ",\n  \"git_sha\": ";
  appendQuoted(out, doc.gitSha);
  out += ",\n  \"obs_enabled\": ";
  out += doc.obsEnabled ? "true" : "false";
  out += ",\n  \"config\": {\"repeat\": " + std::to_string(doc.repeat) +
         ", \"warmup\": " + std::to_string(doc.warmup) + "},\n";
  if (doc.host) {
    const HostInfo& h = *doc.host;
    out += "  \"host\": {\"nproc\": " + std::to_string(h.nproc) + ", \"cpu\": ";
    appendQuoted(out, h.cpu);
    out += ", \"loadavg\": " + detail::fmt(h.loadavg) + ", \"compiler\": ";
    appendQuoted(out, h.compiler);
    out += ", \"build_type\": ";
    appendQuoted(out, h.buildType);
    out += "},\n";
  }
  out += "  \"cases\": [";
  for (size_t i = 0; i < doc.cases.size(); ++i) {
    const CaseResult& c = doc.cases[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    appendQuoted(out, c.name);
    out += ",\n     \"runs\": [";
    for (size_t r = 0; r < c.runs.size(); ++r) {
      const RunStats& run = c.runs[r];
      if (r != 0) out += ", ";
      out += "{\"wall_ms\": " + detail::fmt(run.wallMs) +
             ", \"user_ms\": " + detail::fmt(run.userMs) +
             ", \"peak_rss_kb\": " + std::to_string(run.peakRssKb) +
             ", \"aborted\": ";
      if (run.aborted) {
        out += "{\"reason\": ";
        appendQuoted(out, run.abortReason);
        out += ", \"phase\": ";
        appendQuoted(out, run.abortPhase);
        out += "}";
      } else {
        out += "null";
      }
      out += "}";
    }
    out += "],\n     \"wall_ms_min\": " + detail::fmt(c.wallMsMin());
    if (!c.obsJson.empty()) {
      out += ",\n     \"obs\": " + detail::indentBlock(c.obsJson, 5);
    }
    out += "}";
  }
  out += doc.cases.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

// --------------------------------------------------------------- JSON read

/// Parse a BENCH_*.json document. Throws std::runtime_error on malformed
/// input, a wrong schema tag, or a field of the wrong type or range; the
/// message names the field. The nested obs snapshots are kept only as a
/// presence check; compare works on the timing stats.
inline BenchDoc parseBenchJson(const std::string& text) {
  namespace jl = hsis::obs::jsonlite;
  constexpr const char* kSchema = "hsis-bench-v1";
  jl::Value root = jl::parse(text);
  if (!root.isObject()) throw std::runtime_error("bench json: not an object");
  const jl::Object& obj = root.object();
  const jl::Value* schema = jl::find(obj, "schema");
  if (!schema || !schema->isString() || schema->str() != kSchema)
    throw std::runtime_error("bench json: schema is not hsis-bench-v1");
  auto need = [&](const jl::Object& o, const char* key) -> const jl::Value& {
    const jl::Value* v = jl::find(o, key);
    if (!v) jl::fieldError(kSchema, key, "is missing");
    return *v;
  };
  auto string = [&](const jl::Object& o, const char* key) {
    return jl::str(need(o, key), kSchema, key);
  };
  auto each = [&](const jl::Object& o, const char* key) {
    return jl::objects(need(o, key), kSchema, key);
  };
  auto millis = [&](const jl::Object& o, const char* key) {
    double ms = jl::number(need(o, key), kSchema, key);
    if (!(ms >= 0.0)) jl::fieldError(kSchema, key, "is negative");
    return ms;
  };

  BenchDoc doc;
  if (const jl::Value* v = jl::find(obj, "suite"))
    doc.suite = jl::str(*v, kSchema, "suite");
  if (const jl::Value* v = jl::find(obj, "git_sha"))
    doc.gitSha = jl::str(*v, kSchema, "git_sha");
  if (const jl::Value* v = jl::find(obj, "obs_enabled"))
    doc.obsEnabled = jl::boolean(*v, kSchema, "obs_enabled");
  if (const jl::Value* v = jl::find(obj, "config")) {
    const jl::Object& config = jl::object(*v, kSchema, "config");
    if (const jl::Value* r = jl::find(config, "repeat"))
      doc.repeat = jl::integer<int>(*r, kSchema, "repeat");
    if (const jl::Value* w = jl::find(config, "warmup"))
      doc.warmup = jl::integer<int>(*w, kSchema, "warmup");
  }
  if (const jl::Value* v = jl::find(obj, "host")) {
    const jl::Object& ho = jl::object(*v, kSchema, "host");
    HostInfo host;
    host.nproc = jl::integer<unsigned>(need(ho, "nproc"), kSchema, "nproc");
    host.cpu = string(ho, "cpu");
    host.loadavg = jl::number(need(ho, "loadavg"), kSchema, "loadavg");
    host.compiler = string(ho, "compiler");
    host.buildType = string(ho, "build_type");
    doc.host = std::move(host);
  }
  for (const jl::Object* co : each(obj, "cases")) {
    CaseResult c;
    c.name = string(*co, "name");
    for (const jl::Object* ro : each(*co, "runs")) {
      RunStats run;
      run.wallMs = millis(*ro, "wall_ms");
      run.userMs = millis(*ro, "user_ms");
      run.peakRssKb = jl::integer<uint64_t>(need(*ro, "peak_rss_kb"), kSchema,
                                            "peak_rss_kb");
      if (const jl::Value& a = need(*ro, "aborted"); !a.isNull()) {
        const jl::Object& ao = jl::object(a, kSchema, "aborted");
        run.aborted = true;
        run.abortReason = string(ao, "reason");
        run.abortPhase = string(ao, "phase");
      }
      c.runs.push_back(std::move(run));
    }
    if (const jl::Value* v = jl::find(*co, "obs")) {
      (void)jl::object(*v, kSchema, "obs");
      c.obsJson = "{}";  // presence marker; timings are what compare reads
    }
    doc.cases.push_back(std::move(c));
  }
  return doc;
}

// ----------------------------------------------------------------- compare

struct CompareRow {
  std::string name;
  double oldMs = 0.0;
  double newMs = 0.0;
  double ratio = 0.0;    ///< newMs / oldMs (0 when either side is missing)
  bool regression = false;
  uint64_t oldRssKb = 0;
  uint64_t newRssKb = 0;
  double rssRatio = 0.0;  ///< newRss / oldRss (0 when either side missing)
  bool memRegression = false;
  double noisePct = 0.0;  ///< per-case slack applied on top of the threshold
  std::string note;      ///< "", "only in old", "only in new", "aborted"
};

struct CompareResult {
  std::vector<CompareRow> rows;
  int regressions = 0;     ///< wall-time regressions
  int memRegressions = 0;  ///< peak-RSS regressions
};

/// Case-by-case diff of two BENCH docs on min wall time and min peak RSS.
/// `thresholdPct` is the allowed slowdown (10 flags a wall ratio above
/// 1.10); `memThresholdPct` the allowed RSS growth (<= 0 disables the
/// memory dimension). `noiseCapPct` > 0 grants each case extra slack equal
/// to its own measured within-run spread (the larger of the two sides'
/// wallNoisePct), capped at noiseCapPct — so a case whose repeats already
/// scatter by 15% is not flagged at a 10% threshold, while tight serial
/// micros keep the strict limit. Meant for the threaded suites, where
/// scheduler jitter dominates the min statistic.
inline CompareResult compareBench(const BenchDoc& oldDoc,
                                  const BenchDoc& newDoc,
                                  double thresholdPct,
                                  double memThresholdPct = 0.0,
                                  double noiseCapPct = 0.0) {
  CompareResult result;
  double memLimit = 1.0 + memThresholdPct / 100.0;
  for (const CaseResult& oldCase : oldDoc.cases) {
    CompareRow row;
    row.name = oldCase.name;
    const CaseResult* newCase = newDoc.findCase(oldCase.name);
    if (!newCase) {
      row.note = "only in old";
      result.rows.push_back(std::move(row));
      continue;
    }
    if (oldCase.anyAborted() || newCase->anyAborted()) {
      row.note = "aborted";
      result.rows.push_back(std::move(row));
      continue;
    }
    row.oldMs = oldCase.wallMsMin();
    row.newMs = newCase->wallMsMin();
    if (noiseCapPct > 0.0) {
      row.noisePct = std::min(
          noiseCapPct,
          std::max(oldCase.wallNoisePct(), newCase->wallNoisePct()));
    }
    if (row.oldMs > 0.0) {
      row.ratio = row.newMs / row.oldMs;
      row.regression =
          row.ratio > 1.0 + (thresholdPct + row.noisePct) / 100.0;
    }
    row.oldRssKb = oldCase.peakRssKbMin();
    row.newRssKb = newCase->peakRssKbMin();
    if (row.oldRssKb > 0) {
      row.rssRatio =
          static_cast<double>(row.newRssKb) / static_cast<double>(row.oldRssKb);
      row.memRegression = memThresholdPct > 0.0 && row.rssRatio > memLimit;
    }
    if (row.regression) ++result.regressions;
    if (row.memRegression) ++result.memRegressions;
    result.rows.push_back(std::move(row));
  }
  for (const CaseResult& newCase : newDoc.cases) {
    if (oldDoc.findCase(newCase.name)) continue;
    CompareRow row;
    row.name = newCase.name;
    row.newMs = newCase.wallMsMin();
    row.newRssKb = newCase.peakRssKbMin();
    row.note = "only in new";
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace hsisbench
