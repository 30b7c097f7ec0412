// Run ledger: JSONL append with flock, jsonlite-based queries, diff /
// regression analysis, report rendering, and the crash-armed record. See
// ledger.hpp. Compiled identically under HSIS_OBS_DISABLE.
#include "obs/ledger.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/jsonlite.hpp"
#include "obs/obs.hpp"

namespace hsis::obs::ledger {

constexpr std::string_view kSchema = "hsis-ledger-v1";

// ---------------------------------------------------------------- identity

std::string runId() {
  static const std::string id = [] {
    return std::to_string(static_cast<long long>(::time(nullptr))) + "-" +
           std::to_string(::getpid());
  }();
  return id;
}

std::string timestampUtc() {
  std::time_t now = ::time(nullptr);
  std::tm tm{};
  ::gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string digestOf(std::string_view text) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// --------------------------------------------------------------- rendering

std::string toJsonl(const Record& r) {
  std::string out;
  out.reserve(320);
  jsonlite::Writer w(out);
  w.beginObject().key("schema").value(kSchema);
  w.key("run_id").value(r.runId).key("time").value(r.time);
  w.key("driver").value(r.driver).key("subject").value(r.subject);
  w.key("result").value(r.result).key("detail").value(r.detail);
  w.key("digest").value(r.digest).key("wall_s").value(r.wallSeconds);
  w.key("peak_rss_kb").value(r.peakRssKb).key("git_sha").value(r.gitSha);
  w.key("config").value(r.config);
  // Request-telemetry fields are optional so non-serve records (and every
  // record written before them) keep their exact shape. They must stay
  // BEFORE "signal": armCrashRecord splits the line at `"signal": null}`.
  if (!r.traceId.empty()) w.key("trace_id").value(r.traceId);
  if (!r.stages.empty()) {
    w.key("stages").beginObject();
    for (const auto& [name, micros] : r.stages) w.key(name).value(micros);
    w.endObject();
  }
  if (r.hasCoverage) {
    w.key("coverage").beginObject();
    w.key("state_fraction").value(r.covStateFraction);
    w.key("values_reached").value(r.covValuesReached);
    w.key("values_total").value(r.covValuesTotal);
    w.key("bins_hit").value(r.covBinsHit);
    w.key("bins_total").value(r.covBinsTotal).endObject();
  }
  if (!r.cexPath.empty()) {
    w.key("cex").beginObject().key("path").value(r.cexPath);
    w.key("replay").value(r.cexReplay).endObject();
  }
  w.key("obs_enabled").value(r.obsEnabled).key("signal");
  if (r.signalName.empty()) {
    w.value(nullptr);
  } else {
    w.value(r.signalName);
  }
  w.endObject();
  return out;
}

// ------------------------------------------------------------------ append

std::string resolvePath(const std::string& flagValue) {
  std::string path = flagValue;
  if (path.empty()) {
    if (const char* env = std::getenv("HSIS_LEDGER"); env != nullptr)
      path = env;
  }
  if (path == "none") return "";
  if (!path.empty()) return path;
  const char* home = std::getenv("HOME");
  if (home == nullptr || *home == '\0') return "";
  return std::string(home) + "/.hsis/ledger.jsonl";
}

bool append(const std::string& path, const Record& record) {
  if (path.empty()) return true;
  std::error_code ec;
  std::filesystem::path p(path);
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), ec);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "ledger: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line = toJsonl(record) + "\n";
  // flock serializes whole-line appends across processes; O_APPEND already
  // makes the single write atomic on local filesystems, the lock covers
  // network mounts and any future multi-write records.
  (void)::flock(fd, LOCK_EX);
  size_t off = 0;
  bool ok = true;
  while (off < line.size()) {
    ssize_t w = ::write(fd, line.data() + off, line.size() - off);
    if (w <= 0) {
      ok = false;
      break;
    }
    off += static_cast<size_t>(w);
  }
  (void)::flock(fd, LOCK_UN);
  ::close(fd);
  if (!ok) std::fprintf(stderr, "ledger: short write to %s\n", path.c_str());
  return ok;
}

// ------------------------------------------------------------------- query

namespace {

/// False for a foreign line; throws on a torn or malformed one.
bool readLine(std::string_view line, Record& r) {
  namespace jl = jsonlite;
  jl::Value root = jl::parse(line);
  if (!root.isObject()) return false;
  const jl::Object& o = root.object();
  const jl::Value* schema = jl::find(o, "schema");
  if (schema == nullptr || !schema->isString() || schema->str() != kSchema)
    return false;
  auto str = [&](const char* key, std::string& dst) {
    if (const jl::Value* v = jl::find(o, key); v != nullptr && v->isString())
      dst = v->str();
  };
  str("run_id", r.runId);
  str("time", r.time);
  str("driver", r.driver);
  str("subject", r.subject);
  str("result", r.result);
  str("detail", r.detail);
  str("digest", r.digest);
  str("git_sha", r.gitSha);
  str("config", r.config);
  str("trace_id", r.traceId);
  str("signal", r.signalName);
  if (const jl::Value* v = jl::find(o, "stages");
      v != nullptr && v->isObject()) {
    // jsonlite objects are key-sorted maps; stage-name keys happen to sort
    // usefully, but consumers must not rely on pipeline order here.
    for (const auto& [name, val] : v->object())
      r.stages.emplace_back(name, jl::integer<uint64_t>(val, kSchema, name));
  }
  if (const jl::Value* v = jl::find(o, "coverage");
      v != nullptr && v->isObject()) {
    const jl::Object& cov = v->object();
    r.hasCoverage = true;
    auto count = [&](const char* key) -> uint64_t {
      const jl::Value* f = jl::find(cov, key);
      return f == nullptr ? 0 : jl::integer<uint64_t>(*f, kSchema, key);
    };
    if (const jl::Value* f = jl::find(cov, "state_fraction");
        f != nullptr && f->isNumber())
      r.covStateFraction = f->number();
    r.covValuesReached = count("values_reached");
    r.covValuesTotal = count("values_total");
    r.covBinsHit = count("bins_hit");
    r.covBinsTotal = count("bins_total");
  }
  if (const jl::Value* v = jl::find(o, "cex"); v != nullptr && v->isObject()) {
    const jl::Object& cex = v->object();
    if (const jl::Value* f = jl::find(cex, "path");
        f != nullptr && f->isString())
      r.cexPath = f->str();
    if (const jl::Value* f = jl::find(cex, "replay");
        f != nullptr && f->isString())
      r.cexReplay = f->str();
  }
  if (const jl::Value* v = jl::find(o, "wall_s"); v != nullptr && v->isNumber())
    r.wallSeconds = v->number();
  if (const jl::Value* v = jl::find(o, "peak_rss_kb"); v != nullptr)
    r.peakRssKb = jl::integer<uint64_t>(*v, kSchema, "peak_rss_kb");
  if (const jl::Value* v = jl::find(o, "obs_enabled");
      v != nullptr && !v->isNull())
    r.obsEnabled = v->boolean();
  return true;
}

bool parseLine(std::string_view line, Record& r) {
  try {
    return readLine(line, r);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::vector<Record> parse(std::string_view text, size_t* skipped) {
  std::vector<Record> out;
  size_t bad = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    // Trim trailing CR and skip blanks.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.remove_suffix(1);
    if (line.empty()) continue;
    Record r;
    if (parseLine(line, r)) {
      out.push_back(std::move(r));
    } else {
      ++bad;
    }
  }
  if (skipped != nullptr) *skipped = bad;
  return out;
}

std::vector<Record> load(const std::string& path, size_t* skipped) {
  std::ifstream in(path);
  if (!in) {
    if (skipped != nullptr) *skipped = 0;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), skipped);
}

// -------------------------------------------------------------------- diff

namespace {

/// Distinct run ids in first-appearance (i.e. chronological append) order.
std::vector<std::string> runIdsInOrder(const std::vector<Record>& records) {
  std::vector<std::string> ids;
  for (const Record& r : records) {
    if (std::find(ids.begin(), ids.end(), r.runId) == ids.end())
      ids.push_back(r.runId);
  }
  return ids;
}

/// subject -> last record of that subject within the given run id.
std::map<std::string, const Record*> bySubject(
    const std::vector<Record>& records, const std::string& runId) {
  std::map<std::string, const Record*> out;
  for (const Record& r : records) {
    if (r.runId == runId) out[r.subject] = &r;
  }
  return out;
}

DiffResult diffRuns(const std::vector<Record>& records,
                    const std::string& oldRun, const std::string& newRun,
                    double wallPct, double rssPct) {
  DiffResult result;
  result.oldLabel = oldRun;
  result.newLabel = newRun;
  const double wallLimit = 1.0 + wallPct / 100.0;
  const double rssLimit = 1.0 + rssPct / 100.0;
  auto olds = bySubject(records, oldRun);
  auto news = bySubject(records, newRun);
  for (const auto& [subject, oldRec] : olds) {
    DiffRow row;
    row.subject = subject;
    auto it = news.find(subject);
    if (it == news.end()) {
      row.note = "only in old";
      result.rows.push_back(std::move(row));
      continue;
    }
    const Record* newRec = it->second;
    if (oldRec->result == "aborted" || oldRec->result == "crashed" ||
        newRec->result == "aborted" || newRec->result == "crashed") {
      row.note = newRec->result == "pass" || newRec->result == "completed"
                     ? oldRec->result
                     : newRec->result;
      result.rows.push_back(std::move(row));
      continue;
    }
    row.oldWallS = oldRec->wallSeconds;
    row.newWallS = newRec->wallSeconds;
    row.oldRssKb = oldRec->peakRssKb;
    row.newRssKb = newRec->peakRssKb;
    if (row.oldWallS > 0.0) {
      row.wallRatio = row.newWallS / row.oldWallS;
      row.wallRegression = wallPct > 0.0 && row.wallRatio > wallLimit;
    }
    if (row.oldRssKb > 0) {
      row.rssRatio = static_cast<double>(row.newRssKb) /
                     static_cast<double>(row.oldRssKb);
      row.rssRegression = rssPct > 0.0 && row.rssRatio > rssLimit;
    }
    if (oldRec->result != newRec->result) {
      row.note = oldRec->result + " -> " + newRec->result;
    }
    if (row.wallRegression) ++result.wallRegressions;
    if (row.rssRegression) ++result.rssRegressions;
    result.rows.push_back(std::move(row));
  }
  for (const auto& [subject, newRec] : news) {
    (void)newRec;
    if (olds.count(subject) != 0) continue;
    DiffRow row;
    row.subject = subject;
    row.note = "only in new";
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace

DiffResult diffByGitSha(const std::vector<Record>& records,
                        const std::string& shaOld, const std::string& shaNew,
                        double wallThresholdPct, double rssThresholdPct) {
  // The most recent run id carrying each sha (file order = append order).
  std::string oldRun, newRun;
  for (const Record& r : records) {
    if (r.gitSha == shaOld) oldRun = r.runId;
    if (r.gitSha == shaNew) newRun = r.runId;
  }
  DiffResult result = diffRuns(records, oldRun, newRun, wallThresholdPct,
                               rssThresholdPct);
  result.oldLabel = shaOld + (oldRun.empty() ? " (no runs)" : " @" + oldRun);
  result.newLabel = shaNew + (newRun.empty() ? " (no runs)" : " @" + newRun);
  return result;
}

std::optional<DiffResult> diffLatestRuns(const std::vector<Record>& records,
                                         double wallThresholdPct,
                                         double rssThresholdPct) {
  std::vector<std::string> ids = runIdsInOrder(records);
  if (ids.size() < 2) return std::nullopt;
  return diffRuns(records, ids[ids.size() - 2], ids[ids.size() - 1],
                  wallThresholdPct, rssThresholdPct);
}

// --------------------------------------------------------------- rendering

namespace {

std::string fmtMs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", seconds * 1e3);
  return buf;
}

std::string fmtRatio(double ratio) {
  if (ratio == 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", ratio);
  return buf;
}

}  // namespace

std::string renderDiff(const DiffResult& diff, bool markdown) {
  std::string out;
  out += "old: " + diff.oldLabel + "   new: " + diff.newLabel + "\n";
  if (markdown) {
    out += "\n| case | old wall (ms) | new wall (ms) | wall | old RSS (KiB) "
           "| new RSS (KiB) | RSS | note |\n";
    out += "|---|---:|---:|---:|---:|---:|---:|---|\n";
    for (const DiffRow& r : diff.rows) {
      std::string note = r.note;
      if (r.wallRegression) note += note.empty() ? "WALL-REGRESSION"
                                                 : " WALL-REGRESSION";
      if (r.rssRegression) note += note.empty() ? "RSS-REGRESSION"
                                                : " RSS-REGRESSION";
      out += "| " + r.subject + " | " + fmtMs(r.oldWallS) + " | " +
             fmtMs(r.newWallS) + " | " + fmtRatio(r.wallRatio) + " | " +
             std::to_string(r.oldRssKb) + " | " + std::to_string(r.newRssKb) +
             " | " + fmtRatio(r.rssRatio) + " | " + note + " |\n";
    }
  } else {
    char line[256];
    std::snprintf(line, sizeof line, "%-40s %10s %10s %7s %12s %12s %7s\n",
                  "case", "old(ms)", "new(ms)", "wall", "old-rss(K)",
                  "new-rss(K)", "rss");
    out += line;
    for (const DiffRow& r : diff.rows) {
      if (!r.note.empty() && r.wallRatio == 0.0 && r.rssRatio == 0.0) {
        std::snprintf(line, sizeof line, "%-40s %s\n", r.subject.c_str(),
                      ("(" + r.note + ")").c_str());
        out += line;
        continue;
      }
      std::string flags;
      if (r.wallRegression) flags += "  WALL-REGRESSION";
      if (r.rssRegression) flags += "  RSS-REGRESSION";
      if (!r.note.empty()) flags += "  (" + r.note + ")";
      std::snprintf(line, sizeof line,
                    "%-40s %10s %10s %7s %12llu %12llu %7s%s\n",
                    r.subject.c_str(), fmtMs(r.oldWallS).c_str(),
                    fmtMs(r.newWallS).c_str(), fmtRatio(r.wallRatio).c_str(),
                    static_cast<unsigned long long>(r.oldRssKb),
                    static_cast<unsigned long long>(r.newRssKb),
                    fmtRatio(r.rssRatio).c_str(), flags.c_str());
      out += line;
    }
  }
  char summary[128];
  std::snprintf(summary, sizeof summary,
                "%d wall regression(s), %d RSS regression(s)\n",
                diff.wallRegressions, diff.rssRegressions);
  out += summary;
  return out;
}

std::string renderList(const std::vector<Record>& records, size_t limit) {
  std::string out;
  char line[320];
  std::snprintf(line, sizeof line, "%-18s %-20s %-12s %-36s %-9s %10s %10s\n",
                "run", "time", "driver", "subject", "result", "wall(ms)",
                "rss(K)");
  out += line;
  size_t start = limit > 0 && records.size() > limit ? records.size() - limit
                                                     : 0;
  for (size_t i = start; i < records.size(); ++i) {
    const Record& r = records[i];
    std::snprintf(line, sizeof line,
                  "%-18s %-20s %-12s %-36s %-9s %10s %10llu\n",
                  r.runId.c_str(), r.time.c_str(), r.driver.c_str(),
                  r.subject.c_str(), r.result.c_str(),
                  fmtMs(r.wallSeconds).c_str(),
                  static_cast<unsigned long long>(r.peakRssKb));
    out += line;
  }
  return out;
}

std::string renderShow(const std::vector<Record>& records,
                       const std::string& runIdPrefix) {
  std::string out;
  for (const Record& r : records) {
    if (r.runId.compare(0, runIdPrefix.size(), runIdPrefix) != 0) continue;
    out += "run " + r.runId + "  (" + r.time + ")\n";
    out += "  driver:   " + r.driver + "\n";
    out += "  subject:  " + r.subject + "\n";
    out += "  result:   " + r.result +
           (r.signalName.empty() ? "" : " (" + r.signalName + ")") + "\n";
    if (!r.detail.empty()) out += "  detail:   " + r.detail + "\n";
    if (!r.digest.empty()) out += "  digest:   " + r.digest + "\n";
    out += "  wall:     " + fmtMs(r.wallSeconds) + " ms\n";
    out += "  peak rss: " + std::to_string(r.peakRssKb) + " KiB\n";
    out += "  git sha:  " + r.gitSha + "\n";
    if (!r.config.empty()) out += "  config:   " + r.config + "\n";
    if (!r.traceId.empty()) out += "  trace:    " + r.traceId + "\n";
    if (!r.stages.empty()) {
      out += "  stages:  ";
      for (const auto& [name, micros] : r.stages) {
        out += " " + name + "=" + fmtMs(static_cast<double>(micros) * 1e-6) +
               "ms";
      }
      out += "\n";
    }
    if (r.hasCoverage) {
      char cov[160];
      std::snprintf(cov, sizeof cov,
                    "  coverage: %.1f%% of state space, values %llu/%llu, "
                    "bins %llu/%llu\n",
                    r.covStateFraction * 100.0,
                    static_cast<unsigned long long>(r.covValuesReached),
                    static_cast<unsigned long long>(r.covValuesTotal),
                    static_cast<unsigned long long>(r.covBinsHit),
                    static_cast<unsigned long long>(r.covBinsTotal));
      out += cov;
    }
    if (!r.cexPath.empty())
      out += "  cex:      " + r.cexPath + " (replay " + r.cexReplay + ")\n";
    out += "  obs:      " + std::string(r.obsEnabled ? "enabled" : "disabled") +
           "\n";
  }
  if (out.empty()) out = "no records match run id '" + runIdPrefix + "'\n";
  return out;
}

std::string renderRequests(const std::vector<Record>& records,
                           double slowThresholdSeconds, size_t limit,
                           size_t* outliers) {
  // The per-request view: only records that carry stage timings (i.e.
  // hsis_serve traffic) qualify; plain CLI/bench records have no stages.
  std::vector<const Record*> reqs;
  for (const Record& r : records) {
    if (!r.stages.empty()) reqs.push_back(&r);
  }
  size_t flagged = 0;
  std::string out;
  if (reqs.empty()) {
    if (outliers != nullptr) *outliers = 0;
    return "no request records (records with stage timings) in this ledger\n";
  }
  static constexpr const char* kStageOrder[] = {"queue", "parse",  "tr",
                                                "reach", "check", "render"};
  char line[512];
  std::snprintf(line, sizeof line,
                "%-20s %-24s %-8s %-16s %9s %8s %8s %8s %8s %8s %8s\n",
                "time", "subject", "result", "trace", "wall(ms)", "queue",
                "parse", "tr", "reach", "check", "render");
  out += line;
  size_t start = limit > 0 && reqs.size() > limit ? reqs.size() - limit : 0;
  for (size_t i = start; i < reqs.size(); ++i) {
    const Record& r = *reqs[i];
    auto stageMs = [&](const char* name) -> std::string {
      for (const auto& [n, micros] : r.stages) {
        if (n == name) return fmtMs(static_cast<double>(micros) * 1e-6);
      }
      return "-";
    };
    const bool slow =
        slowThresholdSeconds > 0.0 && r.wallSeconds > slowThresholdSeconds;
    if (slow) ++flagged;
    std::snprintf(line, sizeof line,
                  "%-20s %-24s %-8s %-16s %9s %8s %8s %8s %8s %8s %8s%s\n",
                  r.time.c_str(), r.subject.c_str(), r.result.c_str(),
                  r.traceId.empty() ? "-" : r.traceId.c_str(),
                  fmtMs(r.wallSeconds).c_str(), stageMs("queue").c_str(),
                  stageMs("parse").c_str(), stageMs("tr").c_str(),
                  stageMs("reach").c_str(), stageMs("check").c_str(),
                  stageMs("render").c_str(), slow ? "  SLOW" : "");
    out += line;
    // Stages outside the canonical pipeline still show up, appended as an
    // extra detail line, so nothing recorded is invisible.
    std::string extra;
    for (const auto& [n, micros] : r.stages) {
      bool known = false;
      for (const char* k : kStageOrder) known = known || n == k;
      if (!known)
        extra += " " + n + "=" + fmtMs(static_cast<double>(micros) * 1e-6) +
                 "ms";
    }
    if (!extra.empty()) out += "    other:" + extra + "\n";
  }
  char summary[128];
  std::snprintf(summary, sizeof summary,
                "%zu request(s), %zu outlier(s) past %.3fs\n",
                reqs.size() - start, flagged,
                slowThresholdSeconds > 0.0 ? slowThresholdSeconds : 0.0);
  out += summary;
  if (outliers != nullptr) *outliers = flagged;
  return out;
}

// ------------------------------------------------------------ crash arming

namespace {

struct ArmedCrash {
  std::mutex mu;
  int fd = -1;
  // Pre-rendered line split around the signal name:
  //   prefix  ... "signal": "
  //   suffix  "}\n
  char prefix[1024];
  std::atomic<uint32_t> prefixLen{0};
};

ArmedCrash& armed() {
  static ArmedCrash* a = new ArmedCrash;  // leaked, see registry.cpp
  return *a;
}

}  // namespace

void armCrashRecord(const std::string& path, const Record& record) {
  ArmedCrash& a = armed();
  std::lock_guard<std::mutex> lock(a.mu);
  if (a.fd >= 0) {
    ::close(a.fd);
    a.fd = -1;
  }
  a.prefixLen.store(0, std::memory_order_release);
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::path p(path);
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), ec);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return;

  Record r = record;
  r.result = "crashed";
  r.signalName = "";  // rendered as null; we substitute below
  std::string line = toJsonl(r);
  // Split at the trailing `"signal": null}` so the handler can append the
  // actual signal name.
  const std::string tail = "\"signal\": null}";
  size_t cut = line.rfind(tail);
  if (cut == std::string::npos) {
    ::close(fd);
    return;
  }
  std::string prefix = line.substr(0, cut) + "\"signal\": \"";
  if (prefix.size() > sizeof a.prefix) {
    ::close(fd);
    return;
  }
  std::memcpy(a.prefix, prefix.data(), prefix.size());
  a.fd = fd;
  a.prefixLen.store(static_cast<uint32_t>(prefix.size()),
                    std::memory_order_release);
}

void disarmCrashRecord() {
  ArmedCrash& a = armed();
  std::lock_guard<std::mutex> lock(a.mu);
  a.prefixLen.store(0, std::memory_order_release);
  if (a.fd >= 0) {
    ::close(a.fd);
    a.fd = -1;
  }
}

namespace detail {

void writeArmedCrashRecord(const char* signalName) noexcept {
  // Signal context: no locks, no allocation. prefixLen gates validity; the
  // fd stays open for the process lifetime once armed.
  ArmedCrash& a = armed();
  uint32_t n = a.prefixLen.load(std::memory_order_acquire);
  if (n == 0 || a.fd < 0) return;
  char buf[1100];
  if (n > sizeof buf - 32) return;
  std::memcpy(buf, a.prefix, n);
  size_t at = n;
  for (const char* p = signalName; *p != '\0' && at < sizeof buf - 4; ++p)
    buf[at++] = *p;
  buf[at++] = '"';
  buf[at++] = '}';
  buf[at++] = '\n';
  size_t off = 0;
  while (off < at) {
    ssize_t w = ::write(a.fd, buf + off, at - off);
    if (w <= 0) break;
    off += static_cast<size_t>(w);
  }
}

}  // namespace detail

}  // namespace hsis::obs::ledger
