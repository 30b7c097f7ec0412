// perf_compare: diff two BENCH_*.json baselines (written by hsis_bench)
// and fail past a regression threshold.
//
//   perf_compare BENCH_old.json BENCH_new.json --threshold 10
//   perf_compare BENCH_old.json BENCH_new.json --mem-threshold 20
//   perf_compare BENCH_old.json BENCH_new.json --report-only
//   perf_compare BENCH_old.json BENCH_new.json --noise-pct 15
//
// The wall statistic is the per-case MINIMUM wall time; a case regresses
// when new/old exceeds 1 + threshold% (default 10). With --mem-threshold
// the per-case minimum peak RSS is diffed the same way (off by default:
// RSS is a process-wide high-water mark, so only the first case of a
// process carries a clean signal — hsis_bench runs cases in-process in
// suite order, which keeps the comparison like-for-like across runs).
// --noise-pct P grants each case extra slack equal to its own measured
// within-run spread (max/min across repeats, larger of the two sides),
// capped at P points — the threaded `parallel` suite scatters with
// scheduler jitter, and this keeps the serial micros strict while not
// flagging jitter as a regression. Aborted cases and cases present on
// only one side are listed but never fail the comparison.
//
// Exit codes: 0 ok / 1 regression (suppressed by --report-only) / 2 usage
// or I/O or parse error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "bench_schema.hpp"
#include "obs/version.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perf_compare OLD.json NEW.json [--threshold PCT] "
               "[--mem-threshold PCT] [--noise-pct PCT] [--report-only]\n");
  return 2;
}

bool readFile(const char* path, std::string& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (hsis::obs::handleVersionFlag(argc, argv, "perf_compare")) return 0;
  const char* oldPath = nullptr;
  const char* newPath = nullptr;
  double threshold = 10.0;
  double memThreshold = 0.0;
  double noisePct = 0.0;
  bool reportOnly = false;
  for (int i = 1; i < argc; ++i) {
    auto percent = [&](double& out) {
      std::optional<double> v;
      if (i + 1 < argc) v = hsis::obs::parseNumber<double>(argv[i + 1]);
      if (!v) {
        std::fprintf(stderr, "perf_compare: %s needs a number\n", argv[i]);
        return false;
      }
      out = *v;
      ++i;
      return true;
    };
    if (std::strcmp(argv[i], "--threshold") == 0) {
      if (!percent(threshold)) return usage();
    } else if (std::strcmp(argv[i], "--mem-threshold") == 0) {
      if (!percent(memThreshold)) return usage();
    } else if (std::strcmp(argv[i], "--noise-pct") == 0) {
      if (!percent(noisePct)) return usage();
    } else if (std::strcmp(argv[i], "--report-only") == 0) {
      reportOnly = true;
    } else if (!oldPath) {
      oldPath = argv[i];
    } else if (!newPath) {
      newPath = argv[i];
    } else {
      return usage();
    }
  }
  if (!oldPath || !newPath) return usage();

  std::string oldText, newText;
  if (!readFile(oldPath, oldText)) {
    std::fprintf(stderr, "perf_compare: cannot read %s\n", oldPath);
    return 2;
  }
  if (!readFile(newPath, newText)) {
    std::fprintf(stderr, "perf_compare: cannot read %s\n", newPath);
    return 2;
  }

  hsisbench::BenchDoc oldDoc, newDoc;
  try {
    oldDoc = hsisbench::parseBenchJson(oldText);
    newDoc = hsisbench::parseBenchJson(newText);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_compare: %s\n", e.what());
    return 2;
  }

  if (oldDoc.obsEnabled != newDoc.obsEnabled) {
    std::printf(
        "note: comparing an obs-enabled build against an obs-disabled one; "
        "absolute times are not like-for-like\n");
  }
  if (oldDoc.host && newDoc.host &&
      (oldDoc.host->nproc != newDoc.host->nproc ||
       oldDoc.host->cpu != newDoc.host->cpu ||
       oldDoc.host->buildType != newDoc.host->buildType)) {
    std::printf("note: baselines from different hosts (%u x %s, %s vs %u x "
                "%s, %s); absolute times are not like-for-like\n",
                oldDoc.host->nproc, oldDoc.host->cpu.c_str(),
                oldDoc.host->buildType.c_str(), newDoc.host->nproc,
                newDoc.host->cpu.c_str(), newDoc.host->buildType.c_str());
  }
  char memBuf[32] = "off";
  if (memThreshold > 0.0)
    std::snprintf(memBuf, sizeof memBuf, "%.1f%%", memThreshold);
  char noiseBuf[32] = "off";
  if (noisePct > 0.0)
    std::snprintf(noiseBuf, sizeof noiseBuf, "%.1f%%", noisePct);
  std::printf("old: suite=%s sha=%s   new: suite=%s sha=%s   "
              "threshold=%.1f%% mem-threshold=%s noise-cap=%s\n",
              oldDoc.suite.c_str(), oldDoc.gitSha.c_str(),
              newDoc.suite.c_str(), newDoc.gitSha.c_str(), threshold,
              memBuf, noiseBuf);
  std::printf("%-40s %11s %11s %7s %11s %11s %7s\n", "case", "old(ms)",
              "new(ms)", "wall", "old-rss(K)", "new-rss(K)", "rss");

  hsisbench::CompareResult cmp = hsisbench::compareBench(
      oldDoc, newDoc, threshold, memThreshold, noisePct);
  for (const hsisbench::CompareRow& row : cmp.rows) {
    if (!row.note.empty()) {
      std::printf("%-40s %34s\n", row.name.c_str(),
                  ("(" + row.note + ")").c_str());
      continue;
    }
    std::string flags;
    if (row.noisePct > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "  (noise %.1f%%)", row.noisePct);
      flags += buf;
    }
    if (row.regression) flags += "  WALL-REGRESSION";
    if (row.memRegression) flags += "  RSS-REGRESSION";
    std::printf("%-40s %11.3f %11.3f %6.2fx %11llu %11llu %6.2fx%s\n",
                row.name.c_str(), row.oldMs, row.newMs, row.ratio,
                static_cast<unsigned long long>(row.oldRssKb),
                static_cast<unsigned long long>(row.newRssKb), row.rssRatio,
                flags.c_str());
  }
  if (cmp.regressions + cmp.memRegressions > 0) {
    std::printf("%d wall regression(s) past %.1f%%, %d rss regression(s)\n",
                cmp.regressions, threshold, cmp.memRegressions);
    return reportOnly ? 0 : 1;
  }
  std::printf("no regressions\n");
  return 0;
}
