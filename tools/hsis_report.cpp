// hsis_report — query the cross-run verification ledger.
//
//   hsis_report list [--limit N]             recent runs, one line each
//   hsis_report show RUN                     every record of one run id
//                                            (RUN may be a unique prefix)
//   hsis_report diff SHA1 SHA2               per-subject wall/RSS deltas
//                                            between two commits
//   hsis_report regressions [--threshold PCT] [--mem-threshold PCT]
//                           [--report-only]  latest run vs the previous one
//   hsis_report requests [--threshold SECONDS] [--limit N] [--report-only]
//                                            per-request stage breakdowns
//                                            (hsis_serve records carrying
//                                            trace ids + stage timings);
//                                            rows past the threshold are
//                                            flagged SLOW
//   hsis_report coverage FILE... [--threshold PCT] [--report-only]
//                                            render hsis-cov-v1 coverage
//                                            artifacts (hsis_cli --cov-json)
//                                            as markdown; with --threshold,
//                                            exit 1 when any latch's value
//                                            occupancy is below PCT
//   hsis_report cex FILE... [--replay]       render hsis-cex-v1
//                                            counterexample artifacts
//                                            (hsis_cli --cex-dir, hsis_serve
//                                            --artifact-dir) as a markdown
//                                            step table with source lines;
//                                            with --replay, recompile the
//                                            embedded design and re-verify
//                                            the trace (exit 1 when any
//                                            artifact fails to replay)
//
// Common flags: --ledger PATH (default $HSIS_LEDGER or ~/.hsis/ledger.jsonl),
// --markdown (tables render as GitHub markdown).
//
// Exit codes: 0 ok / no regressions, 1 regressions found (unless
// --report-only), 2 usage or I/O error.
//
// All query and rendering logic lives in obs/ledger.{hpp,cpp} so the unit
// tests cover it without spawning this binary.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cex/cex.hpp"
#include "cov/cov.hpp"
#include "obs/control.hpp"
#include "obs/ledger.hpp"
#include "obs/version.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: hsis_report [--ledger PATH] [--markdown] COMMAND\n"
               "  list [--limit N]\n"
               "  show RUN\n"
               "  diff SHA1 SHA2 [--threshold PCT] [--mem-threshold PCT]\n"
               "  regressions [--threshold PCT] [--mem-threshold PCT] "
               "[--report-only]\n"
               "  requests [--threshold SECONDS] [--limit N] "
               "[--report-only]\n"
               "  coverage FILE... [--threshold PCT] [--report-only]\n"
               "  cex FILE... [--replay]\n");
}

/// `hsis_report coverage`: render hsis-cov-v1 artifacts; exit 1 when a
/// --threshold gate fails (unless --report-only), 2 on I/O/parse errors.
int runCoverage(const std::vector<std::string>& files, bool thresholdSet,
                double thresholdPct, bool reportOnly) {
  size_t gated = 0;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "hsis_report: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    hsis::cov::Report rep;
    try {
      rep = hsis::cov::parseReportJson(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hsis_report: %s: %s\n", file.c_str(), e.what());
      return 2;
    }
    hsis::cov::RenderOptions ro;
    if (thresholdSet) ro.threshold = thresholdPct;
    std::fputs(hsis::cov::renderReport(rep, ro).c_str(), stdout);
    std::fputs("\n", stdout);
    if (thresholdSet) gated += hsis::cov::latchesBelow(rep, thresholdPct);
  }
  return gated > 0 && !reportOnly ? 1 : 0;
}

/// `hsis_report cex`: render hsis-cex-v1 artifacts; with --replay,
/// recompile the embedded design source and re-verify the trace. Exit 0
/// when everything (re-)verifies, 1 when any replay fails, 2 on I/O/parse
/// errors.
int runCex(const std::vector<std::string>& files, bool replay) {
  size_t unverified = 0;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "hsis_report: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    hsis::cex::Artifact art;
    try {
      art = hsis::cex::parseJson(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hsis_report: %s: %s\n", file.c_str(), e.what());
      return 2;
    }
    if (replay) {
      hsis::cex::ReplayResult r = hsis::cex::replayFromSource(art);
      art.replay = r.verified ? "verified" : "unverified";
      art.replayNote = r.note;
      if (!r.verified) ++unverified;
    }
    std::fputs(hsis::cex::renderMarkdown(art).c_str(), stdout);
    std::fputs("\n", stdout);
  }
  return unverified > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace hsis::obs;
  if (handleVersionFlag(argc, argv, "hsis_report")) return 0;

  std::string ledgerFlag;
  bool markdown = false;
  double wallPct = 10.0;
  double rssPct = 10.0;
  bool thresholdSet = false;
  bool reportOnly = false;
  bool replay = false;
  size_t limit = 20;
  std::vector<std::string> pos;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (std::strcmp(a, "--ledger") == 0 && hasValue) {
      ledgerFlag = argv[++i];
    } else if (std::strcmp(a, "--markdown") == 0) {
      markdown = true;
    } else if (std::strcmp(a, "--threshold") == 0 && hasValue) {
      wallPct = flagNumber<double>(a, argv[++i]);
      thresholdSet = true;
    } else if (std::strcmp(a, "--mem-threshold") == 0 && hasValue) {
      rssPct = flagNumber<double>(a, argv[++i]);
    } else if (std::strcmp(a, "--report-only") == 0) {
      reportOnly = true;
    } else if (std::strcmp(a, "--replay") == 0) {
      replay = true;
    } else if (std::strcmp(a, "--limit") == 0 && hasValue) {
      limit = flagNumber<size_t>(a, argv[++i]);
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage();
      return 0;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "hsis_report: unknown flag %s\n", a);
      usage();
      return 2;
    } else {
      pos.emplace_back(a);
    }
  }
  if (pos.empty()) {
    usage();
    return 2;
  }

  // `coverage` reads hsis-cov-v1 artifacts, not the ledger — dispatch it
  // before any ledger resolution so it works with no ledger configured.
  if (pos[0] == "coverage") {
    if (pos.size() < 2) {
      std::fprintf(stderr, "hsis_report: coverage needs at least one file\n");
      usage();
      return 2;
    }
    return runCoverage({pos.begin() + 1, pos.end()}, thresholdSet, wallPct,
                       reportOnly);
  }

  // `cex` reads hsis-cex-v1 artifacts, not the ledger — same early
  // dispatch.
  if (pos[0] == "cex") {
    if (pos.size() < 2) {
      std::fprintf(stderr, "hsis_report: cex needs at least one file\n");
      usage();
      return 2;
    }
    return runCex({pos.begin() + 1, pos.end()}, replay);
  }

  const std::string path = ledger::resolvePath(ledgerFlag);
  if (path.empty()) {
    std::fprintf(stderr, "hsis_report: no ledger path (--ledger or "
                         "$HSIS_LEDGER or $HOME required)\n");
    return 2;
  }
  size_t skipped = 0;
  std::vector<ledger::Record> records = ledger::load(path, &skipped);
  if (skipped > 0)
    std::fprintf(stderr, "hsis_report: %zu malformed line(s) skipped in %s\n",
                 skipped, path.c_str());
  if (records.empty()) {
    std::fprintf(stderr, "hsis_report: no records in %s\n", path.c_str());
    return 2;
  }

  const std::string& cmd = pos[0];
  if (cmd == "list") {
    std::fputs(ledger::renderList(records, limit).c_str(), stdout);
    return 0;
  }
  if (cmd == "show") {
    if (pos.size() != 2) {
      usage();
      return 2;
    }
    std::string out = ledger::renderShow(records, pos[1]);
    if (out.empty()) {
      std::fprintf(stderr, "hsis_report: no run matching \"%s\"\n",
                   pos[1].c_str());
      return 2;
    }
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  if (cmd == "diff") {
    if (pos.size() != 3) {
      usage();
      return 2;
    }
    ledger::DiffResult diff =
        ledger::diffByGitSha(records, pos[1], pos[2], wallPct, rssPct);
    if (diff.rows.empty()) {
      std::fprintf(stderr,
                   "hsis_report: no overlapping subjects for %s vs %s\n",
                   pos[1].c_str(), pos[2].c_str());
      return 2;
    }
    std::fputs(ledger::renderDiff(diff, markdown).c_str(), stdout);
    return diff.wallRegressions + diff.rssRegressions > 0 && !reportOnly ? 1
                                                                         : 0;
  }
  if (cmd == "requests") {
    // --threshold is SECONDS here (a latency bar), not a percentage: a
    // request slower than it is flagged SLOW and counted as an outlier.
    size_t outliers = 0;
    std::string out =
        ledger::renderRequests(records, wallPct, limit, &outliers);
    if (out.empty()) {
      std::fprintf(stderr,
                   "hsis_report: no per-request records (stage timings) "
                   "in %s\n",
                   path.c_str());
      return 2;
    }
    std::fputs(out.c_str(), stdout);
    return outliers > 0 && !reportOnly ? 1 : 0;
  }
  if (cmd == "regressions") {
    std::optional<ledger::DiffResult> diff =
        ledger::diffLatestRuns(records, wallPct, rssPct);
    if (!diff.has_value()) {
      std::fprintf(stderr,
                   "hsis_report: need at least two runs in the ledger\n");
      return 2;
    }
    std::fputs(ledger::renderDiff(*diff, markdown).c_str(), stdout);
    return diff->wallRegressions + diff->rssRegressions > 0 && !reportOnly ? 1
                                                                           : 0;
  }
  std::fprintf(stderr, "hsis_report: unknown command \"%s\"\n", cmd.c_str());
  usage();
  return 2;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
