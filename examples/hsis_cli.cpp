// A file-driven command-line front end: verify a Verilog (or BLIF-MV)
// design against a PIF property file — the closest thing to running the
// original HSIS shell.
//
//   hsis_cli design.v properties.pif
//   hsis_cli --blifmv design.mv properties.pif
//   hsis_cli --model philos          # run a bundled Table-1 design
//   hsis_cli --jobs 4 --model philos # property batch on 4 worker threads
//
// Every form also accepts the shared observability flags:
//   --stats-json FILE    dump the full snapshot (and FILE.trace.json) at exit
//   --timeout-s S        abort the run past S seconds of wall clock
//   --mem-limit-mb M     abort the run past M MiB of peak RSS
//   --profile            census series sampled every 10 ms into
//                        hsis-prof.census.jsonl, and at exit the span
//                        tree's self times as hsis-prof.folded
//   --profile-out BASE   ... writing BASE.census.jsonl + BASE.folded
//   --log-level LVL      leveled event log, human lines on stderr
//   --log-file F         ... as hsis-log-v1 JSONL appended to F
//   --ledger PATH        run-ledger file (default $HSIS_LEDGER or
//                        ~/.hsis/ledger.jsonl; "none" disables)
//   --flight-dir DIR     crash flight recorder dumps into DIR
//   --cov-json FILE      write an hsis-cov-v1 coverage artifact (latch
//                        occupancy, coverpoint bins, frontier series) for
//                        `hsis_report coverage`
//   --cov-spec FILE      coverpoint/bin spec (see docs/coverage.md);
//                        default is one auto coverpoint per latch
//   --cex-dir DIR        write a replayable hsis-cex-v1 counterexample
//                        artifact (JSON + VCD) into DIR for every failing
//                        CTL check with a trace (see docs/debugging.md)
// A watchdog abort still writes the --stats-json snapshot (its "aborted"
// field carries the reason and breaching phase) and the --profile files,
// and exits with code 3. Every invocation appends one hsis-ledger-v1
// record (pass/fail/aborted/crashed, wall, peak RSS) that hsis_report
// queries. A malformed design or property file (a parse or elaboration
// error) or a numeric flag value that is not a number ends with
// "error: MESSAGE" on stderr and exit code 2.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "cex/cex.hpp"
#include "cov/cov.hpp"
#include "hsis/session.hpp"
#include "models/models.hpp"
#include "obs/control.hpp"
#include "obs/version.hpp"
#include "par/batch.hpp"

namespace {

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path);
    std::exit(1);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: hsis_cli [OBS-FLAGS] [--blifmv] DESIGN PROPERTIES.pif\n"
               "       hsis_cli [OBS-FLAGS] --model NAME   (one of:");
  for (const auto& m : hsis::models::all())
    std::fprintf(stderr, " %s", std::string(m.name).c_str());
  std::fprintf(stderr,
               ")\nOBS-FLAGS: --stats-json FILE | --timeout-s S | "
               "--mem-limit-mb M | --profile |\n"
               "           --profile-out BASE | --log-level LVL |\n"
               "           --log-file F | --ledger PATH |\n"
               "           --flight-dir DIR | --cov-json FILE | "
               "--cov-spec FILE |\n"
               "           --cex-dir DIR | --jobs N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  if (hsis::obs::handleVersionFlag(argc, argv, "hsis_cli")) return 0;
  // The exit exporters write the --stats-json snapshot and the
  // process-level ledger record, with the verdict set via noteRunResult
  // below.
  hsis::obs::ObsCliOptions obsOpts =
      hsis::obs::initDriverObs(argc, argv, {.driverName = "hsis_cli"});

  // --cov-spec, --cex-dir, and --jobs are cli-local (the shared strip
  // covers --cov-json only).
  std::string covSpecPath;
  std::string cexDir;
  int jobs = 1;
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--cov-spec") == 0 && i + 1 < argc) {
      covSpecPath = argv[i + 1];
      for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    } else if (std::strcmp(argv[i], "--cex-dir") == 0 && i + 1 < argc) {
      cexDir = argv[i + 1];
      for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::max(1, hsis::obs::flagNumber<int>("--jobs", argv[i + 1]));
      for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    } else {
      ++i;
    }
  }

  // Remembered for --cex-dir: artifacts embed the design source so they
  // replay standalone.
  hsis::Session::DesignSource designSrc;
  std::string designName;
  std::string pifText;

  if (argc == 3 && std::strcmp(argv[1], "--model") == 0) {
    const hsis::models::ModelDef* m = hsis::models::find(argv[2]);
    if (m == nullptr) return usage();
    hsis::obs::noteRunSubject(argv[2]);
    designName = argv[2];
    designSrc = {hsis::Session::DesignSource::Kind::Verilog,
                 std::string(m->verilog), std::string(m->top)};
    pifText = m->pif;
  } else if (argc == 4 && std::strcmp(argv[1], "--blifmv") == 0) {
    hsis::obs::noteRunSubject(argv[2]);
    designName = argv[2];
    designSrc = {hsis::Session::DesignSource::Kind::BlifMv, slurp(argv[2]),
                 ""};
    pifText = slurp(argv[3]);
  } else if (argc == 3) {
    hsis::obs::noteRunSubject(argv[1]);
    designName = argv[1];
    designSrc = {hsis::Session::DesignSource::Kind::Verilog, slurp(argv[1]),
                 ""};
    pifText = slurp(argv[2]);
  } else {
    return usage();
  }
  hsis::Session session;
  session.load(designSrc);
  hsis::PifFile pif = hsis::parsePif(pifText);
  session.addFairness(pif.fairness);

  int failures = 0;
  std::string failing;  // comma-joined failing property names
  return hsis::obs::driverGuard([&] {
    session.build();
    std::printf("read: %zu Verilog lines, %zu BLIF-MV lines (%.2fs)\n",
                session.linesVerilog(), session.linesBlifMv(),
                static_cast<double>(session.lastBuildMicros()) * 1e-6);
    for (const std::string& n : session.notes())
      std::printf("note: %s\n", n.c_str());
    std::printf("reachable states: %.0f\n\n", session.reachedStates());

    // The property list on up to --jobs workers: this thread on the
    // session, each other worker on its own replica manager. Reports come
    // back in input order.
    hsis::par::BatchReport batch =
        hsis::par::checkBatch(session, pif.properties, {.jobs = jobs});
    if (jobs > 1)
      std::printf("parallel batch: %zu properties on %zu workers, "
                  "%.2fs wall (%.2fs replica setup), busy speedup %.2fx\n\n",
                  pif.properties.size(), batch.workerBusyMicros.size(),
                  batch.wallMicros / 1e6, batch.transferMicros / 1e6,
                  batch.theoreticalSpeedup());

    const hsis::Fsm& fsm = session.fsm();
    bool cexDisabledNoted = false;
    size_t nCtl = 0, nLc = 0;
    double sCtl = 0.0, sLc = 0.0;
    for (const hsis::BugReport& report : batch.reports) {
      if (report.paradigm == hsis::BugReport::Paradigm::ModelChecking) {
        ++nCtl;
        sCtl += report.seconds;
      } else {
        ++nLc;
        sLc += report.seconds;
      }
      std::printf("%s\n", renderBugReport(report, fsm).c_str());
      if (!report.holds) {
        ++failures;
        if (!failing.empty()) failing += ", ";
        failing += report.propertyName;
      }
      if (!cexDir.empty() && !report.holds && report.trace.has_value() &&
          report.paradigm == hsis::BugReport::Paradigm::ModelChecking) {
        if (!hsis::cex::cexEnabled()) {
          if (!cexDisabledNoted)
            std::printf("cex: disabled (HSIS_OBS_DISABLE build or "
                        "HSIS_CEX_DISABLE set)\n");
          cexDisabledNoted = true;
          continue;
        }
        hsis::cex::BuildInputs bi;
        bi.propertyName = report.propertyName;
        bi.propertyText = report.propertyText;
        bi.designName = designName;
        bi.designDigest = designSrc.digest();
        bi.designKind =
            designSrc.kind == hsis::Session::DesignSource::Kind::Verilog
                ? "verilog"
                : "blifmv";
        bi.designTop = designSrc.top;
        bi.designText = designSrc.text;
        hsis::cex::Artifact art = hsis::cex::build(fsm, *report.trace, bi);
        hsis::cex::verifyAndStamp(art, fsm, session.tr());
        std::string base = report.propertyName.empty() ? "unnamed"
                                                       : report.propertyName;
        for (char& c : base)
          if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
              c != '_')
            c = '_';
        std::string jsonPath = cexDir + "/" + base + ".cex.json";
        std::string vcdPath = cexDir + "/" + base + ".cex.vcd";
        if (hsis::cex::writeFiles(art, jsonPath, vcdPath)) {
          std::printf("cex: %s (replay %s)\n     %s\n", jsonPath.c_str(),
                      art.replay.c_str(), vcdPath.c_str());
        } else {
          std::fprintf(stderr, "cex: cannot write %s\n", jsonPath.c_str());
        }
      }
    }

    std::printf("summary: %zu CTL formulas (%.2fs), %zu LC properties "
                "(%.2fs), %d failing\n",
                nCtl, sCtl, nLc, sLc, failures);

    if (!obsOpts.covJsonPath.empty() || !covSpecPath.empty()) {
      hsis::cov::Options co;
      if (!covSpecPath.empty())
        co.points =
            hsis::cov::parseCoverSpec(slurp(covSpecPath.c_str()), fsm);
      // Concrete differential pass, capped so huge designs degrade to
      // symbolic-only instead of enumerating forever.
      co.simMaxStates = 5000;
      hsis::cov::Report rep = session.coverage(co);
      if (rep.enabled) {
        std::printf(
            "coverage: %.1f%% of state space, latch values %llu/%llu, "
            "bins %llu/%llu%s\n",
            rep.stateFraction() * 100.0,
            static_cast<unsigned long long>(rep.valuesReached),
            static_cast<unsigned long long>(rep.valuesTotal),
            static_cast<unsigned long long>(rep.binsHit),
            static_cast<unsigned long long>(rep.binsTotal),
            rep.simExhaustive
                ? (rep.simAgrees ? ", sim agrees" : ", SIM MISMATCH")
                : "");
      } else {
        std::printf("coverage: disabled (HSIS_OBS_DISABLE build or "
                    "HSIS_COV_DISABLE set)\n");
      }
      if (!obsOpts.covJsonPath.empty()) {
        std::ofstream out(obsOpts.covJsonPath);
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n",
                       obsOpts.covJsonPath.c_str());
        } else {
          out << hsis::cov::reportToJson(rep) << "\n";
          std::printf("coverage report written to %s\n",
                      obsOpts.covJsonPath.c_str());
        }
      }
    }

    if (failures == 0) {
      hsis::obs::noteRunResult("pass", "");
      return 0;
    }
    hsis::obs::noteRunResult("fail", failing,
                             hsis::obs::ledger::digestOf(failing));
    return 1;
  });
} catch (const std::exception& e) {
  std::fflush(stdout);
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
