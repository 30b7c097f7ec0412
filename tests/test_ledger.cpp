// Tests for hsis::obs::ledger — record serialization, path resolution,
// locked appends (including many concurrent writers), the cross-run diff
// used by hsis_report, and the crash-armed record. The ledger is run
// identity, not measurement: everything here passes unchanged under
// HSIS_OBS_DISABLE.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/control.hpp"
#include "obs/jsonlite.hpp"
#include "obs/ledger.hpp"

namespace hsis::obs::ledger {
namespace {

namespace fs = std::filesystem;

fs::path scratchDir(const char* name) {
  fs::path dir = fs::temp_directory_path() / "hsis_ledger_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Record sampleRecord() {
  Record r;
  r.runId = "1000-42";
  r.time = "2026-08-07T12:00:00Z";
  r.driver = "hsis_cli";
  r.subject = "philos";
  r.result = "fail";
  r.detail = "no_deadlock, progress_p0";
  r.digest = digestOf("no_deadlock");
  r.wallSeconds = 0.0353;
  r.peakRssKb = 9032;
  r.gitSha = "abc1234";
  r.config = "--model philos";
  r.obsEnabled = true;
  return r;
}

/// A minimal completed record for diff scenarios.
Record runRecord(const std::string& runId, const std::string& sha,
                 const std::string& subject, double wallS, uint64_t rssKb,
                 const std::string& result = "completed") {
  Record r;
  r.runId = runId;
  r.time = "2026-08-07T12:00:00Z";
  r.driver = "hsis_bench";
  r.subject = subject;
  r.result = result;
  r.wallSeconds = wallS;
  r.peakRssKb = rssKb;
  r.gitSha = sha;
  return r;
}

// --------------------------------------------------------------- identity

TEST(LedgerIdentity, RunIdIsStableAndWellFormed) {
  std::string id = runId();
  EXPECT_EQ(id, runId());
  EXPECT_NE(id.find('-'), std::string::npos);
}

TEST(LedgerIdentity, TimestampLooksLikeIso8601Utc) {
  std::string t = timestampUtc();
  ASSERT_EQ(t.size(), 20u);
  EXPECT_EQ(t[4], '-');
  EXPECT_EQ(t[10], 'T');
  EXPECT_EQ(t.back(), 'Z');
}

TEST(LedgerIdentity, DigestIsDeterministicHex) {
  EXPECT_EQ(digestOf("abc"), digestOf("abc"));
  EXPECT_NE(digestOf("abc"), digestOf("abd"));
  EXPECT_EQ(digestOf("x").size(), 16u);
}

TEST(LedgerIdentity, EmptyGitShaEnvFallsBack) {
  // CI exports HSIS_GIT_SHA="$(git rev-parse ...)", which is empty outside
  // a checkout: every record must then carry a real id or "unknown", not "".
  const char* saved = std::getenv("HSIS_GIT_SHA");
  std::string restore = saved != nullptr ? saved : "";
  ::setenv("HSIS_GIT_SHA", "", 1);
  EXPECT_FALSE(gitSha().empty());
  ::setenv("HSIS_GIT_SHA", "abc1234", 1);
  EXPECT_EQ(gitSha(), "abc1234");
  if (saved != nullptr) {
    ::setenv("HSIS_GIT_SHA", restore.c_str(), 1);
  } else {
    ::unsetenv("HSIS_GIT_SHA");
  }
}

TEST(LedgerIdentity, GitShaIsAShortHashWithDirtyMarkerOrUnknown) {
  // Without the override the id comes from git: a short hash, marked
  // "-dirty" when the tree has uncommitted changes (so a baseline recorded
  // from an edited tree does not claim to be its parent commit), or
  // "unknown" outside a checkout.
  const char* saved = std::getenv("HSIS_GIT_SHA");
  std::string restore = saved != nullptr ? saved : "";
  ::unsetenv("HSIS_GIT_SHA");
  const std::string sha = gitSha();
  EXPECT_TRUE(sha == "unknown" ||
              std::regex_match(sha, std::regex("^[0-9a-f]{7,}(-dirty)?$")))
      << sha;
  if (saved != nullptr) ::setenv("HSIS_GIT_SHA", restore.c_str(), 1);
}

// ------------------------------------------------------------ round trip

TEST(LedgerSerialize, ToJsonlParsesBackIdentically) {
  Record r = sampleRecord();
  std::string line = toJsonl(r);
  // The line itself is one valid JSON object of the right schema.
  jsonlite::Value v = jsonlite::parse(line);
  EXPECT_EQ(jsonlite::find(v.object(), "schema")->str(), "hsis-ledger-v1");

  size_t skipped = 0;
  std::vector<Record> back = parse(line + "\n", &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(back.size(), 1u);
  const Record& b = back[0];
  EXPECT_EQ(b.runId, r.runId);
  EXPECT_EQ(b.time, r.time);
  EXPECT_EQ(b.driver, r.driver);
  EXPECT_EQ(b.subject, r.subject);
  EXPECT_EQ(b.result, r.result);
  EXPECT_EQ(b.detail, r.detail);
  EXPECT_EQ(b.digest, r.digest);
  EXPECT_DOUBLE_EQ(b.wallSeconds, r.wallSeconds);
  EXPECT_EQ(b.peakRssKb, r.peakRssKb);
  EXPECT_EQ(b.gitSha, r.gitSha);
  EXPECT_EQ(b.config, r.config);
  EXPECT_EQ(b.obsEnabled, r.obsEnabled);
  EXPECT_EQ(b.signalName, "");
}

TEST(LedgerSerialize, EscapesHostileStrings) {
  Record r = sampleRecord();
  r.detail = "quote \" slash \\ newline \n tab \t";
  std::vector<Record> back = parse(toJsonl(r) + "\n");
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].detail, r.detail);
}

TEST(LedgerSerialize, CoverageFieldsRoundTrip) {
  Record r = sampleRecord();
  r.hasCoverage = true;
  r.covStateFraction = 0.75;
  r.covValuesReached = 5;
  r.covValuesTotal = 6;
  r.covBinsHit = 3;
  r.covBinsTotal = 4;
  std::string line = toJsonl(r);
  EXPECT_NE(line.find("\"coverage\""), std::string::npos);
  std::vector<Record> back = parse(line + "\n");
  ASSERT_EQ(back.size(), 1u);
  const Record& b = back[0];
  EXPECT_TRUE(b.hasCoverage);
  EXPECT_DOUBLE_EQ(b.covStateFraction, 0.75);
  EXPECT_EQ(b.covValuesReached, 5u);
  EXPECT_EQ(b.covValuesTotal, 6u);
  EXPECT_EQ(b.covBinsHit, 3u);
  EXPECT_EQ(b.covBinsTotal, 4u);
  // The show renderer surfaces the coverage line.
  EXPECT_NE(renderShow(back, b.runId).find("coverage:"), std::string::npos);
}

TEST(LedgerSerialize, RecordWithoutCoverageOmitsTheKey) {
  // Records from drivers that never ran coverage must serialize exactly as
  // before the field existed (crash-armed records split the line on the
  // rendered suffix, so byte layout matters).
  Record r = sampleRecord();
  std::string line = toJsonl(r);
  EXPECT_EQ(line.find("\"coverage\""), std::string::npos);
  std::vector<Record> back = parse(line + "\n");
  ASSERT_EQ(back.size(), 1u);
  EXPECT_FALSE(back[0].hasCoverage);
}

TEST(LedgerParse, SkipsTornAndForeignLines) {
  Record r = sampleRecord();
  std::string text;
  text += toJsonl(r) + "\n";
  text += "{\"schema\": \"hsis-ledger-v1\", \"run_id\": \"torn";  // torn crash
  text += "\n";
  text += "{\"schema\": \"some-other-v1\"}\n";  // wrong schema
  text += "not json at all\n";
  // Integers that no uint64_t holds: a negative size, a fraction.
  text += "{\"schema\": \"hsis-ledger-v1\", \"peak_rss_kb\": -1}\n";
  text += "{\"schema\": \"hsis-ledger-v1\", \"stages\": {\"tr\": 0.5}}\n";
  text += toJsonl(r) + "\n";
  size_t skipped = 0;
  std::vector<Record> out = parse(text, &skipped);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(skipped, 5u);
}

// ------------------------------------------------------------------ paths

TEST(LedgerPath, FlagWinsOverEnvironment) {
  ::setenv("HSIS_LEDGER", "/env/ledger.jsonl", 1);
  EXPECT_EQ(resolvePath("/flag/ledger.jsonl"), "/flag/ledger.jsonl");
  EXPECT_EQ(resolvePath(""), "/env/ledger.jsonl");
  ::unsetenv("HSIS_LEDGER");
}

TEST(LedgerPath, NoneDisablesFromEitherSource) {
  EXPECT_EQ(resolvePath("none"), "");
  ::setenv("HSIS_LEDGER", "none", 1);
  EXPECT_EQ(resolvePath(""), "");
  ::unsetenv("HSIS_LEDGER");
}

TEST(LedgerPath, FallsBackToHomeDotHsis) {
  ::unsetenv("HSIS_LEDGER");
  const char* savedHome = std::getenv("HOME");
  std::string saved = savedHome != nullptr ? savedHome : "";
  ::setenv("HOME", "/fake/home", 1);
  EXPECT_EQ(resolvePath(""), "/fake/home/.hsis/ledger.jsonl");
  if (savedHome != nullptr) {
    ::setenv("HOME", saved.c_str(), 1);
  } else {
    ::unsetenv("HOME");
  }
}

// ----------------------------------------------------------------- append

TEST(LedgerAppend, EmptyPathIsDisabledNotAnError) {
  EXPECT_TRUE(append("", sampleRecord()));
}

TEST(LedgerAppend, CreatesParentDirectoryAndAppends) {
  fs::path dir = scratchDir("append");
  std::string path = (dir / "nested" / "ledger.jsonl").string();
  ASSERT_TRUE(append(path, sampleRecord()));
  ASSERT_TRUE(append(path, sampleRecord()));
  std::vector<Record> out = load(path);
  EXPECT_EQ(out.size(), 2u);
}

TEST(LedgerAppend, ConcurrentWritersProduceOnlyWholeLines) {
  fs::path dir = scratchDir("concurrent");
  std::string path = (dir / "ledger.jsonl").string();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&path, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Record r = sampleRecord();
        r.subject = "w" + std::to_string(t) + "-" + std::to_string(i);
        // A long detail makes a torn interleaving far more likely if the
        // locking were broken.
        r.detail = std::string(200, static_cast<char>('a' + t));
        append(path, r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  size_t skipped = 999;
  std::vector<Record> out = load(path, &skipped);
  EXPECT_EQ(skipped, 0u) << "torn lines in concurrently appended ledger";
  EXPECT_EQ(out.size(), static_cast<size_t>(kThreads * kPerThread));
}

// ------------------------------------------------------------------- diff

TEST(LedgerDiff, ByGitShaFlagsWallAndRssRegressions) {
  std::vector<Record> records = {
      runRecord("100-1", "aaa", "reach/gcd", 1.0, 1000),
      runRecord("100-1", "aaa", "reach/philos", 2.0, 2000),
      runRecord("200-2", "bbb", "reach/gcd", 1.5, 1000),    // wall +50%
      runRecord("200-2", "bbb", "reach/philos", 2.0, 2600),  // rss +30%
  };
  DiffResult d = diffByGitSha(records, "aaa", "bbb", 10.0, 10.0);
  EXPECT_EQ(d.wallRegressions, 1);
  EXPECT_EQ(d.rssRegressions, 1);
  ASSERT_EQ(d.rows.size(), 2u);
  EXPECT_TRUE(d.rows[0].wallRegression);   // reach/gcd (map order)
  EXPECT_FALSE(d.rows[0].rssRegression);
  EXPECT_FALSE(d.rows[1].wallRegression);  // reach/philos
  EXPECT_TRUE(d.rows[1].rssRegression);
  EXPECT_DOUBLE_EQ(d.rows[0].wallRatio, 1.5);
}

TEST(LedgerDiff, ThresholdZeroDisablesThatDimension) {
  std::vector<Record> records = {
      runRecord("100-1", "aaa", "case", 1.0, 1000),
      runRecord("200-2", "bbb", "case", 3.0, 3000),
  };
  DiffResult d = diffByGitSha(records, "aaa", "bbb", 0.0, 0.0);
  EXPECT_EQ(d.wallRegressions, 0);
  EXPECT_EQ(d.rssRegressions, 0);
}

TEST(LedgerDiff, MissingAndAbortedSubjectsAreNotedNotDiffed) {
  std::vector<Record> records = {
      runRecord("100-1", "aaa", "gone", 1.0, 1000),
      runRecord("100-1", "aaa", "broke", 1.0, 1000),
      runRecord("200-2", "bbb", "fresh", 1.0, 1000),
      runRecord("200-2", "bbb", "broke", 0.0, 0, "aborted"),
  };
  DiffResult d = diffByGitSha(records, "aaa", "bbb", 10.0, 10.0);
  EXPECT_EQ(d.wallRegressions, 0);
  ASSERT_EQ(d.rows.size(), 3u);
  std::map<std::string, std::string> notes;
  for (const DiffRow& r : d.rows) notes[r.subject] = r.note;
  EXPECT_EQ(notes["gone"], "only in old");
  EXPECT_EQ(notes["fresh"], "only in new");
  EXPECT_EQ(notes["broke"], "aborted");
}

TEST(LedgerDiff, LatestRunsPicksLastTwoRunIds) {
  std::vector<Record> records = {
      runRecord("100-1", "aaa", "case", 1.0, 1000),
      runRecord("200-2", "bbb", "case", 1.0, 1000),
      runRecord("300-3", "ccc", "case", 2.0, 1000),
  };
  std::optional<DiffResult> d = diffLatestRuns(records, 10.0, 0.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->oldLabel, "200-2");
  EXPECT_EQ(d->newLabel, "300-3");
  EXPECT_EQ(d->wallRegressions, 1);

  EXPECT_FALSE(diffLatestRuns({records[0]}, 10.0, 0.0).has_value());
}

// -------------------------------------------------------------- rendering

TEST(LedgerRender, DiffTableCarriesFlagsAndSummary) {
  std::vector<Record> records = {
      runRecord("100-1", "aaa", "case", 1.0, 1000),
      runRecord("200-2", "bbb", "case", 2.0, 1000),
  };
  DiffResult d = diffByGitSha(records, "aaa", "bbb", 10.0, 10.0);
  std::string text = renderDiff(d, /*markdown=*/false);
  EXPECT_NE(text.find("WALL-REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("1 wall regression(s), 0 RSS regression(s)"),
            std::string::npos);
  std::string md = renderDiff(d, /*markdown=*/true);
  EXPECT_NE(md.find("| case |"), std::string::npos);
  EXPECT_NE(md.find("2.00x"), std::string::npos);
}

TEST(LedgerRender, ListAndShowIncludeTheRecord) {
  std::vector<Record> records = {sampleRecord()};
  std::string list = renderList(records, 20);
  EXPECT_NE(list.find("philos"), std::string::npos);
  EXPECT_NE(list.find("fail"), std::string::npos);
  std::string show = renderShow(records, "1000-42");
  EXPECT_NE(show.find("digest:"), std::string::npos);
  EXPECT_NE(show.find("--model philos"), std::string::npos);
  EXPECT_NE(renderShow(records, "9999").find("no records match"),
            std::string::npos);
}

// ----------------------------------------------------------- crash arming

TEST(LedgerCrash, ArmedRecordIsCompletedBySignalPath) {
  fs::path dir = scratchDir("armed");
  std::string path = (dir / "ledger.jsonl").string();
  Record r = sampleRecord();
  armCrashRecord(path, r);
  // Simulate what the flight recorder's handler does on SIGSEGV.
  detail::writeArmedCrashRecord("SIGSEGV");
  disarmCrashRecord();

  size_t skipped = 0;
  std::vector<Record> out = load(path, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].result, "crashed");
  EXPECT_EQ(out[0].signalName, "SIGSEGV");
  EXPECT_EQ(out[0].subject, r.subject);
  EXPECT_EQ(out[0].runId, r.runId);
}

TEST(LedgerCrash, DisarmedRecordWritesNothing) {
  fs::path dir = scratchDir("disarmed");
  std::string path = (dir / "ledger.jsonl").string();
  armCrashRecord(path, sampleRecord());
  disarmCrashRecord();
  detail::writeArmedCrashRecord("SIGSEGV");
  EXPECT_TRUE(load(path).empty());
}

TEST(LedgerCrash, RearmReplacesThePendingRecord) {
  fs::path dir = scratchDir("rearm");
  std::string path = (dir / "ledger.jsonl").string();
  Record first = sampleRecord();
  first.subject = "first";
  Record second = sampleRecord();
  second.subject = "second";
  armCrashRecord(path, first);
  armCrashRecord(path, second);
  detail::writeArmedCrashRecord("SIGBUS");
  disarmCrashRecord();
  std::vector<Record> out = load(path);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].subject, "second");
  EXPECT_EQ(out[0].signalName, "SIGBUS");
}

}  // namespace
}  // namespace hsis::obs::ledger
