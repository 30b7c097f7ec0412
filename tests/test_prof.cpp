// Tests for hsis::obs::prof — the sampling profiler, the BDD census
// rendezvous, and the exit-time profile export. Like test_obs.cpp, every
// test passes in both build modes: the census and the rendezvous stay live
// under HSIS_OBS_DISABLE (they are introspection/control flow), while
// assertions about recorded samples are gated on obs::kEnabled because the
// sampler itself compiles to a no-op there.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bdd/bdd.hpp"
#include "obs/control.hpp"
#include "obs/jsonlite.hpp"
#include "obs/obs.hpp"
#include "obs/prof.hpp"

namespace hsis::obs::prof {
namespace {

std::string slurpFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string firstLine(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

/// Sum of the per-level populations — must equal liveNodes.
uint64_t levelSum(const BddCensus& c) {
  uint64_t sum = 0;
  for (uint64_t n : c.levelNodes) sum += n;
  return sum;
}

void expectCensusInvariants(const BddCensus& c) {
  EXPECT_EQ(levelSum(c), c.liveNodes);
  EXPECT_EQ(c.allocatedNodes, c.liveNodes + c.freeNodes);
  EXPECT_LE(c.deadNodes, c.liveNodes);
  EXPECT_GE(c.peakLiveNodes, c.liveNodes);
  EXPECT_LE(c.cacheUsed, c.cacheEntries);
  EXPECT_LE(c.cacheHits, c.cacheLookups);
}

/// A function with enough structure to populate several levels: the
/// pairwise conjunction-of-xors over 2k variables.
hsis::Bdd buildXorChain(hsis::BddManager& mgr, uint32_t pairs) {
  hsis::Bdd f = mgr.bddOne();
  for (uint32_t i = 0; i < pairs; ++i) {
    f &= mgr.bddVar(2 * i) ^ mgr.bddVar(2 * i + 1);
  }
  return f;
}

// ------------------------------------------------------------- BDD census

TEST(ProfCensus, InvariantsHoldAfterBuilding) {
  hsis::BddManager mgr(12);
  hsis::Bdd f = buildXorChain(mgr, 6);
  BddCensus c = mgr.census();
  expectCensusInvariants(c);
  EXPECT_GT(c.liveNodes, 0u);
  EXPECT_EQ(c.levelNodes.size(), 12u);
  EXPECT_EQ(c.liveNodes, mgr.liveNodeCount());
  // The xor chain touches every variable, so every level is populated.
  for (uint64_t n : c.levelNodes) EXPECT_GT(n, 0u);
}

TEST(ProfCensus, GcDrivesDeadNodesToZero) {
  hsis::BddManager mgr(12);
  hsis::Bdd keep = buildXorChain(mgr, 3);
  {
    // Garbage: referenced only inside this scope.
    hsis::Bdd tmp = buildXorChain(mgr, 6) ^ mgr.bddVar(11);
  }
  BddCensus before = mgr.census();
  expectCensusInvariants(before);
  EXPECT_GT(before.deadNodes, 0u);

  mgr.gc();
  BddCensus after = mgr.census();
  expectCensusInvariants(after);
  EXPECT_EQ(after.deadNodes, 0u);
  EXPECT_LT(after.liveNodes, before.liveNodes);
  EXPECT_EQ(after.gcRuns, before.gcRuns + 1);
  // gc frees slots instead of shrinking the arena.
  EXPECT_GT(after.freeNodes, before.freeNodes);
}

TEST(ProfCensus, InvariantsSurviveReordering) {
  hsis::BddManager mgr(12);
  hsis::Bdd f = buildXorChain(mgr, 6);
  BddCensus before = mgr.census();
  mgr.sift();
  BddCensus after = mgr.census();
  expectCensusInvariants(after);
  EXPECT_EQ(after.reorderings, before.reorderings + 1);
  EXPECT_GT(after.liveNodes, 0u);
  EXPECT_EQ(after.levelNodes.size(), 12u);
}

TEST(ProfCensus, CacheOccupancyGrowsWithWork) {
  hsis::BddManager mgr(8);
  EXPECT_EQ(mgr.census().cacheUsed, 0u);
  hsis::Bdd f = buildXorChain(mgr, 4);
  BddCensus c = mgr.census();
  EXPECT_GT(c.cacheUsed, 0u);
  EXPECT_GT(c.cacheLookups, 0u);
  mgr.clearCaches();
  EXPECT_EQ(mgr.census().cacheUsed, 0u);
}

// -------------------------------------------------------------- rendezvous

TEST(ProfRendezvous, ManagerPublishesAtSafePoint) {
  clearCensus();
  EXPECT_FALSE(latestCensus().has_value());
  EXPECT_FALSE(censusRequested());

  requestCensus();
  EXPECT_TRUE(censusRequested());

  // Any public op boundary answers the request.
  hsis::BddManager mgr(6);
  hsis::Bdd f = mgr.bddVar(0) & mgr.bddVar(1);

  EXPECT_FALSE(censusRequested());
  auto c = latestCensus();
  ASSERT_TRUE(c.has_value());
  expectCensusInvariants(*c);
  EXPECT_GT(c->seq, 0u);
  EXPECT_GT(c->tNs, 0u);
  clearCensus();
}

TEST(ProfRendezvous, NoPublicationWithoutRequest) {
  clearCensus();
  hsis::BddManager mgr(6);
  hsis::Bdd f = mgr.bddVar(0) | mgr.bddVar(1);
  EXPECT_FALSE(latestCensus().has_value());
}

// ----------------------------------------------------------------- sampler

TEST(ProfSampler, StartStopIsIdempotent) {
  Profiler& p = Profiler::instance();
  p.stop();
  EXPECT_FALSE(p.running());
  p.stop();  // stop without start: no-op

  ProfOptions opts;
  opts.intervalMs = 1000;  // never ticks within this test
  p.start(opts);
  EXPECT_EQ(p.running(), kEnabled);
  p.start(opts);  // restart while running
  EXPECT_EQ(p.running(), kEnabled);
  p.stop();
  EXPECT_FALSE(p.running());
  p.stop();
  EXPECT_FALSE(p.running());
}

TEST(ProfSampler, FoldedAggregationMatchesPhaseScript) {
  Profiler& p = Profiler::instance();
  p.stop();
  p.clear();
  {
    Span outer("prof.test.alpha");
    {
      Span inner("prof.test.beta");
      p.sampleOnce();
      p.sampleOnce();
    }
    p.sampleOnce();
  }
  p.sampleOnce();  // idle: no open phase anywhere

  if (kEnabled) {
    EXPECT_EQ(p.sampleCount(), 4u);
    std::string folded = p.foldedStacks();
    EXPECT_NE(folded.find("prof.test.alpha;prof.test.beta 2\n"),
              std::string::npos);
    EXPECT_NE(folded.find("prof.test.alpha 1\n"), std::string::npos);
    std::vector<ProfSample> samples = p.samples();
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples[0].folded.size(), 1u);
    EXPECT_EQ(samples[3].folded.size(), 0u);  // idle tick records no stack
    EXPECT_GT(samples[0].rssKb, 0u);
  } else {
    EXPECT_EQ(p.sampleCount(), 0u);
    EXPECT_TRUE(p.foldedStacks().empty());
  }
  p.clear();
}

TEST(ProfSampler, CapturesStacksOfOtherThreads) {
  if (!kEnabled) GTEST_SKIP() << "spans compile to no-ops";
  Profiler& p = Profiler::instance();
  p.stop();
  p.clear();

  std::mutex mu;
  std::condition_variable cv;
  bool opened = false;
  bool release = false;
  std::thread worker([&] {
    Span s("prof.test.worker");
    std::unique_lock<std::mutex> lock(mu);
    opened = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return opened; });
  }
  p.sampleOnce();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  worker.join();

  EXPECT_NE(p.foldedStacks().find("prof.test.worker"), std::string::npos);
  p.clear();
}

TEST(ProfSampler, SampleRecordsParseAndCarryCensus) {
  Profiler& p = Profiler::instance();
  p.stop();
  p.clear();
  clearCensus();

  // Publish a census, then tick once inside a phase.
  requestCensus();
  hsis::BddManager mgr(8);
  hsis::Bdd f = buildXorChain(mgr, 4);
  {
    Span span("prof.test.jsonl");
    p.sampleOnce();
  }

  // The header parses in both modes and declares the schema.
  jsonlite::Value header = jsonlite::parse(p.headerJson());
  ASSERT_TRUE(header.isObject());
  EXPECT_EQ(jsonlite::find(header.object(), "schema")->str(), "hsis-prof-v1");
  EXPECT_EQ(jsonlite::find(header.object(), "enabled")->boolean(), kEnabled);
  EXPECT_EQ(firstLine(p.censusJsonl()), p.headerJson());

  if (kEnabled) {
    std::vector<ProfSample> samples = p.samples();
    ASSERT_EQ(samples.size(), 1u);
    const ProfSample& s = samples[0];
    ASSERT_TRUE(s.census.has_value());
    expectCensusInvariants(*s.census);

    jsonlite::Value rec = jsonlite::parse(s.toJsonl());
    ASSERT_TRUE(rec.isObject());
    const jsonlite::Object& o = rec.object();
    EXPECT_EQ(jsonlite::find(o, "kind")->str(), "sample");
    EXPECT_EQ(jsonlite::find(o, "live_nodes")->number(),
              static_cast<double>(s.census->liveNodes));
    ASSERT_NE(jsonlite::find(o, "stacks"), nullptr);
    const jsonlite::Array& stacks = jsonlite::find(o, "stacks")->array();
    ASSERT_EQ(stacks.size(), 1u);
    EXPECT_EQ(stacks[0].str(), "prof.test.jsonl");
    EXPECT_EQ(jsonlite::find(o, "level_nodes")->array().size(), 8u);
  }
  p.clear();
  clearCensus();
}

TEST(ProfSampler, BackgroundThreadTicksAndSpills) {
  std::string spillPath =
      testing::TempDir() + "hsis_prof_spill_test.census.jsonl";
  std::remove(spillPath.c_str());

  Profiler& p = Profiler::instance();
  ProfOptions opts;
  opts.intervalMs = 1;
  opts.jsonlPath = spillPath;
  p.start(opts);
  {
    // Keep a BDD manager busy so ticks see phases and censuses.
    Span span("prof.test.busy");
    hsis::BddManager mgr(16);
    for (int round = 0; round < 40; ++round) {
      hsis::Bdd f = buildXorChain(mgr, 8);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  p.stop();

  if (kEnabled) {
    EXPECT_GT(p.sampleCount(), 0u);
    std::string spilled = slurpFile(spillPath);
    ASSERT_FALSE(spilled.empty());
    EXPECT_EQ(firstLine(spilled), p.headerJson());
    // Every spilled line is valid JSON (the whole point of JSONL).
    std::istringstream lines(spilled);
    std::string line;
    size_t n = 0;
    while (std::getline(lines, line)) {
      EXPECT_NO_THROW(jsonlite::parse(line)) << "line " << n;
      ++n;
    }
    EXPECT_EQ(n, 1 + p.sampleCount() - p.droppedSamples());
  }
  p.clear();
  std::remove(spillPath.c_str());
}

// ------------------------------------------------------------ exit export

TEST(ProfFiles, WriteProfileFilesLandsBothFilesEvenAfterAbort) {
  std::string base = testing::TempDir() + "hsis_prof_abort_test";
  std::remove((base + ".folded").c_str());
  std::remove((base + ".census.jsonl").c_str());

  Profiler& p = Profiler::instance();
  p.stop();
  p.clear();
  ProfOptions opts;
  opts.intervalMs = 1000;
  p.start(opts);
  {
    Span span("prof.test.aborted");
    p.sampleOnce();
  }
  // Simulate a watchdog breach mid-run; the export must still happen.
  requestAbort("test abort", "prof.test.aborted");
  writeProfileFiles(base);
  clearAbort();

  EXPECT_FALSE(p.running());  // writeProfileFiles stops the sampler
  std::string folded = slurpFile(base + ".folded");
  std::string census = slurpFile(base + ".census.jsonl");
  ASSERT_FALSE(census.empty());
  jsonlite::Value header = jsonlite::parse(firstLine(census));
  EXPECT_EQ(jsonlite::find(header.object(), "schema")->str(), "hsis-prof-v1");
  if (kEnabled) {
    EXPECT_NE(folded.find("prof.test.aborted 1\n"), std::string::npos);
  } else {
    EXPECT_TRUE(folded.empty());
  }
  p.clear();
  std::remove((base + ".folded").c_str());
  std::remove((base + ".census.jsonl").c_str());
}

// --------------------------------------------------------------- CLI flags

TEST(ProfCli, StripRecognizesProfileFlags) {
  const char* raw[] = {"prog",           "--profile-out", "out/myprof",
                       "--profile-interval-ms", "5",      "design.v"};
  int argc = 6;
  char* argv[7] = {};  // argv[argc] is the terminating nullptr
  for (int i = 0; i < argc; ++i) argv[i] = const_cast<char*>(raw[i]);

  ObsCliOptions opts = stripObsCliFlags(argc, argv);
  EXPECT_TRUE(opts.profile);
  EXPECT_EQ(opts.profileBasePath, "out/myprof");
  EXPECT_EQ(opts.profileIntervalMs, 5u);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "design.v");
}

TEST(ProfCli, BareProfileFlagUsesDefaults) {
  const char* raw[] = {"prog", "--profile"};
  int argc = 2;
  char* argv[3] = {};  // argv[argc] is the terminating nullptr
  for (int i = 0; i < argc; ++i) argv[i] = const_cast<char*>(raw[i]);

  ObsCliOptions opts = stripObsCliFlags(argc, argv);
  EXPECT_TRUE(opts.profile);
  EXPECT_TRUE(opts.profileBasePath.empty());
  EXPECT_EQ(opts.profileIntervalMs, 0u);
  EXPECT_EQ(argc, 1);
}

}  // namespace
}  // namespace hsis::obs::prof
