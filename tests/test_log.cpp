// Tests for hsis::obs::log (the structured event log) and
// hsis::obs::flight (the crash-safe flight recorder). Every test passes in
// both build modes: under HSIS_OBS_DISABLE the logger compiles out
// (enabled() is constexpr false, the ring stays empty) but the flight
// recorder stays live — a dump degrades to a valid header-only document.
//
// The crash path itself is covered by a death test: the child installs the
// recorder, opens a span, logs an event, and raises SIGSEGV; the parent
// asserts the process died with SIGSEGV and then parses the dump the
// handler left behind, line by line, with the in-repo jsonlite parser.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/control.hpp"
#include "obs/jsonlite.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"

namespace hsis::obs::log {
namespace {

namespace fs = std::filesystem;

std::string slurpFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

/// Fresh per-test scratch directory under the build tree.
fs::path scratchDir(const char* name) {
  fs::path dir = fs::temp_directory_path() / "hsis_log_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// RAII reset: each test starts from a clean ring, default level, no sinks.
struct LogReset {
  LogReset() {
    closeSinks();
    clearRing();
    setLevel(Level::Info);
  }
  ~LogReset() {
    closeSinks();
    clearRing();
    setLevel(Level::Info);
  }
};

const jsonlite::Value* field(const jsonlite::Object& obj, const char* key) {
  return jsonlite::find(obj, key);
}

// ------------------------------------------------------------------ levels

TEST(LogLevels, NamesRoundTrip) {
  for (Level l : {Level::Trace, Level::Debug, Level::Info, Level::Warn,
                  Level::Error, Level::Off}) {
    EXPECT_EQ(parseLevel(levelName(l)), l);
  }
  EXPECT_EQ(parseLevel("no-such-level"), Level::Info);
}

TEST(LogLevels, FilterGatesRecording) {
  LogReset reset;
  setLevel(Level::Warn);
  if (kEnabled) {
    EXPECT_FALSE(enabled(Level::Info));
    EXPECT_TRUE(enabled(Level::Warn));
    EXPECT_TRUE(enabled(Level::Error));
  } else {
    EXPECT_FALSE(enabled(Level::Error));
  }
  const uint64_t before = eventCount();
  HSIS_LOG_INFO("test.filter", "filtered out");
  EXPECT_EQ(eventCount(), before);
  HSIS_LOG_WARN("test.filter", "recorded");
  EXPECT_EQ(eventCount(), before + (kEnabled ? 1 : 0));
}

TEST(LogLevels, MacroDoesNotEvaluateFieldsWhenFiltered) {
  LogReset reset;
  setLevel(Level::Error);
  int evaluations = 0;
  auto count = [&evaluations] { return ++evaluations; };
  HSIS_LOG_DEBUG("test.lazy", "never", {{"n", count()}});
  EXPECT_EQ(evaluations, 0);
  HSIS_LOG_ERROR("test.lazy", "always", {{"n", count()}});
  EXPECT_EQ(evaluations, kEnabled ? 1 : 0);
}

// ----------------------------------------------------------- line rendering

TEST(LogRender, RingLineIsValidJsonWithTypedFields) {
  LogReset reset;
  HSIS_LOG_INFO("test.render", "typed fields",
                {{"i", -7},
                 {"u", 42u},
                 {"f", 2.5},
                 {"yes", true},
                 {"s", "hello \"quoted\"\n"}});
  std::vector<std::string> lines = ringLines();
  if (!kEnabled) {
    EXPECT_TRUE(lines.empty());
    return;
  }
  ASSERT_EQ(lines.size(), 1u);
  jsonlite::Value v = jsonlite::parse(lines[0]);
  ASSERT_TRUE(v.isObject());
  const jsonlite::Object& obj = v.object();
  EXPECT_EQ(field(obj, "kind")->str(), "event");
  EXPECT_EQ(field(obj, "lvl")->str(), "info");
  EXPECT_EQ(field(obj, "comp")->str(), "test.render");
  EXPECT_EQ(field(obj, "msg")->str(), "typed fields");
  EXPECT_GT(field(obj, "t_ns")->number(), 0.0);
  EXPECT_GE(field(obj, "tseq")->number(), 1.0);
  ASSERT_NE(field(obj, "fields"), nullptr);
  const jsonlite::Object& f = field(obj, "fields")->object();
  EXPECT_EQ(field(f, "i")->number(), -7.0);
  EXPECT_EQ(field(f, "u")->number(), 42.0);
  EXPECT_EQ(field(f, "f")->number(), 2.5);
  EXPECT_TRUE(field(f, "yes")->boolean());
  EXPECT_EQ(field(f, "s")->str(), "hello \"quoted\"\n");
}

TEST(LogRender, OversizedLineBecomesTruncatedStandIn) {
  LogReset reset;
  // A message larger than a whole ring slot: the ring must carry a short,
  // VALID stand-in, never a torn prefix.
  std::string big(2 * kRingSlotBytes, 'x');
  HSIS_LOG_INFO("test.trunc", big, {{"payload", std::string_view(big)}});
  std::vector<std::string> lines = ringLines();
  if (!kEnabled) {
    EXPECT_TRUE(lines.empty());
    return;
  }
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_LE(lines[0].size(), kRingSlotBytes);
  jsonlite::Value v = jsonlite::parse(lines[0]);
  const jsonlite::Object& obj = v.object();
  EXPECT_TRUE(field(obj, "truncated")->boolean());
  EXPECT_EQ(field(obj, "comp")->str(), "test.trunc");
}

TEST(LogRender, PerThreadSequenceNumbers) {
  LogReset reset;
  if (!kEnabled) GTEST_SKIP() << "logger compiled out";
  auto worker = [] {
    for (int i = 0; i < 5; ++i) HSIS_LOG_INFO("test.tseq", "tick");
  };
  std::thread a(worker), b(worker);
  a.join();
  b.join();
  // Each thread numbers its own events 1..5 regardless of interleaving.
  std::map<double, std::vector<double>> perThread;
  for (const std::string& line : ringLines()) {
    jsonlite::Value v = jsonlite::parse(line);
    const jsonlite::Object& obj = v.object();
    perThread[field(obj, "tid")->number()].push_back(
        field(obj, "tseq")->number());
  }
  ASSERT_EQ(perThread.size(), 2u);
  for (auto& [tid, seqs] : perThread) {
    ASSERT_EQ(seqs.size(), 5u) << "tid " << tid;
    for (size_t i = 0; i < seqs.size(); ++i)
      EXPECT_EQ(seqs[i], static_cast<double>(i + 1));
  }
}

// -------------------------------------------------------------------- ring

TEST(LogRing, WrapsKeepingNewestOldestFirst) {
  LogReset reset;
  if (!kEnabled) GTEST_SKIP() << "logger compiled out";
  const int total = static_cast<int>(kRingSlots) + 17;
  for (int i = 0; i < total; ++i)
    HSIS_LOG_INFO("test.wrap", "n", {{"n", i}});
  EXPECT_EQ(eventCount(), static_cast<uint64_t>(total));
  std::vector<std::string> lines = ringLines();
  ASSERT_EQ(lines.size(), kRingSlots);
  // Oldest surviving event is total - kRingSlots; order is oldest-first.
  for (size_t i = 0; i < lines.size(); ++i) {
    jsonlite::Value v = jsonlite::parse(lines[i]);
    const jsonlite::Object& f = field(v.object(), "fields")->object();
    EXPECT_EQ(field(f, "n")->number(),
              static_cast<double>(total - kRingSlots + i));
  }
}

TEST(LogRing, ClearRingEmptiesIt) {
  LogReset reset;
  HSIS_LOG_INFO("test.clear", "x");
  clearRing();
  EXPECT_TRUE(ringLines().empty());
  EXPECT_EQ(eventCount(), 0u);
}

// ------------------------------------------------------------------- sinks

TEST(LogSinks, JsonlSinkWritesHeaderAndEvents) {
  LogReset reset;
  fs::path dir = scratchDir("jsonl_sink");
  std::string path = (dir / "log.jsonl").string();
  openJsonlSink(path);
  HSIS_LOG_INFO("test.sink", "first");
  HSIS_LOG_WARN("test.sink", "second", {{"k", 1}});
  closeSinks();
  std::vector<std::string> lines = splitLines(slurpFile(path));
  // Header line always written (sink open is control flow).
  ASSERT_GE(lines.size(), 1u);
  jsonlite::Value headVal = jsonlite::parse(lines[0]);
  const jsonlite::Object& head = headVal.object();
  EXPECT_EQ(field(head, "schema")->str(), "hsis-log-v1");
  if (kEnabled) {
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(field(jsonlite::parse(lines[1]).object(), "msg")->str(),
              "first");
    EXPECT_EQ(field(jsonlite::parse(lines[2]).object(), "lvl")->str(),
              "warn");
  }
}

TEST(LogSinks, HumanSinkFormatsOneLinePerEvent) {
  LogReset reset;
  fs::path dir = scratchDir("human_sink");
  std::string path = (dir / "human.txt").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  setHumanSink(f);
  HSIS_LOG_WARN("test.human", "watch out", {{"n", 3}});
  setHumanSink(nullptr);
  std::fclose(f);
  std::string text = slurpFile(path);
  if (kEnabled) {
    EXPECT_NE(text.find("[hsis warn"), std::string::npos);
    EXPECT_NE(text.find("test.human] watch out n=3"), std::string::npos);
  } else {
    EXPECT_TRUE(text.empty());
  }
}

}  // namespace
}  // namespace hsis::obs::log

// --------------------------------------------------------- flight recorder

namespace hsis::obs::flight {
namespace {

namespace fs = std::filesystem;
using log::kRingSlotBytes;

std::string slurpFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

fs::path scratchDir(const char* name) {
  fs::path dir = fs::temp_directory_path() / "hsis_flight_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Parse every line of a dump; fails the test on any malformed line.
/// Returns the parsed objects keyed by their order in the file.
std::vector<jsonlite::Object> parseDump(const std::string& path) {
  std::vector<jsonlite::Object> out;
  for (const std::string& line : splitLines(slurpFile(path))) {
    jsonlite::Value v = jsonlite::parse(line);  // throws -> test failure
    EXPECT_TRUE(v.isObject()) << line;
    out.push_back(v.object());
  }
  return out;
}

std::string kindOf(const jsonlite::Object& obj) {
  const jsonlite::Value* k = jsonlite::find(obj, "kind");
  return k != nullptr && k->isString() ? k->str() : "";
}

/// Find the single dump file the crashed child left in `dir` (its pid is
/// not ours, so the parent globs instead of calling dumpPath()).
std::string findDump(const fs::path& dir) {
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("hsis-flight-", 0) == 0) return e.path().string();
  }
  return "";
}

TEST(FlightRecorder, InstallSetsPathAndUninstallClearsIt) {
  fs::path dir = scratchDir("install");
  install(dir.string(), "hsis_tests");
  EXPECT_TRUE(installed());
  std::string path = dumpPath();
  EXPECT_NE(path.find("hsis-flight-"), std::string::npos);
  EXPECT_NE(path.find(dir.string()), std::string::npos);
  uninstall();
  EXPECT_FALSE(installed());
  EXPECT_EQ(dumpPath(), "");
}

TEST(FlightRecorder, DumpWithoutInstallFails) {
  uninstall();
  EXPECT_FALSE(dump("not installed"));
}

TEST(FlightRecorder, NormalContextDumpCarriesPhasesAndRing) {
  log::clearRing();
  log::setLevel(log::Level::Info);
  fs::path dir = scratchDir("normal_dump");
  install(dir.string(), "hsis_tests");
  {
    Span outer("flight.outer");
    Span inner("flight.inner");
    HSIS_LOG_INFO("test.flight", "before dump", {{"marker", 99}});
    ASSERT_TRUE(dump("watchdog: test breach"));
  }
  std::string path = dumpPath();
  uninstall();

  std::vector<jsonlite::Object> objs = parseDump(path);
  ASSERT_FALSE(objs.empty());
  // Line 1: the header, with the reason and live RSS.
  EXPECT_EQ(jsonlite::find(objs[0], "schema")->str(), "hsis-flight-v1");
  EXPECT_EQ(kindOf(objs[0]), "header");
  EXPECT_EQ(jsonlite::find(objs[0], "driver")->str(), "hsis_tests");
  EXPECT_EQ(jsonlite::find(objs[0], "reason")->str(),
            "watchdog: test breach");
  EXPECT_GT(jsonlite::find(objs[0], "rss_kb")->number(), 0.0);
  EXPECT_EQ(jsonlite::find(objs[0], "obs_enabled")->boolean(), kEnabled);

  size_t phaseLines = 0, eventLines = 0;
  bool sawMarker = false, sawFrames = false;
  for (const jsonlite::Object& obj : objs) {
    const std::string kind = kindOf(obj);
    if (kind == "phase_stack") {
      ++phaseLines;
      const std::string& frames = jsonlite::find(obj, "frames")->str();
      if (frames.find("flight.outer;flight.inner") != std::string::npos)
        sawFrames = true;
    } else if (kind == "event") {
      ++eventLines;
      const jsonlite::Value* f = jsonlite::find(obj, "fields");
      if (f != nullptr &&
          jsonlite::find(f->object(), "marker") != nullptr)
        sawMarker = true;
    }
  }
  if (kEnabled) {
    EXPECT_GE(phaseLines, 1u);
    EXPECT_TRUE(sawFrames);
    EXPECT_GE(eventLines, 1u);
    EXPECT_TRUE(sawMarker);
    EXPECT_GE(jsonlite::find(objs[0], "ring_events_total")->number(), 1.0);
  } else {
    // Header-only document: spans and events are compiled out, but the
    // dump is still schema-valid (this is the disabled-mode guarantee).
    EXPECT_EQ(phaseLines, 0u);
    EXPECT_EQ(eventLines, 0u);
  }
  log::clearRing();
}

TEST(FlightRecorder, CopyIfStableSkipsARewrittenBlock) {
  std::atomic<uint32_t> seq{4};
  int copies = 0;
  EXPECT_TRUE(detail::copyIfStable(seq, [&] { ++copies; }));
  EXPECT_EQ(copies, 1);
  // A publish in progress (odd count): no copy is even attempted.
  seq.store(5);
  EXPECT_FALSE(detail::copyIfStable(seq, [&] { ++copies; }));
  EXPECT_EQ(copies, 1);
  // A publish that starts during the copy, or starts and completes.
  seq.store(6);
  EXPECT_FALSE(detail::copyIfStable(seq, [&] { seq.fetch_add(1); }));
  seq.store(8);
  EXPECT_FALSE(detail::copyIfStable(seq, [&] { seq.fetch_add(2); }));
  EXPECT_TRUE(detail::copyIfStable(seq, [] {}));
}

TEST(FlightRecorder, AbortRequestWritesDump) {
  log::clearRing();
  fs::path dir = scratchDir("abort_dump");
  install(dir.string(), "hsis_tests");
  std::string path = dumpPath();
  requestAbort("memory limit breached", "test.phase");
  uninstall();
  clearAbort();

  std::vector<jsonlite::Object> objs = parseDump(path);
  ASSERT_FALSE(objs.empty());
  EXPECT_EQ(kindOf(objs[0]), "header");
  EXPECT_NE(jsonlite::find(objs[0], "reason")->str().find(
                "memory limit breached"),
            std::string::npos);
  log::clearRing();
}

// The crash path proper. gtest re-executes the binary for the statement in
// threadsafe style, so the child is a fresh process: it installs the
// recorder into a directory the parent chose, produces some state, and
// dies by SIGSEGV. SA_RESETHAND + re-raise means the exit status is the
// real signal, which EXPECT_EXIT asserts; then the parent parses the dump.
TEST(FlightRecorderDeathTest, SigsegvWritesSchemaValidDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  fs::path dir = scratchDir("segv");
  EXPECT_EXIT(
      {
        log::setLevel(log::Level::Info);
        install(dir.string(), "hsis_tests");
        Span phase("crash.phase");
        HSIS_LOG_INFO("test.crash", "about to fault", {{"armed", true}});
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");

  std::string path = findDump(dir);
  ASSERT_FALSE(path.empty()) << "no dump written in " << dir;
  std::vector<jsonlite::Object> objs = parseDump(path);
  ASSERT_FALSE(objs.empty());
  EXPECT_EQ(jsonlite::find(objs[0], "schema")->str(), "hsis-flight-v1");
  EXPECT_EQ(kindOf(objs[0]), "header");
  EXPECT_NE(jsonlite::find(objs[0], "reason")->str().find("SIGSEGV"),
            std::string::npos);

  size_t phaseLines = 0, eventLines = 0;
  for (const jsonlite::Object& obj : objs) {
    if (kindOf(obj) == "phase_stack") ++phaseLines;
    if (kindOf(obj) == "event") ++eventLines;
  }
  if (kEnabled) {
    EXPECT_GE(phaseLines, 1u) << "phase stack missing from crash dump";
    EXPECT_GE(eventLines, 1u) << "ring events missing from crash dump";
  }
}

TEST(FlightRecorderDeathTest, SigabrtWritesDumpToo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  fs::path dir = scratchDir("abrt");
  EXPECT_EXIT(
      {
        install(dir.string(), "hsis_tests");
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  std::string path = findDump(dir);
  ASSERT_FALSE(path.empty());
  std::vector<jsonlite::Object> objs = parseDump(path);
  ASSERT_FALSE(objs.empty());
  EXPECT_NE(jsonlite::find(objs[0], "reason")->str().find("SIGABRT"),
            std::string::npos);
}

}  // namespace
}  // namespace hsis::obs::flight
