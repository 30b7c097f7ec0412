// The sampling profiler: census rendezvous, the sampler's ticker entry,
// folded stack aggregation, and the hsis-prof-v1 JSONL export. See
// prof.hpp for the design.
#include "obs/prof.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <utility>

#include "obs/control.hpp"
#include "obs/jsonlite.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/ring.hpp"

namespace hsis::obs::prof {

// -------------------------------------------------------- census rendezvous

namespace detail {
std::atomic_bool g_censusRequested{false};
}  // namespace detail

namespace {

struct CensusBoard {
  std::mutex mu;
  std::optional<BddCensus> latest;
  uint64_t nextSeq = 1;
};

CensusBoard& censusBoard() {
  static CensusBoard* b = new CensusBoard;  // leaked, see registry.cpp
  return *b;
}

}  // namespace

bool censusRequested() noexcept {
  return detail::g_censusRequested.load(std::memory_order_relaxed);
}

void requestCensus() noexcept {
  detail::g_censusRequested.store(true, std::memory_order_relaxed);
}

void publishCensus(BddCensus c) {
  CensusBoard& b = censusBoard();
  std::lock_guard<std::mutex> lock(b.mu);
  c.seq = b.nextSeq++;
  c.tNs = WallTimer::nowNs();
  // Keep the flight recorder's pre-serialized census current: a crash
  // between publications then still reports the latest BDD heap shape.
  if (flight::installed()) {
    std::string line;
    jsonlite::Writer w(line);
    w.beginObject().key("kind").value("census").key("seq").value(c.seq);
    w.key("t_ns").value(c.tNs).key("live_nodes").value(c.liveNodes);
    w.key("allocated_nodes").value(c.allocatedNodes);
    w.key("dead_nodes").value(c.deadNodes);
    w.key("cache_lookups").value(c.cacheLookups);
    w.key("cache_hits").value(c.cacheHits).key("gc_runs").value(c.gcRuns);
    w.key("reorderings").value(c.reorderings);
    w.key("peak_live_nodes").value(c.peakLiveNodes).endObject();
    line += '\n';
    flight::detail::publishCensusLine(line);
  }
  b.latest = std::move(c);
  detail::g_censusRequested.store(false, std::memory_order_relaxed);
}

std::optional<BddCensus> latestCensus() {
  CensusBoard& b = censusBoard();
  std::lock_guard<std::mutex> lock(b.mu);
  return b.latest;
}

void clearCensus() {
  CensusBoard& b = censusBoard();
  std::lock_guard<std::mutex> lock(b.mu);
  b.latest.reset();
  b.nextSeq = 1;
  detail::g_censusRequested.store(false, std::memory_order_relaxed);
}

// ------------------------------------------------------------ JSONL export

std::string ProfSample::toJsonl() const {
  std::string out;
  out.reserve(512);
  jsonlite::Writer w(out);
  w.beginObject().key("kind").value("sample").key("seq").value(seq);
  w.key("t_s").value(tSeconds).key("rss_kb").value(rssKb);
  w.key("stacks").beginArray();
  for (const std::string& stack : folded) w.value(stack);
  w.endArray();
  if (census.has_value()) {
    const BddCensus& c = *census;
    w.key("census_seq").value(c.seq);
    w.key("live_nodes").value(c.liveNodes);
    w.key("allocated_nodes").value(c.allocatedNodes);
    w.key("free_nodes").value(c.freeNodes);
    w.key("dead_nodes").value(c.deadNodes);
    w.key("dead_fraction").value(c.deadFraction());
    w.key("unique_buckets").value(c.uniqueBuckets);
    w.key("unique_load").value(c.uniqueLoad());
    w.key("cache_entries").value(c.cacheEntries);
    w.key("cache_used").value(c.cacheUsed);
    w.key("cache_lookups").value(c.cacheLookups);
    w.key("cache_hits").value(c.cacheHits);
    w.key("d_cache_lookups").value(dCacheLookups);
    w.key("d_cache_hits").value(dCacheHits);
    w.key("gc_runs").value(c.gcRuns);
    w.key("d_gc_runs").value(dGcRuns);
    w.key("reorder_count").value(c.reorderings);
    w.key("d_reorder_count").value(dReorderings);
    w.key("peak_live_nodes").value(c.peakLiveNodes);
    w.key("level_nodes").beginArray();
    for (uint64_t n : c.levelNodes) w.value(n);
    w.endArray();
  } else {
    w.key("census_seq").value(nullptr);
  }
  w.endObject();
  return out;
}

// ----------------------------------------------------------------- sampler

struct Profiler::Impl {
  mutable std::mutex mu;
  uint64_t tick = 0;  ///< ticker entry; 0 = not sampling
  ProfOptions opts;

  // Sample ring + folded-stack aggregate.
  DropOldestRing<ProfSample> ring{ProfOptions{}.ringCapacity};
  uint64_t taken = 0;
  std::map<std::string, uint64_t> foldedCounts;

  // Per-tick state.
  uint64_t startNs = WallTimer::nowNs();
  uint64_t lastCensusSeq = 0;
  uint64_t lastCacheLookups = 0;
  uint64_t lastCacheHits = 0;
  uint64_t lastGcRuns = 0;
  uint64_t lastReorderings = 0;

  std::ofstream spill;
  bool spillHeaderWritten = false;

  /// Drop every sample and aggregate and restart the clock. Caller holds mu.
  void resetSamples() {
    ring.reset(opts.ringCapacity);
    taken = 0;
    foldedCounts.clear();
    startNs = WallTimer::nowNs();
    lastCensusSeq = lastCacheLookups = lastCacheHits = 0;
    lastGcRuns = lastReorderings = 0;
  }
};

Profiler& Profiler::instance() {
  static Profiler p;
  return p;
}

Profiler::Impl& Profiler::impl() const {
  static Impl* impl = new Impl;  // leaked, see registry.cpp
  return *impl;
}

namespace {

/// The hsis-prof-v1 header line. Takes no lock: callers hold the
/// profiler's.
std::string renderHeader(const ProfOptions& opts) {
  std::string out;
  jsonlite::Writer w(out);
  w.beginObject().key("schema").value("hsis-prof-v1");
  w.key("kind").value("header").key("enabled").value(kEnabled);
  w.key("interval_ms").value(opts.intervalMs);
  w.key("ring_capacity").value(opts.ringCapacity).endObject();
  return out;
}

}  // namespace

std::string Profiler::headerJson() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return renderHeader(im.opts);
}

void Profiler::sampleOnce() {
  if constexpr (!kEnabled) return;
  Impl& im = impl();

  // Gather outside the lock: phaseStacks/latestCensus take their own.
  ProfSample s;
  for (const PhaseStackSnapshot& st : phaseStacks())
    s.folded.push_back(st.folded());
  s.census = latestCensus();
  // Ask for a fresh census for the *next* tick; the engine answers at its
  // next safe point, so each sample carries the latest one available.
  requestCensus();
  s.tNs = WallTimer::nowNs();
  s.rssKb = currentRssKb();

  std::lock_guard<std::mutex> lock(im.mu);
  s.seq = im.taken++;
  s.tSeconds = static_cast<double>(s.tNs - im.startNs) * 1e-9;
  if (s.census.has_value()) {
    // Deltas vs the previously sampled census. A manager restart (new
    // manager with smaller totals) would underflow; clamp to zero.
    auto delta = [](uint64_t now, uint64_t before) {
      return now >= before ? now - before : 0;
    };
    s.dCacheLookups = delta(s.census->cacheLookups, im.lastCacheLookups);
    s.dCacheHits = delta(s.census->cacheHits, im.lastCacheHits);
    s.dGcRuns = delta(s.census->gcRuns, im.lastGcRuns);
    s.dReorderings = delta(s.census->reorderings, im.lastReorderings);
    if (s.census->seq == im.lastCensusSeq) {
      // Same census as last tick (engine between safe points): totals
      // unchanged, deltas are zero by construction.
      s.dCacheLookups = s.dCacheHits = s.dGcRuns = s.dReorderings = 0;
    }
    im.lastCensusSeq = s.census->seq;
    im.lastCacheLookups = s.census->cacheLookups;
    im.lastCacheHits = s.census->cacheHits;
    im.lastGcRuns = s.census->gcRuns;
    im.lastReorderings = s.census->reorderings;
  }
  for (const std::string& f : s.folded) im.foldedCounts[f]++;

  if (im.spill.is_open()) {
    if (!im.spillHeaderWritten) {
      im.spillHeaderWritten = true;
      im.spill << renderHeader(im.opts) << '\n';
    }
    im.spill << s.toJsonl() << '\n';
    im.spill.flush();
  }

  im.ring.push(std::move(s));
}

void Profiler::start(ProfOptions options) {
  stop();
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.opts = std::move(options);
  if (im.opts.intervalMs == 0) im.opts.intervalMs = 1;
  if (im.opts.ringCapacity == 0) im.opts.ringCapacity = 1;
  im.resetSamples();
  im.spill = std::ofstream();
  im.spillHeaderWritten = false;
  if (!im.opts.jsonlPath.empty()) {
    std::error_code ec;
    std::filesystem::path p(im.opts.jsonlPath);
    if (p.has_parent_path())
      std::filesystem::create_directories(p.parent_path(), ec);
    im.spill.open(im.opts.jsonlPath, std::ios::trunc);
    if (!im.spill) {
      std::fprintf(stderr, "prof: cannot write %s\n",
                   im.opts.jsonlPath.c_str());
      // Forget the path so the exit-time export falls back to writing
      // the ring view instead of trusting a spill that never opened.
      im.opts.jsonlPath.clear();
    }
  }
  // A disabled build keeps the options (header/export reflect them) but
  // never samples.
  if (!kEnabled) return;
  const uint64_t intervalNs = obs::detail::periodNs(im.opts.intervalMs);
  im.tick = obs::detail::scheduleTick(
      WallTimer::nowNs() + intervalNs, [this, intervalNs](uint64_t now) {
        sampleOnce();
        return now + intervalNs;
      });
}

void Profiler::stop() {
  Impl& im = impl();
  std::unique_lock<std::mutex> lock(im.mu);
  const uint64_t tick = std::exchange(im.tick, 0);
  lock.unlock();  // the callback takes im.mu, so never cancel under it
  obs::detail::cancelTick(tick);
  lock.lock();
  im.spill.close();
}

bool Profiler::running() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.tick != 0;
}

void Profiler::clear() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.resetSamples();
}

uint64_t Profiler::sampleCount() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.taken;
}

uint64_t Profiler::droppedSamples() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.ring.dropped;
}

std::vector<ProfSample> Profiler::samples() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return {im.ring.items.begin(), im.ring.items.end()};
}

std::string Profiler::foldedStacks() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::string out;
  for (const auto& [stack, count] : im.foldedCounts) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string Profiler::censusJsonl() const {
  std::string out = headerJson() + "\n";
  for (const ProfSample& s : samples()) out += s.toJsonl() + "\n";
  return out;
}

std::string Profiler::spillPath() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.opts.jsonlPath;
}

namespace {

void writeText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) std::fprintf(stderr, "prof: cannot write %s\n", path.c_str());
  out << text;
}

}  // namespace

void writeProfileFiles(const std::string& basePath) {
  if (basePath.empty()) return;
  Profiler& p = Profiler::instance();
  const std::string spill = p.spillPath();
  p.stop();
  std::error_code ec;
  std::filesystem::path base(basePath);
  if (base.has_parent_path())
    std::filesystem::create_directories(base.parent_path(), ec);
  writeText(basePath + ".folded", p.foldedStacks());
  const std::string censusPath = basePath + ".census.jsonl";
  // When the run spilled write-through to this same file it already holds
  // the complete series (possibly longer than the ring); rewriting from
  // the ring would truncate history. A spill that never took a sample
  // (disabled build, aborted before the first tick) is rewritten so the
  // file at least carries a parseable header line.
  const bool spillHoldsSeries = spill == censusPath && p.sampleCount() > 0;
  if (!spillHoldsSeries) writeText(censusPath, p.censusJsonl());
}

}  // namespace hsis::obs::prof
