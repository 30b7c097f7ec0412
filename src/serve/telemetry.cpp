#include "serve/telemetry.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_map>

#include "obs/jsonlite.hpp"
#include "obs/obs.hpp"
#include "obs/prof.hpp"
#include "obs/tracectx.hpp"

namespace hsis::serve {

namespace {

bool writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

std::string requestJson(const SlowRequestInfo& info) {
  std::string out;
  obs::jsonlite::Writer w(out);
  w.beginObject().key("schema").value("hsis-slow-request-v1");
  w.key("trace_id").value(obs::traceIdHex(info.traceId));
  w.key("id").value(info.requestId).key("name").value(info.name);
  w.key("digest").value(info.digest).key("verdict").value(info.verdict);
  w.key("detail").value(info.detail);
  w.key("cache").value(info.cacheHit ? "hit" : "miss");
  w.key("wall_s").value(info.wallSeconds);
  w.key("threshold_s").value(info.thresholdSeconds);
  const StageMicros& st = info.stages;
  w.key("stages").beginObject().key("queue").value(st.queue);
  w.key("parse").value(st.parse).key("tr").value(st.tr);
  w.key("reach").value(st.reach).key("check").value(st.check);
  w.key("render").value(st.render).endObject().endObject();
  out += '\n';
  return out;
}

/// The request's spans only: everything the tracer ring still holds that
/// was stamped with this trace id. Parent links into spans outside the
/// filter (e.g. long-lived daemon spans) are cut, making those spans roots.
obs::Snapshot filteredSnapshot(uint64_t traceId) {
  obs::Snapshot snap;
  for (obs::SpanSample& s : obs::Tracer::instance().completed()) {
    if (s.traceId == traceId) snap.spans.push_back(std::move(s));
  }
  snap.threadNames = obs::threadNames();
  return snap;
}

/// Folded self-time stacks from the filtered spans — the flamegraph view
/// of one request. Each line is `outer;inner <self-micros>`; self time is
/// the span's duration minus its (captured) children's.
std::string foldedProfile(const obs::Snapshot& snap) {
  std::unordered_map<uint64_t, size_t> byId;
  for (size_t i = 0; i < snap.spans.size(); ++i) byId[snap.spans[i].id] = i;
  std::vector<uint64_t> childNs(snap.spans.size(), 0);
  for (const obs::SpanSample& s : snap.spans) {
    if (s.parent < 0) continue;
    auto it = byId.find(static_cast<uint64_t>(s.parent));
    if (it != byId.end()) childNs[it->second] += s.durationNs;
  }
  // stack -> aggregated self micros (map: deterministic output order)
  std::map<std::string, uint64_t> folded;
  for (size_t i = 0; i < snap.spans.size(); ++i) {
    const obs::SpanSample& s = snap.spans[i];
    std::string stack = s.name;
    int64_t up = s.parent;
    size_t guard = 0;
    while (up >= 0 && guard++ < snap.spans.size()) {
      auto it = byId.find(static_cast<uint64_t>(up));
      if (it == byId.end()) break;
      stack = snap.spans[it->second].name + ";" + stack;
      up = snap.spans[it->second].parent;
    }
    uint64_t selfNs =
        s.durationNs > childNs[i] ? s.durationNs - childNs[i] : 0;
    folded[stack] += selfNs / 1000;
  }
  std::string out;
  for (const auto& [stack, micros] : folded) {
    out += stack + " " + std::to_string(micros) + "\n";
  }
  return out;
}

std::string censusJsonl(uint64_t traceId) {
  std::string out = "{\"schema\": \"hsis-prof-v1\", \"kind\": \"header\", "
                    "\"source\": \"slow-request\", \"trace_id\": \"" +
                    obs::traceIdHex(traceId) + "\"}\n";
  if (auto c = obs::prof::latestCensus()) {
    obs::jsonlite::Writer w(out);
    w.beginObject().key("kind").value("census").key("seq").value(c->seq);
    w.key("t_ns").value(c->tNs).key("live_nodes").value(c->liveNodes);
    w.key("allocated_nodes").value(c->allocatedNodes);
    w.key("dead_nodes").value(c->deadNodes);
    w.key("cache_lookups").value(c->cacheLookups);
    w.key("cache_hits").value(c->cacheHits).key("gc_runs").value(c->gcRuns);
    w.key("reorderings").value(c->reorderings);
    w.key("peak_live_nodes").value(c->peakLiveNodes);
    w.key("dead_fraction").value(c->deadFraction()).endObject();
    out += '\n';
  }
  return out;
}

}  // namespace

std::string writeSlowRequestArtifacts(const std::string& artifactRoot,
                                      const SlowRequestInfo& info) {
  if (artifactRoot.empty() || info.traceId == 0) return "";
  std::error_code ec;
  std::filesystem::path dir =
      std::filesystem::path(artifactRoot) / obs::traceIdHex(info.traceId);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "serve: cannot create slow-request dir %s\n",
                 dir.string().c_str());
    return "";
  }
  obs::Snapshot snap = filteredSnapshot(info.traceId);
  bool ok = writeFile(dir / "request.json", requestJson(info));
  ok = writeFile(dir / "trace.json", obs::toChromeTrace(snap)) && ok;
  ok = writeFile(dir / "profile.folded", foldedProfile(snap)) && ok;
  ok = writeFile(dir / "census.jsonl", censusJsonl(info.traceId)) && ok;
  if (!ok) {
    std::fprintf(stderr, "serve: short slow-request capture in %s\n",
                 dir.string().c_str());
  }
  return dir.string();
}

}  // namespace hsis::serve
