#include "serve/telemetry.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/control.hpp"
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

/// The census file in the profiler's own hsis-prof-v1 form: its header,
/// then one sample carrying the latest published census.
std::string censusJsonl() {
  obs::prof::ProfSample s;
  s.rssKb = obs::currentRssKb();
  s.census = obs::prof::latestCensus();
  return obs::prof::Profiler::instance().headerJson() + '\n' + s.toJsonl() +
         '\n';
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
  ok = writeFile(dir / "profile.folded", obs::toFolded(snap)) && ok;
  ok = writeFile(dir / "census.jsonl", censusJsonl()) && ok;
  if (!ok) {
    std::fprintf(stderr, "serve: short slow-request capture in %s\n",
                 dir.string().c_str());
  }
  return dir.string();
}

}  // namespace hsis::serve
