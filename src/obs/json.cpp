// Snapshot assembly and the three export formats. Compiled in both the
// enabled and the HSIS_OBS_DISABLE build: a disabled build exports a valid
// empty document so downstream tooling needs no special casing.
#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "obs/control.hpp"
#include "obs/jsonlite.hpp"
#include "obs/prof.hpp"
#include "obs/tracectx.hpp"

namespace hsis::obs {

namespace {

using jsonlite::appendQuoted;

std::string formatMs(uint64_t ns) {
  return jsonDouble(static_cast<double>(ns) * 1e-6);
}

/// Earliest span start, used as the time origin for start_ms.
uint64_t baseStartNs(const Snapshot& snap) {
  uint64_t base = ~0ull;
  for (const SpanSample& s : snap.spans) base = std::min(base, s.startNs);
  return snap.spans.empty() ? 0 : base;
}

/// Children of each span, index into snap.spans; roots under key -1.
/// A span whose parent was dropped from the ring (or is still open at
/// snapshot time) is treated as a root.
std::unordered_map<int64_t, std::vector<size_t>> buildTree(
    const Snapshot& snap) {
  std::unordered_map<uint64_t, size_t> byId;
  for (size_t i = 0; i < snap.spans.size(); ++i) byId[snap.spans[i].id] = i;
  std::unordered_map<int64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < snap.spans.size(); ++i) {
    int64_t p = snap.spans[i].parent;
    if (p >= 0 && !byId.contains(static_cast<uint64_t>(p))) p = -1;
    children[p].push_back(i);
  }
  return children;
}

void appendSpanJson(std::string& out, const Snapshot& snap,
                    const std::unordered_map<int64_t, std::vector<size_t>>& tree,
                    size_t idx, int indent) {
  const SpanSample& s = snap.spans[idx];
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  out += pad + "{";
  appendQuoted(out, "name");
  out += ": ";
  appendQuoted(out, s.name);
  out += ", \"ms\": " + formatMs(s.durationNs);
  out += ", \"start_ms\": " + formatMs(s.startNs - baseStartNs(snap));
  out += ", \"children\": [";
  auto it = tree.find(static_cast<int64_t>(s.id));
  if (it != tree.end() && !it->second.empty()) {
    out += '\n';
    for (size_t k = 0; k < it->second.size(); ++k) {
      appendSpanJson(out, snap, tree, it->second[k], indent + 1);
      if (k + 1 < it->second.size()) out += ',';
      out += '\n';
    }
    out += pad;
  }
  out += "]}";
}

}  // namespace

std::string jsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string histogramSummaryJson(const HistogramSummary& s) {
  // Key set is part of the contract (consumers assert it); only the values
  // switch between numbers and null.
  std::string out;
  jsonlite::Writer w(out);
  w.beginObject().key("count").value(s.count);
  const std::pair<const char*, uint64_t> quantiles[] = {
      {"p50", s.p50}, {"p90", s.p90}, {"p99", s.p99}, {"max", s.max}};
  for (const auto& [name, v] : quantiles) {
    w.key(name);
    s.count == 0 ? w.value(nullptr) : w.value(v);
  }
  w.endObject();
  return out;
}

Snapshot snapshot() {
  Snapshot snap;
  snap.metrics = Registry::instance().collect();
  snap.spans = Tracer::instance().completed();
  snap.droppedSpans = Tracer::instance().dropped();
  snap.threadNames = threadNames();
  for (const prof::ProfSample& s : prof::Profiler::instance().samples()) {
    if (!s.census.has_value()) continue;
    CounterPoint p;
    p.tNs = s.tNs;
    p.liveNodes = s.census->liveNodes;
    p.allocatedNodes = s.census->allocatedNodes;
    p.rssKb = s.rssKb;
    p.cacheHitRate = s.dCacheLookups == 0
                         ? 0.0
                         : static_cast<double>(s.dCacheHits) /
                               static_cast<double>(s.dCacheLookups);
    p.deadFraction = s.census->deadFraction();
    snap.counterPoints.push_back(std::move(p));
  }
  if (auto abort = abortInfo()) {
    snap.aborted = true;
    snap.abortReason = abort->reason;
    snap.abortPhase = abort->phase;
  }
  return snap;
}

std::string toJson(const Snapshot& snap) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"hsis-obs-v1\",\n";
  out += "  \"enabled\": ";
  out += kEnabled ? "true" : "false";
  out += ",\n  \"metrics\": {";
  for (size_t i = 0; i < snap.metrics.size(); ++i) {
    const MetricSample& m = snap.metrics[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    ";
    appendQuoted(out, m.name);
    out += ": ";
    if (m.kind == MetricSample::Kind::Histogram) {
      out += "{\"count\": " + std::to_string(m.count) +
             ", \"sum\": " + std::to_string(m.sum) +
             ", \"p50\": " + std::to_string(m.p50) +
             ", \"p90\": " + std::to_string(m.p90) +
             ", \"p99\": " + std::to_string(m.p99) +
             ", \"max\": " + std::to_string(m.max) + ", \"buckets\": {";
      for (size_t b = 0; b < m.buckets.size(); ++b) {
        if (b != 0) out += ", ";
        appendQuoted(out, std::to_string(m.buckets[b].first));
        out += ": " + std::to_string(m.buckets[b].second);
      }
      out += "}}";
    } else {
      out += std::to_string(m.value);
    }
  }
  out += snap.metrics.empty() ? "},\n" : "\n  },\n";
  out += "  \"aborted\": ";
  if (snap.aborted) {
    out += "{\"reason\": ";
    appendQuoted(out, snap.abortReason);
    out += ", \"phase\": ";
    appendQuoted(out, snap.abortPhase);
    out += "},\n";
  } else {
    out += "null,\n";
  }
  out += "  \"dropped_spans\": " + std::to_string(snap.droppedSpans) + ",\n";
  out += "  \"spans\": [";
  auto tree = buildTree(snap);
  auto roots = tree.find(-1);
  if (roots != tree.end() && !roots->second.empty()) {
    out += '\n';
    for (size_t k = 0; k < roots->second.size(); ++k) {
      appendSpanJson(out, snap, tree, roots->second[k], 2);
      if (k + 1 < roots->second.size()) out += ',';
      out += '\n';
    }
    out += "  ";
  }
  out += "]\n}\n";
  return out;
}

std::string toChromeTrace(const Snapshot& snap) {
  std::string out = "[";
  bool first = true;
  auto sep = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };
  // Metadata ("ph": "M") events first: name each thread the process called
  // setThreadName() on, pin "main" to the top of the track list, and give
  // the process itself a sort index so multi-process merges stay ordered.
  sep();
  out += " {\"name\": \"process_sort_index\", \"ph\": \"M\", \"pid\": 1"
         ", \"args\": {\"sort_index\": 0}}";
  for (const auto& [tid, name] : snap.threadNames) {
    uint64_t shortTid = tid % 1000000;  // same transform as the X events
    sep();
    out += " {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1";
    out += ", \"tid\": " + std::to_string(shortTid);
    out += ", \"args\": {\"name\": ";
    appendQuoted(out, name);
    out += "}}";
    sep();
    out += " {\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 1";
    out += ", \"tid\": " + std::to_string(shortTid);
    out += ", \"args\": {\"sort_index\": ";
    out += name == "main" ? "0" : "1";
    out += "}}";
  }
  for (const SpanSample& s : snap.spans) {
    sep();
    out += " {\"name\": ";
    appendQuoted(out, s.name);
    out += ", \"cat\": \"hsis\", \"ph\": \"X\", \"pid\": 1";
    out += ", \"tid\": " + std::to_string(s.threadId % 1000000);
    out += ", \"ts\": " + std::to_string(s.startNs / 1000);
    out += ", \"dur\": " + std::to_string(s.durationNs / 1000);
    if (s.traceId != 0) {
      out += ", \"args\": {\"trace\": ";
      appendQuoted(out, traceIdHex(s.traceId));
      out += "}";
    }
    out += "}";
  }
  // Counter ("C") events from the profiler census series, so node
  // population, RSS, and cache-hit dynamics render as area tracks on the
  // same timeline as the phase spans.
  auto counter = [&](const char* name, uint64_t ts, const char* key,
                     const std::string& value) {
    sep();
    out += " {\"name\": \"";
    out += name;
    out += "\", \"cat\": \"hsis\", \"ph\": \"C\", \"pid\": 1";
    out += ", \"ts\": " + std::to_string(ts);
    out += ", \"args\": {\"";
    out += key;
    out += "\": " + value + "}}";
  };
  for (const CounterPoint& p : snap.counterPoints) {
    uint64_t ts = p.tNs / 1000;
    counter("bdd.live_nodes", ts, "nodes", std::to_string(p.liveNodes));
    counter("bdd.allocated_nodes", ts, "nodes",
            std::to_string(p.allocatedNodes));
    counter("process.rss_kb", ts, "kb", std::to_string(p.rssKb));
    counter("bdd.cache.hit_rate", ts, "rate", jsonDouble(p.cacheHitRate));
    counter("bdd.dead_fraction", ts, "fraction", jsonDouble(p.deadFraction));
  }
  out += "\n]\n";
  return out;
}

std::string snapshotJson() { return toJson(snapshot()); }

}  // namespace hsis::obs
