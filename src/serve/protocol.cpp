#include "serve/protocol.hpp"

#include "obs/obs.hpp"

namespace hsis::serve {

namespace {

using obs::jsonlite::Object;
using obs::jsonlite::Value;
using obs::jsonlite::Writer;

using obs::jsonlite::find;  // ADL would find it anyway; be explicit

std::string stringField(const Object& obj, const std::string& key,
                        std::string_view fallback = "") {
  const Value* v = find(obj, key);
  if (v == nullptr) return std::string(fallback);
  if (!v->isString())
    throw ProtocolError("field '" + key + "' must be a string");
  return v->str();
}

double numberField(const Object& obj, const std::string& key,
                   double fallback = 0.0) {
  const Value* v = find(obj, key);
  if (v == nullptr) return fallback;
  if (!v->isNumber())
    throw ProtocolError("field '" + key + "' must be a number");
  return v->number();
}

bool boolField(const Object& obj, const std::string& key, bool fallback) {
  const Value* v = find(obj, key);
  if (v == nullptr) return fallback;
  if (!std::holds_alternative<bool>(v->v))
    throw ProtocolError("field '" + key + "' must be a boolean");
  return v->boolean();
}

/// `{"schema": …, "event": …, "id": …` with the object left open.
Writer openFrame(std::string& out, std::string_view event,
                 std::string_view id) {
  Writer w(out);
  w.beginObject().key("schema").value(kSchema);
  w.key("event").value(event).key("id").value(id);
  return w;
}

}  // namespace

std::string escapeJson(std::string_view s) {
  std::string out;
  obs::jsonlite::appendQuoted(out, s);
  return out.substr(1, out.size() - 2);
}

// ---------------------------------------------------------------- requests

Request parseRequest(const std::string& line) {
  Value doc;
  try {
    doc = obs::jsonlite::parse(line);
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("bad JSON: ") + e.what());
  }
  if (!doc.isObject()) throw ProtocolError("request must be a JSON object");
  const Object& obj = doc.object();

  Request req;
  req.id = stringField(obj, "id");
  std::string op = stringField(obj, "op");
  if (op == "ping") {
    req.op = Request::Op::Ping;
  } else if (op == "stats") {
    req.op = Request::Op::Stats;
  } else if (op == "stats-stream") {
    req.op = Request::Op::StatsStream;
    double interval = numberField(obj, "interval_ms");
    if (interval < 0)
      throw ProtocolError("'interval_ms' must be >= 0");
    req.statsIntervalMs = static_cast<uint64_t>(interval);
  } else if (op == "shutdown") {
    req.op = Request::Op::Shutdown;
  } else if (op == "check") {
    req.op = Request::Op::Check;
    CheckRequest& c = req.check;
    c.id = req.id;
    c.name = stringField(obj, "name");
    const Value* design = find(obj, "design");
    if (design == nullptr || !design->isObject())
      throw ProtocolError("check request needs a 'design' object");
    const Object& d = design->object();
    std::string kind = stringField(d, "kind", "verilog");
    if (kind == "verilog") {
      c.design.kind = Session::DesignSource::Kind::Verilog;
    } else if (kind == "blifmv") {
      c.design.kind = Session::DesignSource::Kind::BlifMv;
    } else {
      throw ProtocolError("design kind must be 'verilog' or 'blifmv'");
    }
    c.design.text = stringField(d, "text");
    if (c.design.text.empty())
      throw ProtocolError("design text must not be empty");
    c.design.top = stringField(d, "top");
    c.pif = stringField(obj, "pif");
    if (const Value* b = find(obj, "budget"); b != nullptr) {
      if (!b->isObject()) throw ProtocolError("'budget' must be an object");
      c.budget.wallSeconds = numberField(b->object(), "wall_s");
      c.budget.rssMb =
          static_cast<uint64_t>(numberField(b->object(), "rss_mb"));
    }
    c.wantTrace = boolField(obj, "want_trace", true);
    c.traceId = stringField(obj, "trace_id");
  } else {
    throw ProtocolError("unknown op '" + op + "'");
  }
  return req;
}

std::string renderRequest(const Request& request) {
  static constexpr const char* kOps[] = {  // in Request::Op order
      "check", "ping", "stats", "stats-stream", "shutdown"};
  std::string out;
  Writer w(out);
  w.beginObject().key("schema").value(kSchema);
  w.key("op").value(kOps[static_cast<size_t>(request.op)]);
  w.key("id").value(request.id);
  if (request.op == Request::Op::StatsStream)
    w.key("interval_ms").value(request.statsIntervalMs);
  if (request.op == Request::Op::Check) {
    const CheckRequest& c = request.check;
    if (!c.name.empty()) w.key("name").value(c.name);
    w.key("design").beginObject().key("kind");
    w.value(c.design.kind == Session::DesignSource::Kind::Verilog ? "verilog"
                                                                  : "blifmv");
    w.key("text").value(c.design.text);
    if (!c.design.top.empty()) w.key("top").value(c.design.top);
    w.endObject().key("pif").value(c.pif);
    w.key("budget").beginObject().key("wall_s").value(c.budget.wallSeconds);
    w.key("rss_mb").value(c.budget.rssMb).endObject();
    w.key("want_trace").value(c.wantTrace);
    if (!c.traceId.empty()) w.key("trace_id").value(c.traceId);
  }
  w.endObject();
  return out;
}

// ------------------------------------------------------------------ frames

std::string acceptedFrame(std::string_view id, size_t queueDepth,
                          std::string_view traceId) {
  std::string out;
  Writer w = openFrame(out, "accepted", id);
  w.key("queue_depth").value(queueDepth);
  if (!traceId.empty()) w.key("trace_id").value(traceId);
  w.endObject();
  return out;
}

std::string loadedFrame(std::string_view id, bool cacheHit,
                        uint64_t readMicros, std::string_view traceId) {
  std::string out;
  Writer w = openFrame(out, "loaded", id);
  w.key("cache").value(cacheHit ? "hit" : "miss");
  w.key("read_micros").value(readMicros);
  if (!traceId.empty()) w.key("trace_id").value(traceId);
  w.endObject();
  return out;
}

std::string verdictFrame(std::string_view id, const VerdictInfo& verdict,
                         std::string_view traceId) {
  std::string out;
  Writer w = openFrame(out, "verdict", id);
  w.key("property").value(verdict.property);
  w.key("paradigm").value(verdict.languageContainment ? "lc" : "ctl");
  w.key("holds").value(verdict.holds).key("seconds").value(verdict.seconds);
  if (!verdict.trace.empty()) w.key("trace").value(verdict.trace);
  if (!traceId.empty()) w.key("trace_id").value(traceId);
  w.endObject();
  return out;
}

std::string doneFrame(std::string_view id, std::string_view verdict,
                      std::string_view detail, const DoneStats& stats,
                      std::string_view traceId) {
  std::string out;
  Writer w = openFrame(out, "done", id);
  w.key("verdict").value(verdict);
  if (!detail.empty()) w.key("detail").value(detail);
  w.key("stats").beginObject().key("cache").value(stats.cacheHit ? "hit"
                                                                 : "miss");
  w.key("read_micros").value(stats.readMicros);
  w.key("wall_s").value(stats.wallSeconds);
  w.key("properties").value(stats.properties);
  w.key("failures").value(stats.failures);
  const StageMicros& st = stats.stages;
  w.key("stages").beginObject().key("queue").value(st.queue);
  w.key("parse").value(st.parse).key("tr").value(st.tr);
  w.key("reach").value(st.reach).key("check").value(st.check);
  w.key("render").value(st.render).endObject();
  if (stats.hasCoverage) {
    w.key("coverage").beginObject();
    w.key("state_fraction").value(stats.covStateFraction);
    w.key("values_reached").value(stats.covValuesReached);
    w.key("values_total").value(stats.covValuesTotal);
    w.key("bins_hit").value(stats.covBinsHit);
    w.key("bins_total").value(stats.covBinsTotal).endObject();
  }
  if (stats.hasCex) {
    w.key("cex").beginObject().key("path").value(stats.cexPath);
    w.key("replay").value(stats.cexReplay).endObject();
  }
  w.endObject();
  if (!traceId.empty()) w.key("trace_id").value(traceId);
  w.endObject();
  return out;
}

std::string pongFrame(std::string_view id, std::string_view version) {
  std::string out;
  openFrame(out, "pong", id).key("version").value(version).endObject();
  return out;
}

std::string statsFrame(std::string_view id,
                       std::string_view serverJsonObject) {
  std::string out;
  openFrame(out, "stats", id).key("server").raw(serverJsonObject).endObject();
  return out;
}

std::string statsTickFrame(std::string_view id, uint64_t seq,
                           std::string_view statsJsonObject) {
  // Its own schema: consumers (hsis_client top, CI asserts) key on it without
  // caring about the request/response protocol version.
  std::string out;
  Writer w(out);
  w.beginObject().key("schema").value("hsis-serve-stats-v1");
  w.key("event").value("stats-tick").key("id").value(id);
  w.key("seq").value(seq).key("stats").raw(statsJsonObject).endObject();
  return out;
}

std::string byeFrame(std::string_view id) {
  std::string out;
  openFrame(out, "bye", id).endObject();
  return out;
}

std::string errorFrame(std::string_view id, std::string_view message) {
  std::string out;
  openFrame(out, "error", id).key("message").value(message).endObject();
  return out;
}

Frame parseFrame(const std::string& line) {
  Frame frame;
  try {
    frame.body = obs::jsonlite::parse(line);
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("bad frame JSON: ") + e.what());
  }
  if (!frame.body.isObject())
    throw ProtocolError("frame must be a JSON object");
  const Object& obj = frame.body.object();
  frame.event = stringField(obj, "event");
  if (frame.event.empty()) throw ProtocolError("frame missing 'event'");
  frame.id = stringField(obj, "id");
  return frame;
}

}  // namespace hsis::serve
