// hsis-cex-v1 serialization and the matching reader used by
// `hsis_report cex` and `hsis_client --cex-out`.
#include <stdexcept>

#include "cex/cex.hpp"
#include "obs/jsonlite.hpp"

namespace hsis::cex {

namespace {

void appendSignals(obs::jsonlite::Writer& w,
                   const std::vector<SignalInfo>& sigs) {
  w.beginArray();
  for (const SignalInfo& s : sigs) {
    w.beginObject().key("name").value(s.name).key("domain").value(s.domain);
    w.key("bits").value(s.bits).key("values").beginArray();
    for (const std::string& v : s.valueNames) w.value(v);
    w.endArray().key("line").value(s.sourceLine).endObject();
  }
  w.endArray();
}

void appendValues(obs::jsonlite::Writer& w, const std::vector<uint32_t>& vals) {
  w.beginArray();
  for (uint32_t v : vals) w.value(v);
  w.endArray();
}

}  // namespace

std::string toJson(const Artifact& a) {
  std::string out;
  obs::jsonlite::Writer w(out);
  w.beginObject().key("schema").value(kSchema);
  w.key("trace_id").value(a.traceId).key("git_sha").value(a.gitSha);
  w.key("design").beginObject().key("name").value(a.designName);
  w.key("digest").value(a.designDigest).key("kind").value(a.designKind);
  w.key("top").value(a.designTop).key("text").value(a.designText);
  w.endObject().key("property").beginObject().key("name").value(a.propertyName);
  w.key("text").value(a.propertyText);
  w.key("digest").value(a.propertyDigest).endObject();
  w.key("replay").value(a.replay).key("replay_note").value(a.replayNote);
  w.key("cycle_start").value(a.cycleStart);
  appendSignals(w.key("latches"), a.latches);
  appendSignals(w.key("inputs"), a.inputs);
  w.key("steps").beginArray();
  for (const Step& step : a.steps) {
    appendValues(w.beginObject().key("latches"), step.latchValues);
    appendValues(w.key("inputs"), step.inputValues);
    w.endObject();
  }
  w.endArray().endObject();
  return out;
}

namespace {

namespace jl = obs::jsonlite;

const jl::Value& need(const jl::Object& obj, const std::string& key) {
  const jl::Value* v = jl::find(obj, key);
  if (!v)
    throw std::runtime_error("hsis-cex-v1: missing field '" + key + "'");
  return *v;
}

template <std::integral T>
T integer(const jl::Object& obj, const std::string& key) {
  return jl::integer<T>(need(obj, key), kSchema, key);
}

std::vector<SignalInfo> parseSignals(const jl::Value& v) {
  std::vector<SignalInfo> sigs;
  for (const jl::Value& sv : v.array()) {
    const jl::Object& so = sv.object();
    SignalInfo s;
    s.name = need(so, "name").str();
    s.domain = integer<uint32_t>(so, "domain");
    s.bits = integer<uint32_t>(so, "bits");
    for (const jl::Value& nv : need(so, "values").array())
      s.valueNames.push_back(nv.str());
    s.sourceLine = integer<int>(so, "line");
    sigs.push_back(std::move(s));
  }
  return sigs;
}

std::vector<uint32_t> parseValues(const jl::Object& step,
                                  const std::string& key) {
  std::vector<uint32_t> vals;
  for (const jl::Value& nv : need(step, key).array())
    vals.push_back(jl::integer<uint32_t>(nv, kSchema, key));
  return vals;
}

}  // namespace

Artifact parseJson(const std::string& text) {
  jl::Value doc = jl::parse(text);
  if (!doc.isObject())
    throw std::runtime_error("hsis-cex-v1: document is not an object");
  const jl::Object& obj = doc.object();
  const jl::Value& schema = need(obj, "schema");
  if (!schema.isString() || schema.str() != kSchema)
    throw std::runtime_error("hsis-cex-v1: unexpected schema tag");

  Artifact a;
  a.traceId = need(obj, "trace_id").str();
  a.gitSha = need(obj, "git_sha").str();
  const jl::Object& design = need(obj, "design").object();
  a.designName = need(design, "name").str();
  a.designDigest = need(design, "digest").str();
  a.designKind = need(design, "kind").str();
  a.designTop = need(design, "top").str();
  a.designText = need(design, "text").str();
  const jl::Object& prop = need(obj, "property").object();
  a.propertyName = need(prop, "name").str();
  a.propertyText = need(prop, "text").str();
  a.propertyDigest = need(prop, "digest").str();
  a.replay = need(obj, "replay").str();
  a.replayNote = need(obj, "replay_note").str();
  a.cycleStart = integer<int>(obj, "cycle_start");
  a.latches = parseSignals(need(obj, "latches"));
  a.inputs = parseSignals(need(obj, "inputs"));
  for (const jl::Value& sv : need(obj, "steps").array()) {
    const jl::Object& so = sv.object();
    Step step;
    step.latchValues = parseValues(so, "latches");
    step.inputValues = parseValues(so, "inputs");
    if (step.latchValues.size() != a.latches.size())
      throw std::runtime_error("hsis-cex-v1: step width != latch count");
    a.steps.push_back(std::move(step));
  }
  if (a.cycleStart >= static_cast<int>(a.steps.size()))
    throw std::runtime_error("hsis-cex-v1: cycle_start out of range");
  return a;
}

}  // namespace hsis::cex
