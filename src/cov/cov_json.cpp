// hsis-cov-v1 serialization and the matching reader used by
// `hsis_report coverage`.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "cov/cov.hpp"
#include "obs/jsonlite.hpp"

namespace hsis::cov {

namespace {

/// Format a double compactly: integral values (state counts) print without
/// a fraction, everything else with enough digits to round-trip.
std::string num(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string reportToJson(const Report& r) {
  std::string out;
  obs::jsonlite::Writer w(out);
  w.beginObject().key("schema").value("hsis-cov-v1");
  w.key("enabled").value(r.enabled).key("design").value(r.design);
  w.key("reachable_states").raw(num(r.reachableStates));
  w.key("state_space").raw(num(r.stateSpace));
  w.key("state_fraction").raw(num(r.stateFraction()));
  w.key("depth").value(r.depth);
  w.key("values").beginObject().key("reached").value(r.valuesReached);
  w.key("total").value(r.valuesTotal).endObject();
  w.key("bins").beginObject().key("hit").value(r.binsHit);
  w.key("total").value(r.binsTotal).endObject();

  w.key("latches").beginArray();
  for (const LatchOccupancy& occ : r.latches) {
    w.beginObject().key("name").value(occ.latch);
    w.key("domain").value(occ.domain);
    w.key("reached_values").value(occ.reachedValues);
    w.key("pct").raw(num(occ.pct())).key("values").beginArray();
    for (size_t k = 0; k < occ.valueNames.size(); ++k) {
      w.beginObject().key("name").value(occ.valueNames[k]);
      w.key("reached").value(occ.valueReached[k]);
      w.endObject();
    }
    w.endArray().endObject();
  }
  w.endArray();

  w.key("frontier").beginArray();
  for (const FrontierPoint& f : r.frontier) {
    w.beginObject().key("depth").value(f.depth);
    w.key("new_states").raw(num(f.newStates));
    w.key("total_states").raw(num(f.totalStates)).endObject();
  }
  w.endArray();

  w.key("coverpoints").beginArray();
  for (const PointResult& pr : r.points) {
    w.beginObject().key("name").value(pr.name);
    w.key("bins_hit").value(pr.binsHit).key("bins").beginArray();
    for (const BinResult& br : pr.bins) {
      w.beginObject().key("name").value(br.name).key("expr").value(br.expr);
      w.key("hit").value(br.symbolicHit);
      w.key("states").raw(num(br.symbolicStates));
      w.key("sim_evaluable").value(br.simEvaluable).key("sim_hits");
      br.simHits < 0 ? w.value(nullptr) : w.value(br.simHits);
      w.endObject();
    }
    w.endArray().endObject();
  }
  w.endArray();

  w.key("sim").beginObject().key("states").value(r.simStates);
  w.key("exhaustive").value(r.simExhaustive);
  w.key("agrees").value(r.simAgrees).endObject().endObject();
  return out;
}

namespace {

namespace jl = obs::jsonlite;

constexpr const char* kSchema = "hsis-cov-v1";

const jl::Value& need(const jl::Object& obj, const std::string& key) {
  const jl::Value* v = jl::find(obj, key);
  if (!v)
    throw std::runtime_error("hsis-cov-v1: missing field '" + key + "'");
  return *v;
}

double real(const jl::Object& obj, const std::string& key) {
  return jl::number(need(obj, key), kSchema, key);
}

template <std::integral T>
T integer(const jl::Object& obj, const std::string& key) {
  return jl::integer<T>(need(obj, key), kSchema, key);
}

const std::string& str(const jl::Object& obj, const std::string& key) {
  return jl::str(need(obj, key), kSchema, key);
}

bool flag(const jl::Object& obj, const std::string& key) {
  return jl::boolean(need(obj, key), kSchema, key);
}

const jl::Object& object(const jl::Object& obj, const std::string& key) {
  return jl::object(need(obj, key), kSchema, key);
}

std::vector<const jl::Object*> objects(const jl::Object& obj,
                                       const std::string& key) {
  return jl::objects(need(obj, key), kSchema, key);
}

}  // namespace

Report parseReportJson(const std::string& text) {
  jl::Value doc = jl::parse(text);
  if (!doc.isObject())
    throw std::runtime_error("hsis-cov-v1: document is not an object");
  const jl::Object& obj = doc.object();
  const jl::Value& schema = need(obj, "schema");
  if (!schema.isString() || schema.str() != kSchema)
    throw std::runtime_error("hsis-cov-v1: unexpected schema tag");

  Report r;
  r.enabled = flag(obj, "enabled");
  r.design = str(obj, "design");
  r.reachableStates = real(obj, "reachable_states");
  r.stateSpace = real(obj, "state_space");
  r.depth = integer<size_t>(obj, "depth");
  const jl::Object& values = object(obj, "values");
  r.valuesReached = integer<uint64_t>(values, "reached");
  r.valuesTotal = integer<uint64_t>(values, "total");
  const jl::Object& bins = object(obj, "bins");
  r.binsHit = integer<uint64_t>(bins, "hit");
  r.binsTotal = integer<uint64_t>(bins, "total");

  for (const jl::Object* lo : objects(obj, "latches")) {
    LatchOccupancy occ;
    occ.latch = str(*lo, "name");
    occ.domain = integer<uint32_t>(*lo, "domain");
    occ.reachedValues = integer<uint32_t>(*lo, "reached_values");
    for (const jl::Object* vo : objects(*lo, "values")) {
      occ.valueNames.push_back(str(*vo, "name"));
      occ.valueReached.push_back(flag(*vo, "reached"));
    }
    r.latches.push_back(std::move(occ));
  }

  for (const jl::Object* fo : objects(obj, "frontier")) {
    FrontierPoint fp;
    fp.depth = integer<size_t>(*fo, "depth");
    fp.newStates = real(*fo, "new_states");
    fp.totalStates = real(*fo, "total_states");
    r.frontier.push_back(fp);
  }

  for (const jl::Object* po : objects(obj, "coverpoints")) {
    PointResult pr;
    pr.name = str(*po, "name");
    pr.binsHit = integer<size_t>(*po, "bins_hit");
    for (const jl::Object* bo : objects(*po, "bins")) {
      BinResult br;
      br.name = str(*bo, "name");
      br.expr = str(*bo, "expr");
      br.symbolicHit = flag(*bo, "hit");
      br.symbolicStates = real(*bo, "states");
      br.simEvaluable = flag(*bo, "sim_evaluable");
      br.simHits = need(*bo, "sim_hits").isNull()
                       ? -1
                       : integer<int64_t>(*bo, "sim_hits");
      pr.bins.push_back(std::move(br));
    }
    r.points.push_back(std::move(pr));
  }

  const jl::Object& sim = object(obj, "sim");
  r.simStates = integer<uint64_t>(sim, "states");
  r.simExhaustive = flag(sim, "exhaustive");
  r.simAgrees = flag(sim, "agrees");
  return r;
}

}  // namespace hsis::cov
