// Tests for hsis_cov: occupancy, coverpoints/bins, the symbolic-vs-sim
// differential, the spec language, frontier series, and the hsis-cov-v1
// round trip.
#include <gtest/gtest.h>

#include <cstdlib>

#include "blifmv/blifmv.hpp"
#include "cov/cov.hpp"
#include "hsis/session.hpp"
#include "obs/obs.hpp"

namespace hsis {
namespace {

// s cycles 0 -> 1 -> 2 -> 0 (value 3 unreachable); t toggles under the
// free input w. Reachable set: {0,1,2} x {0,1} = 6 of 8 states.
constexpr const char* kCovModel = R"(
.model covm
.mv s, ns 4
.table s ns
0 1
1 2
2 0
3 3
.table w t nt
0 - =t
1 0 1
1 1 0
.latch ns s
.latch nt t
.reset s
0
.reset t
0
.end
)";

struct CovFixture : ::testing::Test {
  void SetUp() override {
    flat = blifmv::flatten(blifmv::parse(kCovModel));
    fsm = std::make_unique<Fsm>(mgr, flat);
    tr = TransitionRelation::monolithic(*fsm);
    ReachOptions ro;
    ro.keepOnionRings = true;
    reach = reachableStates(*tr, fsm->initialStates(), ro);
  }
  BddManager mgr;
  blifmv::Model flat;
  std::unique_ptr<Fsm> fsm;
  std::optional<TransitionRelation> tr;
  ReachResult reach;
};

TEST_F(CovFixture, StructuralOccupancy) {
  if (!cov::coverageEnabled()) GTEST_SKIP() << "coverage disabled";
  cov::Report rep = cov::analyze(*fsm, *tr, reach.reached, reach.onionRings);
  EXPECT_TRUE(rep.enabled);
  EXPECT_EQ(rep.design, "covm");
  EXPECT_DOUBLE_EQ(rep.stateSpace, 8.0);
  EXPECT_DOUBLE_EQ(rep.reachableStates, 6.0);
  EXPECT_DOUBLE_EQ(rep.stateFraction(), 0.75);
  EXPECT_EQ(rep.valuesTotal, 6u);    // 4 (s) + 2 (t)
  EXPECT_EQ(rep.valuesReached, 5u);  // s misses value 3
  ASSERT_EQ(rep.latches.size(), 2u);
  const cov::LatchOccupancy* s = nullptr;
  for (const auto& occ : rep.latches)
    if (occ.latch == "s") s = &occ;
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->domain, 4u);
  EXPECT_EQ(s->reachedValues, 3u);
  EXPECT_DOUBLE_EQ(s->pct(), 75.0);
  ASSERT_EQ(s->valueReached.size(), 4u);
  EXPECT_TRUE(s->valueReached[0]);
  EXPECT_TRUE(s->valueReached[1]);
  EXPECT_TRUE(s->valueReached[2]);
  EXPECT_FALSE(s->valueReached[3]);
}

TEST_F(CovFixture, DefaultCoverpointsAndSymbolicCounts) {
  if (!cov::coverageEnabled()) GTEST_SKIP() << "coverage disabled";
  cov::Report rep = cov::analyze(*fsm, *tr, reach.reached, reach.onionRings);
  EXPECT_EQ(rep.binsTotal, 6u);
  EXPECT_EQ(rep.binsHit, 5u);
  const cov::PointResult* sp = nullptr;
  for (const auto& p : rep.points)
    if (p.name == "s") sp = &p;
  ASSERT_NE(sp, nullptr);
  ASSERT_EQ(sp->bins.size(), 4u);
  EXPECT_EQ(sp->binsHit, 3u);
  // Each reachable s value pairs with both t values: 2 states per bin.
  EXPECT_DOUBLE_EQ(sp->bins[1].symbolicStates, 2.0);
  EXPECT_FALSE(sp->bins[3].symbolicHit);
  EXPECT_DOUBLE_EQ(sp->bins[3].symbolicStates, 0.0);
  EXPECT_TRUE(sp->bins[0].simEvaluable);
  EXPECT_EQ(sp->bins[0].simHits, -1);  // no sim pass requested
}

TEST_F(CovFixture, DifferentialSimAgreesWithSymbolic) {
  if (!cov::coverageEnabled()) GTEST_SKIP() << "coverage disabled";
  cov::Options opts;
  opts.simMaxStates = 100;
  cov::Report rep =
      cov::analyze(*fsm, *tr, reach.reached, reach.onionRings, opts);
  EXPECT_EQ(rep.simStates, 6u);
  EXPECT_TRUE(rep.simExhaustive);
  EXPECT_TRUE(rep.simAgrees);
  for (const auto& p : rep.points) {
    for (const auto& b : p.bins) {
      ASSERT_TRUE(b.simEvaluable);
      EXPECT_EQ(static_cast<double>(b.simHits), b.symbolicStates)
          << p.name << "/" << b.name;
    }
  }
}

TEST_F(CovFixture, InputReferencingBinIsSymbolicOnly) {
  if (!cov::coverageEnabled()) GTEST_SKIP() << "coverage disabled";
  cov::Options opts;
  cov::PointSpec p;
  p.name = "mixed";
  p.bins.push_back({"toggling", parseSigExpr("w=1 & t=0")});
  p.bins.push_back({"stateonly", parseSigExpr("t=1")});
  opts.points.push_back(p);
  opts.simMaxStates = 100;
  cov::Report rep =
      cov::analyze(*fsm, *tr, reach.reached, reach.onionRings, opts);
  ASSERT_EQ(rep.points.size(), 1u);
  const cov::BinResult& toggling = rep.points[0].bins[0];
  EXPECT_FALSE(toggling.simEvaluable);
  EXPECT_TRUE(toggling.symbolicHit);
  // Projection onto the state rail: every reached state with t=0 has some
  // w=1 assignment -> 3 states.
  EXPECT_DOUBLE_EQ(toggling.symbolicStates, 3.0);
  EXPECT_EQ(toggling.simHits, -1);  // never concretely evaluated
  const cov::BinResult& stateonly = rep.points[0].bins[1];
  EXPECT_TRUE(stateonly.simEvaluable);
  EXPECT_EQ(stateonly.simHits, 3);
  EXPECT_TRUE(rep.simAgrees);
}

TEST_F(CovFixture, FrontierSeriesSumsToReachable) {
  if (!cov::coverageEnabled()) GTEST_SKIP() << "coverage disabled";
  ASSERT_FALSE(reach.onionRings.empty());
  cov::Report rep = cov::analyze(*fsm, *tr, reach.reached, reach.onionRings);
  ASSERT_EQ(rep.frontier.size(), reach.onionRings.size());
  EXPECT_EQ(rep.depth, rep.frontier.size() - 1);
  double sum = 0.0;
  double prevTotal = 0.0;
  for (const auto& fp : rep.frontier) {
    sum += fp.newStates;
    EXPECT_GE(fp.totalStates, prevTotal);
    prevTotal = fp.totalStates;
  }
  EXPECT_DOUBLE_EQ(sum, rep.reachableStates);
  EXPECT_DOUBLE_EQ(prevTotal, rep.reachableStates);
}

TEST_F(CovFixture, CheckerRecordsFrontierSeries) {
  if (!cov::coverageEnabled()) GTEST_SKIP() << "coverage disabled";
  // Session::coverage reads the series off its checker's onion rings.
  Session session;
  session.load({Session::DesignSource::Kind::BlifMv, kCovModel, ""});
  cov::Report rep = session.coverage();
  const std::vector<Bdd>& rings = session.checker().onionRings();
  ASSERT_EQ(rep.frontier.size(), rings.size());
  double sum = 0.0;
  for (size_t d = 0; d < rings.size(); ++d) {
    EXPECT_EQ(rep.frontier[d].newStates, session.fsm().countStates(rings[d]));
    sum += rep.frontier[d].newStates;
  }
  EXPECT_DOUBLE_EQ(sum, rep.reachableStates);
  EXPECT_DOUBLE_EQ(sum, session.reachedStates());
}

TEST_F(CovFixture, CoverSpecLanguage) {
  auto points = cov::parseCoverSpec(R"(
# explicit bins over both latches
coverpoint phases {
  bin start = s=0 & t=0;
  bin wrap = s=2;
  bin never = s=3;
}
coverpoint tvals auto t
cross both = phases, tvals
)",
                                    *fsm);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].name, "phases");
  ASSERT_EQ(points[0].bins.size(), 3u);
  EXPECT_EQ(points[0].bins[0].name, "start");
  EXPECT_EQ(points[1].name, "tvals");
  EXPECT_EQ(points[1].bins.size(), 2u);  // t is binary
  EXPECT_EQ(points[2].name, "both");
  EXPECT_EQ(points[2].bins.size(), 6u);  // 3 x 2 cross
  EXPECT_EQ(points[2].bins[0].name, "start/0");

  EXPECT_THROW(cov::parseCoverSpec("coverpoint x auto nosuch", *fsm),
               std::runtime_error);
  EXPECT_THROW(cov::parseCoverSpec("cross c = a, b", *fsm),
               std::runtime_error);
  EXPECT_THROW(cov::parseCoverSpec("coverpoint x { bin a = s=0 }", *fsm),
               std::runtime_error);  // missing ';'
  EXPECT_THROW(cov::parseCoverSpec("widget x", *fsm), std::runtime_error);
}

TEST_F(CovFixture, SpecDrivenAnalysis) {
  if (!cov::coverageEnabled()) GTEST_SKIP() << "coverage disabled";
  cov::Options opts;
  opts.points = cov::parseCoverSpec(
      "coverpoint phases { bin wrap = s=2; bin never = s=3; }", *fsm);
  opts.simMaxStates = 100;
  cov::Report rep =
      cov::analyze(*fsm, *tr, reach.reached, reach.onionRings, opts);
  EXPECT_EQ(rep.binsTotal, 2u);
  EXPECT_EQ(rep.binsHit, 1u);
  EXPECT_TRUE(rep.simAgrees);
  EXPECT_EQ(rep.points[0].bins[0].simHits, 2);
  EXPECT_EQ(rep.points[0].bins[1].simHits, 0);
}

TEST_F(CovFixture, DisabledEnvVarYieldsValidEmptyReport) {
  ::setenv("HSIS_COV_DISABLE", "1", 1);
  EXPECT_FALSE(cov::coverageEnabled());
  cov::Report rep = cov::analyze(*fsm, *tr, reach.reached, reach.onionRings);
  ::unsetenv("HSIS_COV_DISABLE");
  EXPECT_FALSE(rep.enabled);
  EXPECT_EQ(rep.design, "covm");
  EXPECT_TRUE(rep.latches.empty());
  EXPECT_TRUE(rep.points.empty());
  EXPECT_EQ(rep.binsTotal, 0u);
  // The renderer still produces a valid document for a disabled report.
  std::string md = cov::renderReport(rep);
  EXPECT_NE(md.find("disabled"), std::string::npos);
}

// Hand-built report: serialization and rendering must work even in
// HSIS_OBS_DISABLE builds (pure data transforms).
cov::Report sampleReport() {
  cov::Report r;
  r.enabled = true;
  r.design = "sample";
  r.reachableStates = 6;
  r.stateSpace = 8;
  r.depth = 3;
  r.valuesTotal = 6;
  r.valuesReached = 5;
  r.binsTotal = 4;
  r.binsHit = 3;
  cov::LatchOccupancy occ;
  occ.latch = "s";
  occ.domain = 4;
  occ.valueNames = {"0", "1", "2", "3"};
  occ.valueReached = {true, true, true, false};
  occ.reachedValues = 3;
  r.latches.push_back(occ);
  r.frontier.push_back({0, 1, 1});
  r.frontier.push_back({1, 2, 3});
  r.frontier.push_back({2, 2, 5});
  r.frontier.push_back({3, 1, 6});
  cov::PointResult pr;
  pr.name = "s";
  pr.binsHit = 1;
  cov::BinResult br;
  br.name = "wrap";
  br.expr = "s=2";
  br.symbolicHit = true;
  br.symbolicStates = 2;
  br.simEvaluable = true;
  br.simHits = 2;
  pr.bins.push_back(br);
  cov::BinResult miss;
  miss.name = "never";
  miss.expr = "w=1";
  miss.symbolicHit = false;
  miss.simEvaluable = false;
  miss.simHits = -1;
  pr.bins.push_back(miss);
  r.points.push_back(pr);
  r.simStates = 6;
  r.simExhaustive = true;
  r.simAgrees = true;
  return r;
}

TEST(CovJson, RoundTrip) {
  cov::Report r = sampleReport();
  std::string json = cov::reportToJson(r);
  EXPECT_NE(json.find("\"schema\": \"hsis-cov-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_hits\": null"), std::string::npos);
  cov::Report back = cov::parseReportJson(json);
  EXPECT_TRUE(back.enabled);
  EXPECT_EQ(back.design, "sample");
  EXPECT_DOUBLE_EQ(back.reachableStates, 6.0);
  EXPECT_DOUBLE_EQ(back.stateSpace, 8.0);
  EXPECT_EQ(back.depth, 3u);
  EXPECT_EQ(back.valuesReached, 5u);
  EXPECT_EQ(back.binsHit, 3u);
  ASSERT_EQ(back.latches.size(), 1u);
  EXPECT_EQ(back.latches[0].reachedValues, 3u);
  EXPECT_FALSE(back.latches[0].valueReached[3]);
  ASSERT_EQ(back.frontier.size(), 4u);
  EXPECT_DOUBLE_EQ(back.frontier[3].totalStates, 6.0);
  ASSERT_EQ(back.points.size(), 1u);
  ASSERT_EQ(back.points[0].bins.size(), 2u);
  EXPECT_EQ(back.points[0].bins[0].simHits, 2);
  EXPECT_EQ(back.points[0].bins[1].simHits, -1);
  EXPECT_FALSE(back.points[0].bins[1].simEvaluable);
  EXPECT_TRUE(back.simExhaustive);
}

TEST(CovJson, RejectsWrongSchema) {
  EXPECT_THROW(cov::parseReportJson("{\"schema\": \"hsis-obs-v1\"}"),
               std::runtime_error);
  EXPECT_THROW(cov::parseReportJson("not json"), std::runtime_error);
  EXPECT_THROW(cov::parseReportJson("{\"schema\": \"hsis-cov-v1\"}"),
               std::runtime_error);  // missing fields

  // A number read from the file is checked before it is converted: a
  // string, a fraction or an out-of-range value names its field.
  const std::string good = cov::reportToJson(sampleReport());
  auto tampered = [&](const std::string& key, const std::string& value,
                      const std::string& after = "") {
    std::string doc = good;
    size_t at = doc.find("\"" + key + "\": ", doc.find(after));
    if (at == std::string::npos) {
      ADD_FAILURE() << "no '" << key << "' to tamper with";
      return doc;
    }
    at += key.size() + 4;
    return doc.replace(at, doc.find_first_of(",]}", at) - at, value);
  };
  auto rejects = [](const std::string& doc, const std::string& key) {
    try {
      (void)cov::parseReportJson(doc);
      ADD_FAILURE() << "accepted a bad '" << key << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("hsis-cov-v1: field '" + key, 0),
                0u)
          << e.what();
    }
  };
  rejects(tampered("domain", "1e300"), "domain");
  rejects(tampered("depth", "\"3\""), "depth");
  rejects(tampered("depth", "-1", "\"frontier\""), "depth");
  rejects(tampered("reached_values", "2.5"), "reached_values");
  rejects(tampered("reachable_states", "\"6\""), "reachable_states");
}

TEST(CovRender, MarkdownTablesAndThresholdGate) {
  cov::Report r = sampleReport();
  std::string md = cov::renderReport(r);
  EXPECT_NE(md.find("# Coverage report: sample"), std::string::npos);
  EXPECT_NE(md.find("## Latch occupancy"), std::string::npos);
  EXPECT_NE(md.find("## Coverpoints"), std::string::npos);
  EXPECT_NE(md.find("## Frontier occupancy"), std::string::npos);
  EXPECT_NE(md.find("| s | 4 | 3 | 75.0% | 3 |"), std::string::npos);
  EXPECT_EQ(md.find("Threshold gate"), std::string::npos);

  EXPECT_EQ(cov::latchesBelow(r, 50.0), 0u);
  EXPECT_EQ(cov::latchesBelow(r, 80.0), 1u);

  cov::RenderOptions ro;
  ro.threshold = 80.0;
  std::string gated = cov::renderReport(r, ro);
  EXPECT_NE(gated.find("Threshold gate"), std::string::npos);
  EXPECT_NE(gated.find("1 latch(es) below threshold"), std::string::npos);

  ro.threshold = 50.0;
  std::string clean = cov::renderReport(r, ro);
  EXPECT_NE(clean.find("All latches meet"), std::string::npos);
}

TEST(CovCross, NamesAndPairing) {
  cov::PointSpec a{"a", {{"x", parseSigExpr("1")}, {"y", parseSigExpr("0")}}};
  cov::PointSpec b{"b", {{"p", parseSigExpr("1")}}};
  cov::PointSpec c = cov::crossPoint(a, b);
  EXPECT_EQ(c.name, "a_x_b");
  ASSERT_EQ(c.bins.size(), 2u);
  EXPECT_EQ(c.bins[0].name, "x/p");
  EXPECT_EQ(c.bins[1].name, "y/p");
  cov::PointSpec named = cov::crossPoint(a, b, "combo");
  EXPECT_EQ(named.name, "combo");
}

}  // namespace
}  // namespace hsis
