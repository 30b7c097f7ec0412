// Tests for hsis_cex: artifact assembly from failing checks (latch + input
// bindings, lassos), the hsis-cex-v1 JSON round trip, VCD export, replay
// verification (including tamper detection and recompile-from-source), the
// markdown renderer, and the HSIS_CEX_DISABLE gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "blifmv/blifmv.hpp"
#include "cex/cex.hpp"
#include "ctl/mc.hpp"
#include "hsis/session.hpp"
#include "vl2mv/vl2mv.hpp"

namespace hsis {
namespace {

// s cycles 0 -> 1 -> 2 -> 0 deterministically (value 3 is an unreachable
// sink); t toggles only when the free input w is 1. Open system: every
// failing trace that flips t must record w=1 stimulus.
constexpr const char* kOpenModel = R"(
.model openm
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

struct CexFixture : ::testing::Test {
  void SetUp() override {
    if (!cex::cexEnabled()) GTEST_SKIP() << "cex disabled";
    flat = blifmv::flatten(blifmv::parse(kOpenModel));
    fsm = std::make_unique<Fsm>(mgr, flat);
    tr = TransitionRelation::monolithic(*fsm);
    mc = std::make_unique<CtlChecker>(*fsm, *tr);
  }

  /// Check `prop` (must fail with a trace) and build an artifact from it.
  cex::Artifact failingArtifact(const char* prop) {
    McResult r = mc->check(parseCtl(prop));
    EXPECT_FALSE(r.holds) << prop;
    EXPECT_TRUE(r.counterexample.has_value()) << prop;
    cex::BuildInputs in;
    in.propertyName = "p";
    in.propertyText = prop;
    in.designName = "openm";
    return cex::build(*fsm, *r.counterexample, in);
  }

  BddManager mgr;
  blifmv::Model flat;
  std::unique_ptr<Fsm> fsm;
  std::optional<TransitionRelation> tr;
  std::unique_ptr<CtlChecker> mc;
};

TEST_F(CexFixture, BuildCapturesLatchesInputsAndSteps) {
  // AG t=0 fails in one step: w=1 flips t. The stimulus must be recorded.
  cex::Artifact a = failingArtifact("AG t=0");
  ASSERT_EQ(a.latches.size(), 2u);
  EXPECT_EQ(a.latches[0].name, "s");
  EXPECT_EQ(a.latches[0].domain, 4u);
  EXPECT_EQ(a.latches[0].bits, 2u);
  EXPECT_EQ(a.latches[1].name, "t");
  EXPECT_EQ(a.latches[1].domain, 2u);
  ASSERT_EQ(a.inputs.size(), 1u);
  EXPECT_EQ(a.inputs[0].name, "w");
  EXPECT_FALSE(a.isLasso());
  ASSERT_EQ(a.steps.size(), 2u);
  EXPECT_EQ(a.steps[0].latchValues, (std::vector<uint32_t>{0, 0}));
  EXPECT_EQ(a.steps[1].latchValues, (std::vector<uint32_t>{1, 1}));
  // the only way to flip t is w=1; the final plain-path step has no
  // outgoing transition, so no stimulus.
  EXPECT_EQ(a.steps[0].inputValues, (std::vector<uint32_t>{1}));
  EXPECT_TRUE(a.steps[1].inputValues.empty());
  EXPECT_EQ(a.propertyText, "AG t=0");
  EXPECT_FALSE(a.propertyDigest.empty());
  EXPECT_EQ(a.replay, "unverified");
}

TEST_F(CexFixture, AfFailureBuildsLasso) {
  // s never reaches 3, so AF s=3 fails with a fair lasso over the 0-1-2
  // cycle. Lassos carry one extra stimulus entry for the back edge.
  cex::Artifact a = failingArtifact("AF s=3");
  EXPECT_TRUE(a.isLasso());
  ASSERT_GE(a.steps.size(), 1u);
  EXPECT_GE(a.cycleStart, 0);
  EXPECT_LT(static_cast<size_t>(a.cycleStart), a.steps.size());
  // every step (including the last: it has the back-edge transition)
  // carries stimulus for the one free input.
  for (const cex::Step& st : a.steps) EXPECT_EQ(st.inputValues.size(), 1u);
}

TEST_F(CexFixture, JsonRoundTrips) {
  cex::Artifact a = failingArtifact("AG t=0");
  a.traceId = "00e1ab4401c0ffee";
  a.designDigest = "feedbead00000001";
  a.designKind = "blifmv";
  a.designText = kOpenModel;
  cex::verifyAndStamp(a, *fsm, *tr);
  cex::Artifact b = cex::parseJson(cex::toJson(a));
  EXPECT_EQ(b.traceId, a.traceId);
  EXPECT_EQ(b.designName, "openm");
  EXPECT_EQ(b.designDigest, a.designDigest);
  EXPECT_EQ(b.designKind, "blifmv");
  EXPECT_EQ(b.designText, a.designText);
  EXPECT_EQ(b.propertyText, a.propertyText);
  EXPECT_EQ(b.propertyDigest, a.propertyDigest);
  EXPECT_EQ(b.cycleStart, a.cycleStart);
  EXPECT_EQ(b.replay, a.replay);
  ASSERT_EQ(b.latches.size(), a.latches.size());
  EXPECT_EQ(b.latches[0].name, a.latches[0].name);
  EXPECT_EQ(b.latches[0].domain, a.latches[0].domain);
  EXPECT_EQ(b.latches[0].bits, a.latches[0].bits);
  ASSERT_EQ(b.inputs.size(), 1u);
  EXPECT_EQ(b.inputs[0].name, "w");
  ASSERT_EQ(b.steps.size(), a.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(b.steps[i].latchValues, a.steps[i].latchValues);
    EXPECT_EQ(b.steps[i].inputValues, a.steps[i].inputValues);
  }
}

TEST_F(CexFixture, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(cex::parseJson("not json"), std::runtime_error);
  EXPECT_THROW(cex::parseJson("{\"schema\": \"bogus-v1\"}"),
               std::runtime_error);
  // step width must match the latch list
  cex::Artifact a = failingArtifact("AG t=0");
  a.steps[0].latchValues.pop_back();
  EXPECT_THROW(cex::parseJson(cex::toJson(a)), std::runtime_error);

  // A number read from the file is checked before it is converted: a
  // string, a fraction or an out-of-range value names its field.
  const std::string good = cex::toJson(failingArtifact("AG t=0"));
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
      (void)cex::parseJson(doc);
      ADD_FAILURE() << "accepted a bad '" << key << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("hsis-cex-v1: field '" + key, 0),
                0u)
          << e.what();
    }
  };
  rejects(tampered("domain", "1e300"), "domain");
  rejects(tampered("bits", "-1"), "bits");
  rejects(tampered("line", "1e10"), "line");
  rejects(tampered("cycle_start", "0.5"), "cycle_start");
  // The first value of the first step: "latches": [0, ...] -> ["0", ...].
  rejects(tampered("latches", "[\"0\"", "\"steps\""), "latches");
}

TEST_F(CexFixture, VcdExportsSignalsAndUnrollsLasso) {
  cex::Artifact path = failingArtifact("AG t=0");
  std::string vcd = cex::toVcd(path);
  EXPECT_NE(vcd.find("$var wire 2 ! s $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 \" t $end"), std::string::npos);
  EXPECT_NE(vcd.find("w $end"), std::string::npos);  // input has a $var too
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_EQ(vcd.find("lasso"), std::string::npos);  // plain path: no unroll

  cex::Artifact lasso = failingArtifact("AF s=3");
  std::string lvcd = cex::toVcd(lasso);
  EXPECT_NE(lvcd.find("lasso: cycle re-enters step"), std::string::npos);
  // the cycle is unrolled twice: one timestamp per step plus one per
  // cycle state beyond the steps themselves.
  size_t cycleLen =
      lasso.steps.size() - static_cast<size_t>(lasso.cycleStart);
  std::string lastTs =
      "#" + std::to_string(lasso.steps.size() + cycleLen);
  EXPECT_NE(lvcd.find(lastTs), std::string::npos);
}

TEST_F(CexFixture, ReplayVerifiesGenuineTraces) {
  cex::Artifact ag = failingArtifact("AG t=0");
  cex::ReplayResult r = cex::replay(ag, *fsm, *tr);
  EXPECT_TRUE(r.verified) << r.note;

  cex::Artifact af = failingArtifact("AF s=3");
  r = cex::replay(af, *fsm, *tr);
  EXPECT_TRUE(r.verified) << r.note;

  cex::verifyAndStamp(ag, *fsm, *tr);
  EXPECT_EQ(ag.replay, "verified");
  EXPECT_TRUE(ag.replayNote.empty());
}

TEST_F(CexFixture, ReplayDetectsTampering) {
  // Not an initial state.
  cex::Artifact a = failingArtifact("AG t=0");
  a.steps[0].latchValues = {1, 0};
  cex::ReplayResult r = cex::replay(a, *fsm, *tr);
  EXPECT_FALSE(r.verified);
  EXPECT_FALSE(r.note.empty());

  // Value outside the latch domain.
  a = failingArtifact("AG t=0");
  a.steps[1].latchValues[0] = 7;
  r = cex::replay(a, *fsm, *tr);
  EXPECT_FALSE(r.verified);

  // Final state no longer violates AG t=0 (and contradicts the recorded
  // w=1 stimulus).
  a = failingArtifact("AG t=0");
  a.steps[1].latchValues = {1, 0};
  r = cex::replay(a, *fsm, *tr);
  EXPECT_FALSE(r.verified);

  // Impossible transition: s jumps 0 -> 2.
  a = failingArtifact("AG t=0");
  a.steps[1].latchValues = {2, 1};
  r = cex::replay(a, *fsm, *tr);
  EXPECT_FALSE(r.verified);
}

TEST_F(CexFixture, NonReplayableShapesComeBackUnverified) {
  // EF is not a universal pattern: the checker yields no trace, so fake a
  // single-state artifact and ask for a replay of an unsupported shape.
  McResult r = mc->check(parseCtl("AG t=0"));
  ASSERT_TRUE(r.counterexample.has_value());
  cex::BuildInputs in;
  in.propertyText = "EF t=1 & AG s!=3";  // conjunction: not AG/AF-shaped
  cex::Artifact a = cex::build(*fsm, *r.counterexample, in);
  cex::ReplayResult rr = cex::replay(a, *fsm, *tr);
  EXPECT_FALSE(rr.verified);
  EXPECT_NE(rr.note.find("not replayable"), std::string::npos) << rr.note;
}

TEST_F(CexFixture, MarkdownRendersStepTable) {
  cex::Artifact a = failingArtifact("AG t=0");
  cex::verifyAndStamp(a, *fsm, *tr);
  std::string md = cex::renderMarkdown(a);
  EXPECT_NE(md.find("# Counterexample"), std::string::npos);
  EXPECT_NE(md.find("AG t=0"), std::string::npos);
  EXPECT_NE(md.find("verified"), std::string::npos);
  EXPECT_NE(md.find("| step |"), std::string::npos);
  EXPECT_NE(md.find("in: w"), std::string::npos);
}

TEST_F(CexFixture, WriteFilesCreatesParentDirectories) {
  cex::Artifact a = failingArtifact("AG t=0");
  std::string dir = ::testing::TempDir() + "cex_nested/deeper";
  std::string json = dir + "/a.cex.json";
  std::string vcd = dir + "/a.cex.vcd";
  ASSERT_TRUE(cex::writeFiles(a, json, vcd));
  std::ifstream jin(json);
  ASSERT_TRUE(jin.good());
  std::ostringstream text;
  text << jin.rdbuf();
  cex::Artifact back = cex::parseJson(text.str());
  EXPECT_EQ(back.steps.size(), a.steps.size());
  std::ifstream vin(vcd);
  EXPECT_TRUE(vin.good());
  std::remove(json.c_str());
  std::remove(vcd.c_str());
}

// ---- recompile-from-source replay (the hsis_report cex --replay path) ----

constexpr const char* kVerilogSrc = R"(
module m;
  wire clk;
  wire en;
  reg a;
  reg [1:0] b;
  always @(posedge clk) begin
    a <= !a;
    if (en) b <= b + 1;
  end
  initial a = 0;
  initial b = 0;
endmodule
)";

TEST(CexReplayFromSource, RecompilesEmbeddedDesign) {
  if (!cex::cexEnabled()) GTEST_SKIP() << "cex disabled";
  auto flat = blifmv::flatten(vl2mv::compile(kVerilogSrc));
  BddManager mgr;
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  CtlChecker mc(fsm, tr);
  McResult r = mc.check(parseCtl("AG b!=2"));
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());

  Session::DesignSource src{Session::DesignSource::Kind::Verilog,
                            kVerilogSrc, ""};
  cex::BuildInputs in;
  in.propertyName = "bcap";
  in.propertyText = "AG b!=2";
  in.designName = "m";
  in.designDigest = src.digest();
  in.designKind = "verilog";
  in.designText = kVerilogSrc;
  cex::Artifact a = cex::build(fsm, *r.counterexample, in);

  // Verilog line attribution flowed through .lineinfo into the artifact.
  bool sawLine = false;
  for (const cex::SignalInfo& l : a.latches)
    if (l.name == "b") sawLine = l.sourceLine == 6;
  EXPECT_TRUE(sawLine);

  cex::ReplayResult rr = cex::replayFromSource(a);
  EXPECT_TRUE(rr.verified) << rr.note;

  // A digest mismatch means the embedded source is not what was checked.
  cex::Artifact stale = a;
  stale.designDigest = "0000000000000000";
  rr = cex::replayFromSource(stale);
  EXPECT_FALSE(rr.verified);
  EXPECT_NE(rr.note.find("digest"), std::string::npos) << rr.note;

  // No embedded source at all: unverified with a note, no crash.
  cex::Artifact bare = a;
  bare.designKind.clear();
  bare.designText.clear();
  rr = cex::replayFromSource(bare);
  EXPECT_FALSE(rr.verified);
  EXPECT_FALSE(rr.note.empty());
}

// ---- the HSIS_CEX_DISABLE gate ----

TEST(CexGate, EnvVarDisablesArtifacts) {
  ::setenv("HSIS_CEX_DISABLE", "1", 1);
  EXPECT_FALSE(cex::cexEnabled());
  ::unsetenv("HSIS_CEX_DISABLE");
}

}  // namespace
}  // namespace hsis
