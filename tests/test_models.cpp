// Integration tests over the Table-1 model suite: every design compiles,
// builds, and every property produces its designed verdict.
#include <gtest/gtest.h>

#include <string>

#include "designs.hpp"
#include "hsis/session.hpp"
#include "models/models.hpp"
#include "par/batch.hpp"

namespace hsis {
namespace {

TEST(Models, RegistryComplete) {
  EXPECT_EQ(models::all().size(), 6u);
  for (const char* name :
       {"philos", "pingpong", "gigamax", "scheduler", "dcnew", "2mdlc"}) {
    const models::ModelDef* m = models::find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_FALSE(m->verilog.empty());
    EXPECT_FALSE(m->pif.empty());
    EXPECT_FALSE(m->description.empty());
  }
  EXPECT_EQ(models::find("nope"), nullptr);
}

struct Expected {
  const char* model;
  const char* property;
  bool holds;
};

// The designed verdict of every property in the suite. philos deliberately
// contains the left-fork deadlock; dcnew deliberately starves channel 2.
const Expected kExpected[] = {
    {"philos", "mutex", true},
    {"philos", "no_deadlock", false},
    {"philos", "neighbours_exclusive", true},
    {"philos", "progress_p0", false},
    {"pingpong", "one_owner", true},
    {"pingpong", "ping_to_pong", true},
    {"pingpong", "pong_to_ping", true},
    {"pingpong", "always_return", true},
    {"pingpong", "flight_lands", true},
    {"pingpong", "can_rally", true},
    {"pingpong", "never_both", true},
    {"pingpong", "pong_infinitely_often", true},
    {"pingpong", "alternation", true},
    {"pingpong", "ping_infinitely_often", true},
    {"pingpong", "flight_is_transient", true},
    {"pingpong", "eventually_rally", true},
    {"gigamax", "no_two_owners", true},
    {"gigamax", "owner_excludes_sharers", true},
    {"gigamax", "can_own", true},
    {"gigamax", "can_share_two", true},
    {"gigamax", "sharer_safe", true},
    {"gigamax", "can_lose_line", true},
    {"gigamax", "owner_can_demote", true},
    {"gigamax", "miss_is_served", true},
    {"gigamax", "ownership_rotates", true},
    {"gigamax", "coherence", true},
    {"scheduler", "single_token", true},
    {"scheduler", "cyclic_order", true},
    {"scheduler", "task0_runs_forever", true},
    {"dcnew", "bus_exclusive", true},
    {"dcnew", "xfer_completes", true},
    {"dcnew", "ch0_served", true},
    {"dcnew", "ch1_served", true},
    {"dcnew", "ch2_served", false},
    {"dcnew", "totals_move", true},
    {"dcnew", "parity_flips", true},
    {"dcnew", "one_transfer_at_a_time", true},
    {"2mdlc", "data_integrity", true},
    {"2mdlc", "keeps_delivering", true},
};

class ModelSuite : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelSuite, AllVerdictsAsDesigned) {
  const models::ModelDef* m = models::find(GetParam());
  ASSERT_NE(m, nullptr);
  Session s;
  s.load({Session::DesignSource::Kind::Verilog, std::string(m->verilog),
          std::string(m->top)});
  PifFile pif = parsePif(std::string(m->pif));
  s.addFairness(pif.fairness);
  std::vector<BugReport> reports =
      par::checkBatch(s, pif.properties).reports;

  size_t checked = 0;
  for (const BugReport& r : reports) {
    for (const Expected& e : kExpected) {
      if (e.model == std::string_view(GetParam()) &&
          e.property == r.propertyName) {
        EXPECT_EQ(r.holds, e.holds) << m->name << "." << r.propertyName;
        ++checked;
        // failing properties come with a usable error trace (either inline
        // for MC or rendered into the notes for LC)
        if (!r.holds) {
          EXPECT_TRUE(r.trace.has_value() || !r.notes.empty());
        }
      }
    }
  }
  EXPECT_EQ(checked, reports.size()) << "every property has an expectation";
  EXPECT_GT(s.reachedStates(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Table1, ModelSuite,
                         ::testing::Values("philos", "pingpong", "gigamax",
                                           "scheduler", "dcnew", "2mdlc"));

TEST(Models, Table1Shape) {
  // The shape facts EXPERIMENTS.md reports: BLIF-MV is larger than the
  // Verilog source everywhere; 2mdlc has by far the largest BLIF-MV; the
  // scheduler has the largest reachable state space.
  size_t mdlcLines = 0, maxOtherLines = 0;
  double schedulerStates = 0, maxOtherStates = 0;
  for (const auto& m : models::all()) {
    Session s;
    s.load({Session::DesignSource::Kind::Verilog, std::string(m.verilog),
            std::string(m.top)});
    EXPECT_GT(s.linesBlifMv(), s.linesVerilog()) << m.name;
    double states = s.reachedStates();
    if (m.name == "2mdlc") {
      mdlcLines = s.linesBlifMv();
    } else {
      maxOtherLines = std::max(maxOtherLines, s.linesBlifMv());
    }
    if (m.name == "scheduler") {
      schedulerStates = states;
    } else {
      maxOtherStates = std::max(maxOtherStates, states);
    }
  }
  EXPECT_GT(mdlcLines, maxOtherLines * 4);
  EXPECT_GT(schedulerStates, maxOtherStates);
}

TEST(Models, ReachedStateCountsAreExact) {
  // The reached sets are small functions under complement edges; a density
  // count that read those edges as 1 - d drifted (2mdlc) or cancelled to 0
  // (scheduler-40).
  auto reached = [](const std::string& verilog, const std::string& top) {
    Session s;
    s.load({Session::DesignSource::Kind::Verilog, verilog, top});
    return s.reachedStates();
  };
  const models::ModelDef* mdlc = models::find("2mdlc");
  EXPECT_EQ(reached(std::string(mdlc->verilog), std::string(mdlc->top)),
            22316033.0);
  for (int n : {10, 24, 40}) {
    double expected = n;
    for (int i = 0; i < n; ++i) expected *= 5;
    EXPECT_NEAR(reached(perfbench::scheduler(n, false).verilog, "scheduler"),
                expected, expected * 1e-12)
        << "scheduler-" << n;
  }
}

struct BddSizes {
  size_t reachedNodes = 0;
  size_t rings = 0;
  size_t trClusters = 0;
  size_t trNodes = 0;
};

BddSizes bddSizes(const perfbench::Design& d) {
  Session s;
  s.load({Session::DesignSource::Kind::Verilog, d.verilog, d.top});
  CtlChecker& mc = s.checker();
  return {mc.reached().nodeCount(), mc.onionRings().size(),
          s.tr().clusterCount(), s.tr().totalNodes()};
}

TEST(Models, ParameterizedFamiliesHaveClosedFormBddSizes) {
  // Exact sizes under the default order and clustering: a change to the
  // variable order, the cluster schedule or cube building shows here and
  // names the N where it broke, not as timing noise.
  for (size_t n : {8, 16, 24, 32, 40, 56, 64}) {
    BddSizes b = bddSizes(perfbench::scheduler(static_cast<int>(n), false));
    EXPECT_EQ(b.reachedNodes, 10 * n - 5) << "scheduler-" << n;
    EXPECT_EQ(b.rings, 2 * n + 4) << "scheduler-" << n;
    // From N = 40 one cluster would pass the 5000-node cap, so the TR
    // stays in two; their shared node count keeps the same closed form.
    EXPECT_EQ(b.trClusters, n < 40 ? 1u : 2u) << "scheduler-" << n;
    EXPECT_EQ(b.trNodes, 162 * n - 257) << "scheduler-" << n;
  }
  for (size_t n = 3; n <= 8; ++n) {
    BddSizes b = bddSizes(perfbench::philos(static_cast<int>(n), false));
    EXPECT_EQ(b.reachedNodes, 6 * n - 7) << "philos-" << n;
    EXPECT_EQ(b.rings, 4u) << "philos-" << n;
    EXPECT_EQ(b.trClusters, 1u) << "philos-" << n;
    EXPECT_EQ(b.trNodes, n == 3 ? 88u : 100 * n - 222) << "philos-" << n;
  }
}

}  // namespace
}  // namespace hsis
