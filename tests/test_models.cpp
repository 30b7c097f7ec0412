// Integration tests over the Table-1 model suite: every design compiles,
// builds, and every property produces its designed verdict.
#include <gtest/gtest.h>

#include <string>

#include "hsis/environment.hpp"
#include "models/models.hpp"

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
  Environment env;
  env.readVerilog(std::string(m->verilog), std::string(m->top));
  env.readPif(std::string(m->pif));
  std::vector<BugReport> reports = env.verifyAll();

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
  EXPECT_GT(env.reachedStates(), 0.0);
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
    Environment env;
    env.readVerilog(std::string(m.verilog), std::string(m.top));
    env.build();
    EXPECT_GT(env.metrics().linesBlifMv, env.metrics().linesVerilog) << m.name;
    double states = env.reachedStates();
    if (m.name == "2mdlc") {
      mdlcLines = env.metrics().linesBlifMv;
    } else {
      maxOtherLines = std::max(maxOtherLines, env.metrics().linesBlifMv);
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

/// scheduler with `n` cells: the bundled design's cell module under a
/// generated ring. Exactly one token circulates and each cell is idle or
/// running with a timer in 0..3, so n * 5^n states are reachable.
std::string schedulerRing(int n) {
  std::string cell(models::find("scheduler")->verilog);
  cell = cell.substr(cell.find("module cell"));
  std::string v = "module scheduler;\n  wire clk;\n";
  for (int i = 0; i < n; ++i)
    v += "  wire s" + std::to_string(i) + ", b" + std::to_string(i) + ";\n";
  for (int i = 0; i < n; ++i) {
    v += i == 0 ? "  cell #(.HASTOKEN(1)) c0(" : "  cell c" + std::to_string(i) + "(";
    v += "s" + std::to_string((i + n - 1) % n) + ", s" + std::to_string(i) +
         ", b" + std::to_string(i) + ");\n";
  }
  return v + "endmodule\n\n" + cell;
}

TEST(Models, ReachedStateCountsAreExact) {
  // The reached sets are small functions under complement edges; a density
  // count that read those edges as 1 - d drifted (2mdlc) or cancelled to 0
  // (scheduler-40).
  auto reached = [](const std::string& verilog, const std::string& top) {
    Environment env;
    env.readVerilog(verilog, top);
    env.build();
    return env.reachedStates();
  };
  const models::ModelDef* mdlc = models::find("2mdlc");
  EXPECT_EQ(reached(std::string(mdlc->verilog), std::string(mdlc->top)),
            22316033.0);
  for (int n : {10, 24, 40}) {
    double expected = n;
    for (int i = 0; i < n; ++i) expected *= 5;
    EXPECT_NEAR(reached(schedulerRing(n), "scheduler"), expected,
                expected * 1e-12)
        << "scheduler-" << n;
  }
}

}  // namespace
}  // namespace hsis
