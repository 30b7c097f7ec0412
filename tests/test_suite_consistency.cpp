// Cross-cutting consistency sweep over the whole model suite: the two
// transition-relation forms and all quantification planners must agree on
// the reachable state count of every bundled design.
#include <gtest/gtest.h>

#include "blifmv/blifmv.hpp"
#include "fsm/image.hpp"
#include "models/models.hpp"
#include "vl2mv/vl2mv.hpp"

namespace hsis {
namespace {

class SuiteConsistency : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteConsistency, TrFormsAgreeOnReachability) {
  const models::ModelDef* m = models::find(GetParam());
  ASSERT_NE(m, nullptr);
  auto design = vl2mv::compile(std::string(m->verilog), std::string(m->top));
  auto flat = blifmv::flatten(design);

  double counts[3];
  size_t depths[3];
  int i = 0;
  for (auto build : {+[](Fsm& f) {
                       return TransitionRelation::monolithic(f, QuantMethod::Greedy);
                     },
                     +[](Fsm& f) {
                       return TransitionRelation::monolithic(f, QuantMethod::Tree);
                     },
                     +[](Fsm& f) { return TransitionRelation::partitioned(f, 2000); }}) {
    BddManager mgr;
    Fsm fsm(mgr, flat);
    auto tr = build(fsm);
    ReachResult r = reachableStates(tr, fsm.initialStates());
    counts[i] = fsm.countStates(r.reached);
    depths[i] = r.depth;
    ++i;
  }
  EXPECT_DOUBLE_EQ(counts[0], counts[1]);
  EXPECT_DOUBLE_EQ(counts[0], counts[2]);
  EXPECT_EQ(depths[0], depths[1]);
  EXPECT_EQ(depths[0], depths[2]);
  EXPECT_GT(counts[0], 0.0);
}

TEST_P(SuiteConsistency, BlifMvRoundTripsThroughWriter) {
  const models::ModelDef* m = models::find(GetParam());
  auto design = vl2mv::compile(std::string(m->verilog), std::string(m->top));
  // write -> parse -> write is a fixpoint, and the re-parsed design builds
  // an FSM with the same state space
  std::string text = blifmv::write(design);
  auto design2 = blifmv::parse(text);
  EXPECT_EQ(blifmv::write(design2), text);

  BddManager mgr;
  Fsm fsm(mgr, blifmv::flatten(design2));
  auto tr = TransitionRelation::monolithic(fsm);
  double viaText = fsm.countStates(reachableStates(tr, fsm.initialStates()).reached);

  BddManager mgr2;
  Fsm fsm2(mgr2, blifmv::flatten(design));
  auto tr2 = TransitionRelation::monolithic(fsm2);
  double direct = fsm2.countStates(reachableStates(tr2, fsm2.initialStates()).reached);
  EXPECT_DOUBLE_EQ(viaText, direct);
}

INSTANTIATE_TEST_SUITE_P(AllModels, SuiteConsistency,
                         ::testing::Values("philos", "pingpong", "gigamax",
                                           "scheduler", "dcnew", "2mdlc"));

}  // namespace
}  // namespace hsis
