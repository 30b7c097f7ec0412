// Tests for the symbolic FSM layer: construction, early quantification,
// image computation, reachability, and trace generation.
#include <gtest/gtest.h>
#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>

#include "blifmv/blifmv.hpp"
#include "designs.hpp"
#include "fsm/fsm.hpp"
#include "fsm/image.hpp"
#include "fsm/quantify.hpp"
#include "fsm/trace.hpp"
#include "models/models.hpp"
#include "vl2mv/vl2mv.hpp"

namespace hsis {
namespace {

blifmv::Model flatOf(const char* text) {
  return blifmv::flatten(blifmv::parse(text));
}

const char* kCounter = R"(
.model counter
.mv s, ns 4
.table s ns
0 1
1 2
2 3
3 0
.latch ns s
.reset s
0
.end
)";

const char* kNondetPair = R"(
.model pair
.mv a, na, b, nb 3
.table a na
0 (0,1)
1 (1,2)
2 (2,0)
.table b nb
- =b
.latch na a
.latch nb b
.reset a
0
.reset b
1
.end
)";

TEST(Fsm, CounterStructure) {
  BddManager mgr;
  auto flat = flatOf(kCounter);
  Fsm fsm(mgr, flat);
  EXPECT_EQ(fsm.numLatches(), 1u);
  EXPECT_EQ(fsm.latchName(0), "s");
  EXPECT_EQ(fsm.stateVars().size(), 1u);
  EXPECT_EQ(fsm.nextVars().size(), 1u);
  EXPECT_TRUE(fsm.inputVars().empty());
  EXPECT_EQ(fsm.internalVars().size(), 1u);  // ns
  EXPECT_EQ(fsm.stateBits(), 2u);
  EXPECT_EQ(fsm.relations().size(), 2u);  // table + latch link
  EXPECT_TRUE(fsm.signalVar("s").has_value());
  EXPECT_FALSE(fsm.signalVar("zz").has_value());
  EXPECT_TRUE(fsm.diagnostics().empty());
}

TEST(Fsm, InterleavedStateBits) {
  BddManager mgr;
  auto flat = flatOf(kCounter);
  Fsm fsm(mgr, flat);
  const auto& xb = fsm.space().bits(fsm.stateVar(0));
  const auto& yb = fsm.space().bits(fsm.nextVar(0));
  // present/next bits pairwise adjacent in the order
  for (size_t i = 0; i < xb.size(); ++i) {
    EXPECT_EQ(mgr.level(yb[i]), mgr.level(xb[i]) + 1);
  }
}

TEST(Fsm, InitialStates) {
  BddManager mgr;
  auto flat = flatOf(kNondetPair);
  Fsm fsm(mgr, flat);
  Bdd init = fsm.initialStates();
  EXPECT_DOUBLE_EQ(fsm.countStates(init), 1.0);
  EXPECT_EQ(init, fsm.stateFromValues({0, 1}));
}

TEST(Fsm, NondeterministicReset) {
  BddManager mgr;
  auto flat = flatOf(R"(
.model m
.table x
1
.latch x s
.reset s
0
1
.end
)");
  Fsm fsm(mgr, flat);
  EXPECT_DOUBLE_EQ(fsm.countStates(fsm.initialStates()), 2.0);
}

TEST(Fsm, RenameRails) {
  BddManager mgr;
  auto flat = flatOf(kCounter);
  Fsm fsm(mgr, flat);
  Bdd sIs2 = fsm.space().literal(fsm.stateVar(0), 2);
  Bdd next = fsm.presentToNext(sIs2);
  EXPECT_EQ(next, fsm.space().literal(fsm.nextVar(0), 2));
  EXPECT_EQ(fsm.nextToPresent(next), sIs2);
}

TEST(Fsm, FormatAndDecode) {
  BddManager mgr;
  auto flat = flatOf(kNondetPair);
  Fsm fsm(mgr, flat);
  std::vector<int8_t> cube = concretizeState(fsm, fsm.initialStates());
  EXPECT_EQ(fsm.decodeState(cube), (std::vector<uint32_t>{0, 1}));
  std::string s = fsm.formatState(cube);
  EXPECT_NE(s.find("a=0"), std::string::npos);
  EXPECT_NE(s.find("b=1"), std::string::npos);
}

TEST(Fsm, ConstructionErrors) {
  BddManager mgr;
  // two latches driving one output
  EXPECT_THROW(Fsm(mgr, flatOf(R"(
.model m
.table x
1
.latch x s
.latch x s
.reset s
0
.end
)")),
               std::runtime_error);
  // table drives latch output
  BddManager mgr2;
  EXPECT_THROW(Fsm(mgr2, flatOf(R"(
.model m
.table x
1
.table s
0
.latch x s
.reset s
0
.end
)")),
               std::runtime_error);
  // missing reset
  BddManager mgr3;
  EXPECT_THROW(Fsm(mgr3, flatOf(R"(
.model m
.table x
1
.latch x s
.end
)")),
               std::runtime_error);
  // combinational cycle
  BddManager mgr4;
  EXPECT_THROW(Fsm(mgr4, flatOf(R"(
.model m
.table b a
- =b
.table a b
- =a
.end
)")),
               std::runtime_error);
  // bad symbolic value
  BddManager mgr5;
  EXPECT_THROW(Fsm(mgr5, flatOf(R"(
.model m
.mv x 2
.table x
purple
.end
)")),
               std::runtime_error);
}

TEST(Fsm, UndrivenSignalDiagnostic) {
  BddManager mgr;
  auto flat = flatOf(R"(
.model m
.table w out
- =w
.end
)");
  Fsm fsm(mgr, flat);
  EXPECT_FALSE(fsm.diagnostics().empty());
  EXPECT_EQ(fsm.inputVars().size(), 1u);  // w treated as free input
}

// --------------------------------------------------------- quantification

class QuantMethods : public ::testing::TestWithParam<QuantMethod> {};

TEST_P(QuantMethods, AllPlannersAgree) {
  BddManager mgr;
  auto flat = flatOf(kNondetPair);
  Fsm fsm(mgr, flat);
  Bdd naive = productAndQuantify(mgr, fsm.relations(), fsm.nonStateCube(),
                                 QuantMethod::Naive);
  Bdd other = productAndQuantify(mgr, fsm.relations(), fsm.nonStateCube(),
                                 GetParam());
  EXPECT_EQ(naive, other);
}

INSTANTIATE_TEST_SUITE_P(Planners, QuantMethods,
                         ::testing::Values(QuantMethod::Naive,
                                           QuantMethod::Greedy,
                                           QuantMethod::Tree));

TEST(Quantify, StatsAndPeak) {
  BddManager mgr;
  auto flat = flatOf(kNondetPair);
  Fsm fsm(mgr, flat);
  QuantExecStats naive, greedy;
  productAndQuantify(mgr, fsm.relations(), fsm.nonStateCube(),
                     QuantMethod::Naive, &naive);
  productAndQuantify(mgr, fsm.relations(), fsm.nonStateCube(),
                     QuantMethod::Greedy, &greedy);
  EXPECT_GT(naive.peakIntermediateNodes, 0u);
  EXPECT_GT(greedy.peakIntermediateNodes, 0u);
  EXPECT_LE(greedy.peakIntermediateNodes, naive.peakIntermediateNodes * 2);
}

TEST(Quantify, HandlesConstantOneRelations) {
  BddManager mgr(4);
  std::vector<Bdd> rels{mgr.bddOne(), mgr.bddVar(0) & mgr.bddVar(1), mgr.bddOne()};
  Bdd r = productAndQuantify(mgr, rels, mgr.bddVar(0), QuantMethod::Greedy);
  EXPECT_EQ(r, mgr.bddVar(1));
}

TEST(Quantify, ToStringNames) {
  EXPECT_EQ(toString(QuantMethod::Naive), "naive");
  EXPECT_EQ(toString(QuantMethod::Greedy), "greedy");
  EXPECT_EQ(toString(QuantMethod::Tree), "tree");
}

// ------------------------------------------------------------------ image

TEST(Image, MonolithicAndPartitionedAgree) {
  BddManager mgr;
  auto flat = flatOf(kNondetPair);
  Fsm fsm(mgr, flat);
  auto mono = TransitionRelation::monolithic(fsm);
  auto part = TransitionRelation::partitioned(fsm, 16);  // force many clusters
  EXPECT_TRUE(mono.isMonolithic());
  Bdd s = fsm.initialStates();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(mono.image(s), part.image(s)) << "step " << i;
    EXPECT_EQ(mono.preimage(s), part.preimage(s)) << "step " << i;
    s = mono.image(s);
  }
  EXPECT_GT(part.clusterCount(), 1u);
  EXPECT_THROW((void)part.monolithicRelation(), std::logic_error);
}

TEST(Image, ImagePreimageGaloisConnection) {
  BddManager mgr;
  auto flat = flatOf(kNondetPair);
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  Bdd s = fsm.initialStates();
  // S ⊆ pre(img(S)) whenever every state of S has a successor
  Bdd img = tr.image(s);
  EXPECT_TRUE(s.leq(tr.preimage(img)));
  // img(pre(T) ∩ ...) ⊆ T-ish: image of preimage intersected is inside
  Bdd t = fsm.space().literal(fsm.stateVar(0), 1);
  Bdd pre = tr.preimage(t);
  if (!pre.isZero()) {
    EXPECT_FALSE((tr.image(pre) & t).isZero());
  }
}

TEST(Image, ReachabilityCounter) {
  BddManager mgr;
  auto flat = flatOf(kCounter);
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  ReachResult r = reachableStates(tr, fsm.initialStates());
  EXPECT_DOUBLE_EQ(fsm.countStates(r.reached), 4.0);
  EXPECT_EQ(r.depth, 3u);
  EXPECT_FALSE(r.stoppedEarly);
}

TEST(Image, ReachabilityOnionRings) {
  BddManager mgr;
  auto flat = flatOf(kCounter);
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  ReachOptions opts;
  opts.keepOnionRings = true;
  ReachResult r = reachableStates(tr, fsm.initialStates(), opts);
  ASSERT_EQ(r.onionRings.size(), 4u);
  // rings are disjoint and union to reached
  Bdd all = mgr.bddZero();
  for (const Bdd& ring : r.onionRings) {
    EXPECT_TRUE((all & ring).isZero());
    all |= ring;
  }
  EXPECT_EQ(all, r.reached);
}

TEST(Image, WatchStopsEarly) {
  BddManager mgr;
  auto flat = flatOf(kCounter);
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  ReachOptions opts;
  size_t calls = 0;
  opts.watch = [&](const Bdd&, size_t) { return ++calls == 2; };
  ReachResult r = reachableStates(tr, fsm.initialStates(), opts);
  EXPECT_TRUE(r.stoppedEarly);
  EXPECT_LT(fsm.countStates(r.reached), 4.0);
}

TEST(Image, MaxStepsBound) {
  BddManager mgr;
  auto flat = flatOf(kCounter);
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  ReachOptions opts;
  opts.maxSteps = 1;
  ReachResult r = reachableStates(tr, fsm.initialStates(), opts);
  EXPECT_TRUE(r.stoppedEarly);
  EXPECT_DOUBLE_EQ(fsm.countStates(r.reached), 2.0);
}

TEST(Image, MinimizedAgreesOnCareSet) {
  BddManager mgr;
  auto flat = flatOf(kNondetPair);
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::partitioned(fsm, 100);
  ReachResult r = reachableStates(tr, fsm.initialStates());
  auto trMin = tr.minimized(r.reached);
  Bdd s = fsm.initialStates();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(trMin.image(s), tr.image(s));
    s = tr.image(s);
  }
}

// Every quantifiable variable is quantified at exactly one step: present
// and non-state variables on image, next and non-state on preimage.
void expectScheduleCoversOnce(const Fsm& fsm, const TransitionRelation& tr,
                              const char* which) {
  BddManager& mgr = fsm.mgr();
  auto stepsOf = [&](const std::vector<Bdd>& cubes) {
    std::vector<int> steps(mgr.numVars(), 0);
    for (const Bdd& c : cubes)
      for (BddVar v : mgr.support(c)) ++steps[v];
    return steps;
  };
  std::vector<int> img = stepsOf(tr.imageCubes());
  std::vector<int> pre = stepsOf(tr.preimageCubes());
  std::vector<bool> present(mgr.numVars()), next(mgr.numVars()),
      nonState(mgr.numVars());
  for (BddVar v : mgr.support(fsm.presentCube())) present[v] = true;
  for (BddVar v : mgr.support(fsm.nextCube())) next[v] = true;
  for (BddVar v : mgr.support(fsm.nonStateCube())) nonState[v] = true;
  for (BddVar v = 0; v < mgr.numVars(); ++v) {
    EXPECT_EQ(img[v], present[v] || nonState[v] ? 1 : 0)
        << which << ": image steps of variable " << v;
    EXPECT_EQ(pre[v], next[v] || nonState[v] ? 1 : 0)
        << which << ": preimage steps of variable " << v;
  }
}

struct PinnedTr {
  uint32_t clusters;
  uint32_t nodes;
  char model[16];
};

// gtest prints the parameter into the test's ctest name; the model name
// keeps that name readable and stable when a pin changes.
void PrintTo(const PinnedTr& pin, std::ostream* os) { *os << pin.model; }

class TableOneSchedule : public ::testing::TestWithParam<PinnedTr> {};

TEST_P(TableOneSchedule, StepCubesQuantifyEachVariableOnce) {
  const PinnedTr& pin = GetParam();
  const models::ModelDef* m = models::find(pin.model);
  ASSERT_NE(m, nullptr);
  auto flat = blifmv::flatten(
      vl2mv::compile(std::string(m->verilog), std::string(m->top)));
  BddManager mgr;
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::partitioned(fsm);
  // The clustering plan itself, as Session::build makes it.
  EXPECT_EQ(tr.clusterCount(), pin.clusters);
  EXPECT_EQ(tr.totalNodes(), pin.nodes);
  expectScheduleCoversOnce(fsm, tr, "partitioned");
  ReachResult r = reachableStates(tr, fsm.initialStates());
  expectScheduleCoversOnce(fsm, tr.minimized(r.reached), "minimized");
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TableOneSchedule,
    ::testing::Values(PinnedTr{1, 178, "philos"}, PinnedTr{1, 5, "pingpong"},
                      PinnedTr{1, 127, "gigamax"},
                      PinnedTr{1, 1363, "scheduler"},
                      PinnedTr{1, 327, "dcnew"}, PinnedTr{2, 7007, "2mdlc"}),
    [](const ::testing::TestParamInfo<PinnedTr>& info) {
      return std::string(info.param.model);
    });

blifmv::Model flatOfDesign(const std::string& verilog, const std::string& top) {
  return blifmv::flatten(vl2mv::compile(verilog, top));
}

// The clustering has no cliff: it merges two pieces only when the product
// is no larger than the two together, so raising the cap can only let
// such merges through. A cluster larger than the cap is one fully
// quantified piece, never a merge.
TEST(Image, PartitionedClustersDoNotDependOnACliff) {
  const models::ModelDef* m = models::find("2mdlc");
  ASSERT_NE(m, nullptr);
  auto flat = flatOfDesign(std::string(m->verilog), std::string(m->top));
  BddManager mgr;
  Fsm fsm(mgr, flat);
  std::vector<bool> nonState(mgr.numVars(), false);
  for (BddVar v : mgr.support(fsm.nonStateCube())) nonState[v] = true;
  std::vector<Bdd> pieces = quantifiedPieces(mgr, fsm.relations(), nonState);
  auto mono = TransitionRelation::monolithic(fsm);

  perfbench::Design eight = perfbench::philos(8, false);
  auto philosFlat = flatOfDesign(eight.verilog, eight.top);
  BddManager philosMgr;
  Fsm philos(philosMgr, philosFlat);

  for (size_t limit : {2500, 5000, 10000, 60000}) {
    auto tr = TransitionRelation::partitioned(fsm, limit);
    EXPECT_LE(tr.totalNodes(), 7007u) << "limit " << limit;
    for (const Bdd& c : tr.clusters()) {
      bool piece = std::find(pieces.begin(), pieces.end(), c) != pieces.end();
      EXPECT_TRUE(piece || c.nodeCount() <= limit)
          << "limit " << limit << ": a merged cluster of " << c.nodeCount()
          << " nodes";
    }
    Bdd s = fsm.initialStates();
    EXPECT_EQ(tr.image(s), mono.image(s)) << "limit " << limit;
    EXPECT_EQ(TransitionRelation::partitioned(philos, limit).clusterCount(), 1u)
        << "philos-8, limit " << limit;
  }
}

// ------------------------------------------------------------------ trace

TEST(Trace, ShortestPath) {
  BddManager mgr;
  auto flat = flatOf(kCounter);
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  Bdd target = fsm.space().literal(fsm.stateVar(0), 3);
  auto t = shortestPathTo(tr, fsm.initialStates(), target);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->states.size(), 4u);  // 0,1,2,3
  EXPECT_FALSE(t->isLasso());
  // decode endpoints
  EXPECT_EQ(fsm.decodeState(t->states.front()), std::vector<uint32_t>{0});
  EXPECT_EQ(fsm.decodeState(t->states.back()), std::vector<uint32_t>{3});
  // consecutive states are actually connected
  for (size_t i = 0; i + 1 < t->states.size(); ++i) {
    Bdd cur = fsm.stateFromValues(fsm.decodeState(t->states[i]));
    Bdd nxt = fsm.stateFromValues(fsm.decodeState(t->states[i + 1]));
    EXPECT_FALSE((tr.image(cur) & nxt).isZero());
  }
}

TEST(Trace, UnreachableTarget) {
  BddManager mgr;
  auto flat = flatOf(kNondetPair);
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  // b is frozen at 1, so b=2 is unreachable
  Bdd target = fsm.space().literal(fsm.stateVar(1), 2);
  EXPECT_EQ(shortestPathTo(tr, fsm.initialStates(), target), std::nullopt);
}

TEST(Trace, FairLassoOnCycle) {
  BddManager mgr;
  auto flat = flatOf(kCounter);
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  ReachResult r = reachableStates(tr, fsm.initialStates());
  Bdd constraint = fsm.space().literal(fsm.stateVar(0), 2);
  auto t = fairLasso(tr, fsm.initialStates(), r.reached, {constraint});
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->isLasso());
  // the cycle visits s=2
  bool hits = false;
  for (size_t i = static_cast<size_t>(t->cycleStart); i < t->states.size(); ++i) {
    if (fsm.decodeState(t->states[i])[0] == 2) hits = true;
  }
  EXPECT_TRUE(hits);
  // every consecutive pair (and the back edge) is a real transition
  for (size_t i = 0; i + 1 < t->states.size(); ++i) {
    Bdd cur = fsm.stateFromValues(fsm.decodeState(t->states[i]));
    Bdd nxt = fsm.stateFromValues(fsm.decodeState(t->states[i + 1]));
    EXPECT_FALSE((tr.image(cur) & nxt).isZero());
  }
  Bdd last = fsm.stateFromValues(fsm.decodeState(t->states.back()));
  Bdd loop = fsm.stateFromValues(
      fsm.decodeState(t->states[static_cast<size_t>(t->cycleStart)]));
  EXPECT_FALSE((tr.image(last) & loop).isZero());
}

TEST(Trace, LassoRespectsHull) {
  BddManager mgr;
  auto flat = flatOf(kNondetPair);
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  ReachResult r = reachableStates(tr, fsm.initialStates());
  auto t = fairLasso(tr, fsm.initialStates(), r.reached, {});
  ASSERT_TRUE(t.has_value());
  for (const auto& s : t->states) {
    Bdd cube = fsm.stateFromValues(fsm.decodeState(s));
    EXPECT_TRUE(cube.leq(r.reached));
  }
}

}  // namespace
}  // namespace hsis
