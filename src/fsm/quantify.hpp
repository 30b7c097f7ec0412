// The early quantification problem [Hojati-Krishnan-Brayton, M94/11]:
// given relation BDDs R_1..R_n and a set Q of variables to existentially
// quantify, compute ∃Q. ∏R_i while keeping intermediate BDDs small by
// quantifying each variable as soon as no un-multiplied relation depends
// on it.
//
// Two planners are provided (the paper: "we have implemented two different
// packages for this problem"), plus a naive baseline for ablation:
//  - Greedy: left-deep multiplication order chosen by a dead-variable /
//    introduced-variable cost function (IWLS95 style). Only on request
//    (the two-package ablation): it blows up on rings (see
//    quantifiedPieces).
//  - Tree: balanced binary clustering over relations sorted by the top
//    level of their support, quantifying at the lowest subtree that
//    encloses all occurrences of a variable. The default everywhere.
//  - Naive: multiply everything in the given order, quantify at the end.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"

namespace hsis {

enum class QuantMethod { Naive, Greedy, Tree };

std::string toString(QuantMethod m);

/// A multiplication/quantification schedule, as a binary combine tree.
struct QuantPlanNode {
  int relation = -1;  ///< leaf: index into the relations array
  std::unique_ptr<QuantPlanNode> left, right;
  /// Variables quantified at this node, right after combining the children
  /// (empty cube == plain conjunction).
  std::vector<BddVar> quantifyHere;
};

struct QuantPlan {
  std::unique_ptr<QuantPlanNode> root;
  QuantMethod method = QuantMethod::Naive;
};

struct QuantExecStats {
  size_t peakIntermediateNodes = 0;  ///< largest intermediate result BDD
  size_t andExistsCalls = 0;
};

/// Build a schedule. `quantifiable[v]` marks BDD variables that may be
/// quantified out (all others are kept). Relations equal to constant one
/// are skipped.
QuantPlan planQuantification(BddManager& mgr, const std::vector<Bdd>& relations,
                             const std::vector<bool>& quantifiable,
                             QuantMethod method);

/// Execute a schedule. Any quantifiable variable occurring in no relation
/// at all is trivially dropped (it has no constraints).
Bdd executePlan(BddManager& mgr, const QuantPlan& plan,
                const std::vector<Bdd>& relations,
                QuantExecStats* stats = nullptr);

/// Early quantification stopped before the final conjunction: eliminate
/// until every quantifiable variable is quantified, and return the
/// quantifier-free products left, stable-sorted by support size, smallest
/// first. Their conjunction is what productAndQuantify returns. The pieces
/// themselves do not depend on the elimination order (each is one group of
/// relations linked through quantifiable variables); the min-width (Tree)
/// order builds them, since min-degree (Greedy) blows up on rings:
/// philos-6 peaks at 97,627 intermediate nodes under Greedy, 1,457 under
/// Tree.
std::vector<Bdd> quantifiedPieces(BddManager& mgr, const std::vector<Bdd>& relations,
                                  const std::vector<bool>& quantifiable);

/// Convenience: plan + execute.
Bdd productAndQuantify(BddManager& mgr, const std::vector<Bdd>& relations,
                       const Bdd& quantifyCube, QuantMethod method,
                       QuantExecStats* stats = nullptr);

}  // namespace hsis
