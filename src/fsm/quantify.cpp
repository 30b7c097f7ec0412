#include "fsm/quantify.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "obs/obs.hpp"

namespace hsis {

std::string toString(QuantMethod m) {
  switch (m) {
    case QuantMethod::Naive:
      return "naive";
    case QuantMethod::Greedy:
      return "greedy";
    case QuantMethod::Tree:
      return "tree";
  }
  return "?";
}

namespace {

using Support = std::vector<bool>;  // indexed by BddVar

Support supportMask(BddManager& mgr, const Bdd& f) {
  Support s(mgr.numVars(), false);
  for (BddVar v : mgr.support(f)) s[v] = true;
  return s;
}

/// Each relation's support, and the indices of those that are not constant
/// one (at least one index: a product of ones plans as relation 0).
void supportsOf(BddManager& mgr, const std::vector<Bdd>& relations,
                std::vector<Support>& supp, std::vector<int>& active) {
  supp.reserve(relations.size());
  for (size_t i = 0; i < relations.size(); ++i) {
    supp.push_back(supportMask(mgr, relations[i]));
    if (!relations[i].isOne()) active.push_back(static_cast<int>(i));
  }
  if (active.empty()) active.push_back(0);
}

std::unique_ptr<QuantPlanNode> leaf(int i) {
  auto n = std::make_unique<QuantPlanNode>();
  n->relation = i;
  return n;
}

std::unique_ptr<QuantPlanNode> join(std::unique_ptr<QuantPlanNode> l,
                                    std::unique_ptr<QuantPlanNode> r) {
  auto n = std::make_unique<QuantPlanNode>();
  n->left = std::move(l);
  n->right = std::move(r);
  return n;
}

// ----------------------------------------------------- elimination core
//
// Both planner "packages" are variable-elimination schedulers: repeatedly
// pick a quantifiable variable, combine exactly the pending conjuncts that
// mention it, and quantify it (plus any other variable whose occurrences
// were swallowed by the merge). On the circuit-shaped relation sets vl2mv
// produces — thousands of small tables chained through intermediate
// signals — this keeps every combine local to a few conjuncts. The two
// packages differ in the selection heuristic and merge shape:
//  - Greedy: min-degree (fewest occurrences), left-deep merges;
//  - Tree:   min-width (smallest merged support), balanced merges.

struct Pending {
  std::unique_ptr<QuantPlanNode> node;
  Support supp;               ///< membership bitmap
  std::vector<BddVar> vars;   ///< the same support as a compact list
};

std::unique_ptr<QuantPlanNode> combine(std::vector<std::unique_ptr<QuantPlanNode>> nodes,
                                       bool balanced) {
  if (!balanced) {
    std::unique_ptr<QuantPlanNode> acc = std::move(nodes[0]);
    for (size_t k = 1; k < nodes.size(); ++k)
      acc = join(std::move(acc), std::move(nodes[k]));
    return acc;
  }
  while (nodes.size() > 1) {
    std::vector<std::unique_ptr<QuantPlanNode>> next;
    for (size_t k = 0; k + 1 < nodes.size(); k += 2)
      next.push_back(join(std::move(nodes[k]), std::move(nodes[k + 1])));
    if (nodes.size() % 2 == 1) next.push_back(std::move(nodes.back()));
    nodes = std::move(next);
  }
  return std::move(nodes[0]);
}

/// Run the elimination until every quantifiable variable is scheduled and
/// return the quantifier-free pieces left, stable-sorted by support size,
/// smallest first. A variable is quantified only once every piece that
/// mentions it has been merged, so the pieces are exact.
std::vector<Pending> eliminate(BddManager& mgr, const std::vector<bool>& quantifiable,
                               const std::vector<int>& active,
                               const std::vector<Support>& suppIn,
                               QuantMethod method) {
  uint32_t nv = mgr.numVars();
  bool minWidth = method == QuantMethod::Tree;

  std::vector<Pending> pending;
  pending.reserve(active.size());
  for (int i : active) {
    Pending p;
    p.node = leaf(i);
    p.supp = suppIn[i];
    for (uint32_t v = 0; v < nv; ++v)
      if (p.supp[v]) p.vars.push_back(v);
    pending.push_back(std::move(p));
  }

  std::vector<int> occ(nv, 0);
  for (const Pending& p : pending)
    for (BddVar v : p.vars) ++occ[v];

  auto mergeGroup = [&](std::vector<size_t>& group) {
    assert(!group.empty());
    std::sort(group.begin(), group.end());
    Support merged(nv, false);
    std::vector<int> inGroup(nv, 0);
    std::vector<BddVar> mergedVars;
    for (size_t gi : group) {
      for (BddVar v : pending[gi].vars) {
        if (!merged[v]) {
          merged[v] = true;
          mergedVars.push_back(v);
        }
        ++inGroup[v];
      }
    }
    std::vector<std::unique_ptr<QuantPlanNode>> nodes;
    nodes.reserve(group.size());
    for (size_t gi : group) nodes.push_back(std::move(pending[gi].node));
    std::unique_ptr<QuantPlanNode> node = combine(std::move(nodes), minWidth);
    std::vector<BddVar> keptVars;
    for (BddVar v : mergedVars) {
      if (quantifiable[v] && occ[v] == inGroup[v]) {
        node->quantifyHere.push_back(v);
        merged[v] = false;
        occ[v] = 0;
      } else {
        occ[v] -= inGroup[v] - 1;  // group occurrences collapse into one
        keptVars.push_back(v);
      }
    }
    pending[group[0]] =
        Pending{std::move(node), std::move(merged), std::move(keptVars)};
    for (size_t k = group.size(); k-- > 1;) {
      pending.erase(pending.begin() + static_cast<long>(group[k]));
    }
  };

  std::vector<long> widthScore(nv, 0);
  while (true) {
    BddVar best = nv;
    long bestScore = 0;
    if (minWidth) {
      // widthScore[v] ≈ Σ_{conjunct p ∋ v} |supp(p)| — a cheap proxy for
      // the size of the merged support after eliminating v.
      std::fill(widthScore.begin(), widthScore.end(), 0);
      for (const Pending& p : pending) {
        long sz = static_cast<long>(p.vars.size());
        for (BddVar v : p.vars) widthScore[v] += sz;
      }
    }
    for (uint32_t v = 0; v < nv; ++v) {
      if (!quantifiable[v] || occ[v] == 0) continue;
      long score = minWidth ? widthScore[v] : occ[v];
      if (best == nv || score < bestScore) {
        best = v;
        bestScore = score;
      }
    }
    if (best == nv) break;
    std::vector<size_t> group;
    for (size_t i = 0; i < pending.size(); ++i)
      if (pending[i].supp[best]) group.push_back(i);
    mergeGroup(group);
  }

  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.vars.size() < b.vars.size();
                   });
  return pending;
}

QuantPlan planByElimination(BddManager& mgr, const std::vector<bool>& quantifiable,
                            const std::vector<int>& active,
                            const std::vector<Support>& supp,
                            QuantMethod method) {
  // Conjoin the quantifier-free pieces, small supports first.
  std::vector<Pending> pieces = eliminate(mgr, quantifiable, active, supp, method);
  std::vector<std::unique_ptr<QuantPlanNode>> rest;
  rest.reserve(pieces.size());
  for (Pending& p : pieces) rest.push_back(std::move(p.node));
  QuantPlan plan;
  plan.root = combine(std::move(rest), false);
  plan.method = method;
  return plan;
}

// ------------------------------------------------------------------- naive

QuantPlan planNaive(const std::vector<bool>& quantifiable,
                    const std::vector<int>& active,
                    const std::vector<Support>& supp) {
  std::unique_ptr<QuantPlanNode> acc;
  for (int i : active) {
    acc = acc == nullptr ? leaf(i) : join(std::move(acc), leaf(i));
  }
  // Quantify everything at the very end.
  Support all(quantifiable.size(), false);
  for (int i : active)
    for (uint32_t v = 0; v < supp[i].size(); ++v)
      if (supp[i][v]) all[v] = true;
  for (uint32_t v = 0; v < quantifiable.size(); ++v)
    if (quantifiable[v] && all[v]) acc->quantifyHere.push_back(v);
  QuantPlan plan;
  plan.root = std::move(acc);
  plan.method = QuantMethod::Naive;
  return plan;
}

}  // namespace

QuantPlan planQuantification(BddManager& mgr, const std::vector<Bdd>& relations,
                             const std::vector<bool>& quantifiable,
                             QuantMethod method) {
  std::vector<Support> supp;
  std::vector<int> active;
  supportsOf(mgr, relations, supp, active);

  switch (method) {
    case QuantMethod::Greedy:
      return planByElimination(mgr, quantifiable, active, supp, method);
    case QuantMethod::Tree:
      return planByElimination(mgr, quantifiable, active, supp, method);
    case QuantMethod::Naive:
      return planNaive(quantifiable, active, supp);
  }
  return planNaive(quantifiable, active, supp);
}

namespace {

Bdd execNode(BddManager& mgr, const QuantPlanNode* node,
             const std::vector<Bdd>& relations, QuantExecStats* stats) {
  Bdd result;
  if (node->relation >= 0) {
    result = relations[node->relation];
    if (!node->quantifyHere.empty())
      result = mgr.exists(result, mgr.cube(node->quantifyHere));
  } else {
    Bdd l = execNode(mgr, node->left.get(), relations, stats);
    Bdd r = execNode(mgr, node->right.get(), relations, stats);
    result = mgr.andExists(l, r, mgr.cube(node->quantifyHere));
    if (stats != nullptr) ++stats->andExistsCalls;
    static obs::Counter& andExistsCalls = obs::counter("fsm.quant.and_exists");
    andExistsCalls.add();
  }
  static obs::Histogram& intermediateNodes =
      obs::histogram("fsm.quant.intermediate.nodes");
  size_t nc = result.nodeCount();
  intermediateNodes.record(nc);
  if (stats != nullptr) {
    stats->peakIntermediateNodes = std::max(stats->peakIntermediateNodes, nc);
  }
  return result;
}

}  // namespace

Bdd executePlan(BddManager& mgr, const QuantPlan& plan,
                const std::vector<Bdd>& relations, QuantExecStats* stats) {
  obs::Span span("fsm.quant.exec");
  return execNode(mgr, plan.root.get(), relations, stats);
}

std::vector<Bdd> quantifiedPieces(BddManager& mgr, const std::vector<Bdd>& relations,
                                  const std::vector<bool>& quantifiable) {
  std::vector<Support> supp;
  std::vector<int> active;
  supportsOf(mgr, relations, supp, active);
  std::vector<Pending> pieces =
      eliminate(mgr, quantifiable, active, supp, QuantMethod::Tree);
  obs::Span span("fsm.quant.exec");
  std::vector<Bdd> out;
  out.reserve(pieces.size());
  for (const Pending& p : pieces)
    out.push_back(execNode(mgr, p.node.get(), relations, nullptr));
  return out;
}

Bdd productAndQuantify(BddManager& mgr, const std::vector<Bdd>& relations,
                       const Bdd& quantifyCube, QuantMethod method,
                       QuantExecStats* stats) {
  std::vector<bool> quantifiable(mgr.numVars(), false);
  for (BddVar v : mgr.support(quantifyCube)) quantifiable[v] = true;
  QuantPlan plan = planQuantification(mgr, relations, quantifiable, method);
  return executePlan(mgr, plan, relations, stats);
}

}  // namespace hsis
