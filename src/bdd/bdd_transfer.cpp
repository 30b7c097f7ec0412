// Cross-manager BDD transfer by structural copy.
//
// The batch scheduler gives each worker thread its own BddManager and moves
// the design over once; after that the workers never synchronize on BDD
// state at all. The copy walks the source DAG bottom-up, memoizing per
// *regular* edge (complement bits are stripped before the walk and XORed
// back outside), so `f` and `!f` share one traversal and the copied graph
// has exactly the source's node count for the transferred roots.
//
// Safety contract: the source manager must be quiescent for the duration of
// the transfer — no operations, GC, reordering, or handle copies and
// destructions on it from any thread. A transfer only reads it: it takes
// source handles by reference and never copies one, so the source's
// reference counts are not written. Several transfers of the same source
// can therefore run at once, one per worker, which is how par::checkBatch
// builds its replicas. The destination manager is private to the caller.
#include "bdd/bdd.hpp"

#include <stdexcept>

namespace hsis {

BddTransfer::BddTransfer(BddManager& src, BddManager& dst)
    : src_(&src), dst_(&dst) {
  if (src_ == dst_)
    throw std::invalid_argument(
        "BddTransfer: source and destination are the same manager");
  // Mirror the source variable universe and its order. Variables are
  // matched by id, so the destination must cover at least the source's ids;
  // extra destination variables are left where they are (below the copied
  // order, per setOrder's contract).
  while (dst_->numVars() < src_->numVars()) dst_->newVar();
  dst_->setOrder(src_->varOrder());
}

uint32_t BddTransfer::copyRec(uint32_t e) {
  // Invariant: `e` is a regular source edge; the result is a regular
  // destination edge. Terminal first — the only regular terminal is ONE.
  if (src_->isTerm(BddManager::eIdx(e))) return BddManager::kOneEdge;
  auto it = memo_.find(e);
  if (it != memo_.end()) return it->second;

  const uint32_t n = BddManager::eIdx(e);
  const BddVar var = src_->nodes_[n].var;
  const uint32_t srcLo = src_->nodes_[n].lo;  // regular by canonical form
  const uint32_t srcHi = src_->nodes_[n].hi;
  const uint32_t hiSign = BddManager::eSign(srcHi);

  uint32_t dstLo = copyRec(srcLo);
  uint32_t dstHi = copyRec(srcHi ^ hiSign) ^ hiSign;
  // Regular low in, regular edge out: mkNode only sign-factors on a
  // complemented low edge, so the memoized edge stays regular.
  uint32_t out = dst_->mkNode(var, dstLo, dstHi);
  // Pin the copy: the memo holds raw indices, which a destination GC
  // between copy() calls would otherwise be free to sweep.
  keep_.push_back(dst_->makeHandle(out));
  memo_.emplace(e, out);
  return out;
}

Bdd BddTransfer::copy(const Bdd& f) {
  if (f.isNull()) return {};
  uint32_t e = f.index();
  uint32_t s = BddManager::eSign(e);
  return dst_->makeHandle(copyRec(e ^ s) ^ s);
}

std::vector<Bdd> BddTransfer::copy(const std::vector<Bdd>& fs) {
  std::vector<Bdd> out;
  out.reserve(fs.size());
  for (const Bdd& f : fs) out.push_back(copy(f));
  return out;
}

}  // namespace hsis
