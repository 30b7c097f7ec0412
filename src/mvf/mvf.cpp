#include "mvf/mvf.hpp"

#include <cassert>
#include <stdexcept>

namespace hsis {

uint32_t MvSpace::bitsFor(uint32_t domain) {
  assert(domain >= 1);
  uint32_t bits = 0;
  while ((1u << bits) < domain) ++bits;
  return bits == 0 ? 1 : bits;  // domain 1..2 still gets one bit
}

MvVarId MvSpace::addVar(std::string name, uint32_t domain,
                        std::vector<std::string> valueNames,
                        std::optional<std::vector<BddVar>> bits) {
  if (domain == 0) throw std::invalid_argument("MvSpace: empty domain for " + name);
  uint32_t nbits = bitsFor(domain);
  std::vector<BddVar> bv;
  if (bits.has_value()) {
    if (bits->size() != nbits)
      throw std::invalid_argument("MvSpace: wrong bit count for " + name);
    bv = std::move(*bits);
  } else {
    bv.reserve(nbits);
    for (uint32_t i = 0; i < nbits; ++i) bv.push_back(mgr_->newVar());
  }
  MvVarId id = static_cast<MvVarId>(vars_.size());
  if (!valueNames.empty() && valueNames.size() != domain)
    throw std::invalid_argument("MvSpace: value-name count mismatch for " + name);
  vars_.push_back(Info{name, domain, std::move(valueNames), std::move(bv)});
  byName_.emplace(vars_.back().name, id);
  return id;
}

std::string MvSpace::valueName(MvVarId v, uint32_t value) const {
  const Info& info = vars_[v];
  if (value < info.valueNames.size()) return info.valueNames[value];
  return std::to_string(value);
}

std::optional<uint32_t> MvSpace::valueOf(MvVarId v, const std::string& s) const {
  const Info& info = vars_[v];
  for (uint32_t k = 0; k < info.valueNames.size(); ++k) {
    if (info.valueNames[k] == s) return k;
  }
  // Fall back to numerals.
  if (!s.empty() && s.find_first_not_of("0123456789") == std::string::npos) {
    unsigned long val = std::stoul(s);
    if (val < info.domain) return static_cast<uint32_t>(val);
  }
  return std::nullopt;
}

std::optional<MvVarId> MvSpace::findVar(const std::string& name) const {
  auto it = byName_.find(name);
  if (it == byName_.end()) return std::nullopt;
  return it->second;
}

Bdd MvSpace::literal(MvVarId v, uint32_t value) const {
  const Info& info = vars_[v];
  if (value >= info.domain)
    throw std::out_of_range("MvSpace::literal: value out of domain of " + info.name);
  Bdd r = mgr_->bddOne();
  // Deepest bits first keeps each conjunction step O(1)-ish; correctness
  // does not depend on it.
  for (size_t i = info.bits.size(); i-- > 0;) {
    r &= mgr_->bddLiteral(info.bits[i], (value >> i) & 1u);
  }
  return r;
}

Bdd MvSpace::literalSet(MvVarId v, const std::vector<uint32_t>& values) const {
  Bdd r = mgr_->bddZero();
  for (uint32_t k : values) r |= literal(v, k);
  return r;
}

Bdd MvSpace::cube(MvVarId v) const { return mgr_->cube(vars_[v].bits); }

Bdd MvSpace::cube(const std::vector<MvVarId>& vs) const {
  std::vector<BddVar> bits;
  for (MvVarId v : vs)
    bits.insert(bits.end(), vars_[v].bits.begin(), vars_[v].bits.end());
  return mgr_->cube(bits);
}

Bdd MvSpace::validEncodings(MvVarId v) const {
  const Info& info = vars_[v];
  if ((1u << info.bits.size()) == info.domain) return mgr_->bddOne();
  Bdd r = mgr_->bddZero();
  for (uint32_t k = 0; k < info.domain; ++k) r |= literal(v, k);
  return r;
}

uint32_t MvSpace::decode(MvVarId v, const std::vector<int8_t>& assignment) const {
  const Info& info = vars_[v];
  uint32_t val = 0;
  for (size_t i = 0; i < info.bits.size(); ++i) {
    BddVar b = info.bits[i];
    if (b < assignment.size() && assignment[b] == 1) val |= 1u << i;
  }
  return val < info.domain ? val : 0;
}

uint32_t MvSpace::totalBits(const std::vector<MvVarId>& vs) const {
  uint32_t n = 0;
  for (MvVarId v : vs) n += static_cast<uint32_t>(vars_[v].bits.size());
  return n;
}

// ------------------------------------------------------------------- Mvf

Mvf Mvf::constant(BddManager& mgr, uint32_t domain, uint32_t value) {
  std::vector<Bdd> parts(domain, mgr.bddZero());
  parts.at(value) = mgr.bddOne();
  return Mvf(std::move(parts));
}

Mvf Mvf::varFunction(const MvSpace& space, MvVarId v) {
  std::vector<Bdd> parts;
  parts.reserve(space.domain(v));
  for (uint32_t k = 0; k < space.domain(v); ++k)
    parts.push_back(space.literal(v, k));
  return Mvf(std::move(parts));
}

Bdd Mvf::mayEqual(const Mvf& o) const {
  assert(domain() == o.domain() && domain() > 0);
  BddManager& mgr = *parts_[0].manager();
  Bdd r = mgr.bddZero();
  for (uint32_t k = 0; k < domain(); ++k) r |= parts_[k] & o.parts_[k];
  return r;
}

Bdd Mvf::definedSet() const {
  assert(domain() > 0);
  BddManager& mgr = *parts_[0].manager();
  Bdd r = mgr.bddZero();
  for (const Bdd& p : parts_) r |= p;
  return r;
}

Bdd Mvf::nondetSet() const {
  assert(domain() > 0);
  BddManager& mgr = *parts_[0].manager();
  Bdd seen = mgr.bddZero();
  Bdd multi = mgr.bddZero();
  for (const Bdd& p : parts_) {
    multi |= seen & p;
    seen |= p;
  }
  return multi;
}

bool Mvf::isDeterministic(const Bdd& careSet) const {
  return (nondetSet() & careSet).isZero();
}

Bdd Mvf::toRelation(const MvSpace& space, MvVarId v) const {
  assert(domain() == space.domain(v));
  BddManager& mgr = space.mgr();
  Bdd r = mgr.bddZero();
  for (uint32_t k = 0; k < domain(); ++k) {
    if (!parts_[k].isZero()) r |= parts_[k] & space.literal(v, k);
  }
  return r;
}

}  // namespace hsis
