// Construction of the symbolic c/s model from a flattened BLIF-MV model.
#include "fsm/fsm.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace hsis {

namespace {

[[noreturn]] void fsmError(const std::string& msg) {
  throw std::runtime_error("fsm: " + msg);
}

uint32_t domainOf(const blifmv::Model& flat, const std::string& sig) {
  const blifmv::VarDecl* d = flat.declOf(sig);
  return d == nullptr ? 2 : d->domain;
}

std::vector<std::string> namesOf(const blifmv::Model& flat,
                                 const std::string& sig) {
  const blifmv::VarDecl* d = flat.declOf(sig);
  return d == nullptr ? std::vector<std::string>{} : d->valueNames;
}

}  // namespace

Fsm::Fsm(BddManager& mgr, const blifmv::Model& flat)
    : space_(mgr), name_(flat.name) {
  checkCombinationalCycles(flat);
  buildVariables(flat);
  buildRelations(flat);
  buildInit(flat);
}

void Fsm::buildVariables(const blifmv::Model& flat) {
  BddManager& mgr = space_.mgr();

  std::unordered_set<std::string> latchOutputs;
  for (const blifmv::Latch& l : flat.latches) {
    if (!latchOutputs.insert(l.output).second)
      fsmError("latch output " + l.output + " driven by two latches");
  }

  // Present/next state variables, bit-interleaved per latch.
  for (const blifmv::Latch& l : flat.latches) {
    uint32_t dom = domainOf(flat, l.output);
    if (domainOf(flat, l.input) != dom)
      fsmError("latch " + l.output + ": input domain " +
               std::to_string(domainOf(flat, l.input)) + " != output domain " +
               std::to_string(dom));
    uint32_t nbits = MvSpace::bitsFor(dom);
    std::vector<BddVar> xb, yb;
    for (uint32_t i = 0; i < nbits; ++i) {
      xb.push_back(mgr.newVar());
      yb.push_back(mgr.newVar());
    }
    MvVarId x = space_.addVar(l.output, dom, namesOf(flat, l.output), xb);
    MvVarId y = space_.addVar(l.output + "$next", dom, namesOf(flat, l.output), yb);
    latches_.push_back(LatchInfo{l.output, l.input, x, y, flat.lineOf(l.output)});
    stateVars_.push_back(x);
    nextVars_.push_back(y);
    signalVar_[l.output] = x;
  }

  // Everything else, in a deterministic order: primary inputs, then table
  // signals in order of appearance.
  std::unordered_set<std::string> driven;  // signals with a combinational driver
  for (const blifmv::Table& t : flat.tables) driven.insert(t.output);

  auto addSignal = [&](const std::string& sig) {
    if (signalVar_.contains(sig)) return;
    MvVarId v = space_.addVar(sig, domainOf(flat, sig), namesOf(flat, sig));
    signalVar_[sig] = v;
    bool isPrimaryInput = false;
    for (const std::string& in : flat.inputs) {
      if (in == sig) isPrimaryInput = true;
    }
    if (isPrimaryInput) {
      inputVars_.push_back(v);
    } else if (!driven.contains(sig)) {
      diagnostics_.push_back("signal " + sig +
                             " is undriven; treated as a free input");
      inputVars_.push_back(v);
    } else {
      internalVars_.push_back(v);
    }
  };

  for (const std::string& in : flat.inputs) addSignal(in);
  for (const blifmv::Table& t : flat.tables) {
    for (const std::string& s : t.inputs) addSignal(s);
    addSignal(t.output);
  }
  for (const blifmv::Latch& l : flat.latches) addSignal(l.input);

  if (!inputVars_.empty()) {
    diagnostics_.push_back(
        "model has free inputs; verification expects a closed system");
  }

  // Cubes and rename maps.
  presentCube_ = space_.cube(stateVars_);
  nextCube_ = space_.cube(nextVars_);
  std::vector<MvVarId> nonState = inputVars_;
  nonState.insert(nonState.end(), internalVars_.begin(), internalVars_.end());
  nonStateCube_ = space_.cube(nonState);
  stateBits_ = space_.totalBits(stateVars_);

  buildRenameMaps();
}

void Fsm::buildRenameMaps() {
  uint32_t nv = space_.mgr().numVars();
  nextToPresentMap_.resize(nv);
  presentToNextMap_.resize(nv);
  for (uint32_t i = 0; i < nv; ++i) {
    nextToPresentMap_[i] = i;
    presentToNextMap_[i] = i;
  }
  for (const LatchInfo& l : latches_) {
    const auto& xb = space_.bits(l.present);
    const auto& yb = space_.bits(l.next);
    for (size_t i = 0; i < xb.size(); ++i) {
      nextToPresentMap_[yb[i]] = xb[i];
      presentToNextMap_[xb[i]] = yb[i];
    }
  }
}

void Fsm::buildRelations(const blifmv::Model& flat) {
  BddManager& mgr = space_.mgr();
  std::unordered_set<std::string> latchOutputs;
  for (const blifmv::Latch& l : flat.latches) latchOutputs.insert(l.output);

  std::unordered_set<std::string> drivenSeen;
  for (const blifmv::Table& t : flat.tables) {
    if (latchOutputs.contains(t.output))
      fsmError("table drives latch output " + t.output);
    if (!drivenSeen.insert(t.output).second)
      fsmError("signal " + t.output + " has multiple table drivers");

    MvVarId out = signalVar_.at(t.output);
    std::vector<MvVarId> ins;
    ins.reserve(t.inputs.size());
    for (const std::string& s : t.inputs) ins.push_back(signalVar_.at(s));

    auto resolve = [&](MvVarId v, const std::string& tok) -> uint32_t {
      std::optional<uint32_t> k = space_.valueOf(v, tok);
      if (!k.has_value())
        fsmError("value '" + tok + "' not in domain of " + space_.name(v) +
                 " (table for " + t.output + ")");
      return *k;
    };

    auto inputEntryBdd = [&](MvVarId v, const blifmv::RowEntry& e) -> Bdd {
      switch (e.kind) {
        case blifmv::RowEntry::Kind::Any:
          return space_.validEncodings(v);
        case blifmv::RowEntry::Kind::Values: {
          std::vector<uint32_t> vals;
          vals.reserve(e.values.size());
          for (const std::string& s : e.values) vals.push_back(resolve(v, s));
          return space_.literalSet(v, vals);
        }
        case blifmv::RowEntry::Kind::Complement: {
          Bdd set = space_.literal(v, resolve(v, e.values.at(0)));
          return space_.validEncodings(v) & !set;
        }
        case blifmv::RowEntry::Kind::Equal:
          fsmError("'=' entry in an input column of table for " + t.output);
      }
      return mgr.bddZero();
    };

    Bdd rel = mgr.bddZero();
    Bdd covered = mgr.bddZero();
    for (const blifmv::Row& row : t.rows) {
      Bdd inCube = mgr.bddOne();
      for (size_t i = 0; i < ins.size(); ++i) {
        inCube &= inputEntryBdd(ins[i], row.entries[i]);
      }
      const blifmv::RowEntry& oe = row.entries.back();
      Bdd outSet;
      switch (oe.kind) {
        case blifmv::RowEntry::Kind::Any:
          outSet = space_.validEncodings(out);
          break;
        case blifmv::RowEntry::Kind::Values: {
          std::vector<uint32_t> vals;
          for (const std::string& s : oe.values) vals.push_back(resolve(out, s));
          outSet = space_.literalSet(out, vals);
          break;
        }
        case blifmv::RowEntry::Kind::Complement: {
          Bdd set = space_.literal(out, resolve(out, oe.values.at(0)));
          outSet = space_.validEncodings(out) & !set;
          break;
        }
        case blifmv::RowEntry::Kind::Equal: {
          // out == named input, pointwise over the common domain.
          auto it = signalVar_.find(oe.eqVar);
          if (it == signalVar_.end())
            fsmError("'=' references unknown signal " + oe.eqVar);
          MvVarId src = it->second;
          uint32_t dom = std::min(space_.domain(src), space_.domain(out));
          Bdd eq = mgr.bddZero();
          for (uint32_t k = 0; k < dom; ++k)
            eq |= space_.literal(src, k) & space_.literal(out, k);
          rel |= inCube & eq;
          covered |= inCube;
          outSet = Bdd();  // handled above
          break;
        }
      }
      if (!outSet.isNull()) {
        rel |= inCube & outSet;
        covered |= inCube;
      }
    }
    if (t.defaultValue.has_value()) {
      Bdd dflt = space_.literal(out, resolve(out, *t.defaultValue));
      rel |= (!covered) & dflt;
    }
    drivers_.emplace(out, Driver{relations_.size(), std::move(ins)});
    relations_.push_back(std::move(rel));
  }

  // Latch linking relations: y_l == value of the latch's input signal.
  for (const LatchInfo& l : latches_) {
    MvVarId src = signalVar_.at(l.inputSignal);
    if (space_.domain(src) != space_.domain(l.next))
      fsmError("latch " + l.name + ": next-state domain mismatch");
    Bdd eq = mgr.bddZero();
    for (uint32_t k = 0; k < space_.domain(src); ++k)
      eq |= space_.literal(src, k) & space_.literal(l.next, k);
    relations_.push_back(std::move(eq));
  }
}

void Fsm::buildInit(const blifmv::Model& flat) {
  BddManager& mgr = space_.mgr();
  init_ = mgr.bddOne();
  size_t li = 0;
  for (const blifmv::Latch& l : flat.latches) {
    const LatchInfo& info = latches_[li++];
    if (l.resetValues.empty())
      fsmError("latch " + l.output + " has no .reset values");
    Bdd alts = mgr.bddZero();
    for (const std::string& tok : l.resetValues) {
      std::optional<uint32_t> k = space_.valueOf(info.present, tok);
      if (!k.has_value())
        fsmError("reset value '" + tok + "' not in domain of " + l.output);
      alts |= space_.literal(info.present, *k);
    }
    init_ &= alts;
  }
}

void Fsm::checkCombinationalCycles(const blifmv::Model& flat) const {
  // Build signal -> driving table dependencies; latch outputs are sources.
  std::unordered_map<std::string, const blifmv::Table*> driver;
  for (const blifmv::Table& t : flat.tables) driver[t.output] = &t;
  std::unordered_set<std::string> latchOut;
  for (const blifmv::Latch& l : flat.latches) latchOut.insert(l.output);

  enum class Mark : uint8_t { White, Grey, Black };
  std::unordered_map<std::string, Mark> mark;
  std::vector<std::pair<std::string, size_t>> stack;  // (signal, next input idx)

  for (const auto& [sig, t] : driver) {
    if (mark[sig] != Mark::White) continue;
    stack.emplace_back(sig, 0);
    mark[sig] = Mark::Grey;
    while (!stack.empty()) {
      auto& [cur, idx] = stack.back();
      const blifmv::Table* ct = driver.at(cur);
      if (idx >= ct->inputs.size()) {
        mark[cur] = Mark::Black;
        stack.pop_back();
        continue;
      }
      const std::string& dep = ct->inputs[idx++];
      if (latchOut.contains(dep) || !driver.contains(dep)) continue;
      Mark m = mark[dep];
      if (m == Mark::Grey)
        fsmError("combinational cycle through signal " + dep);
      if (m == Mark::White) {
        mark[dep] = Mark::Grey;
        stack.emplace_back(dep, 0);
      }
    }
  }
}

std::optional<MvVarId> Fsm::signalVar(const std::string& name) const {
  auto it = signalVar_.find(name);
  if (it == signalVar_.end()) return std::nullopt;
  return it->second;
}

const Fsm::Driver* Fsm::driverOf(MvVarId v) const {
  auto it = drivers_.find(v);
  return it == drivers_.end() ? nullptr : &it->second;
}

void Fsm::reserveMonitorRail(uint32_t bits) {
  BddManager& mgr = space_.mgr();
  while (railPresent_.size() < bits) {
    railPresent_.push_back(mgr.newVar());
    railNext_.push_back(mgr.newVar());
  }
}

Fsm Fsm::withMonitor(const std::string& name,
                     const std::vector<std::string>& valueNames,
                     uint32_t initValue) const {
  const auto domain = static_cast<uint32_t>(valueNames.size());
  const uint32_t nbits = MvSpace::bitsFor(domain);
  if (railPresent_.size() < nbits)
    throw std::logic_error("fsm: monitor rail narrower than the monitor");
  if (signalVar_.contains(name))
    throw std::logic_error("fsm: monitor name " + name + " is taken");
  Fsm out(*this);
  std::vector<BddVar> xb(railPresent_.begin(), railPresent_.begin() + nbits);
  std::vector<BddVar> yb(railNext_.begin(), railNext_.begin() + nbits);
  MvVarId x = out.space_.addVar(name, domain, valueNames, xb);
  MvVarId y = out.space_.addVar(name + "$next", domain, valueNames, yb);
  out.latches_.push_back(LatchInfo{name, "", x, y, 0});
  out.stateVars_.push_back(x);
  out.nextVars_.push_back(y);
  out.signalVar_[name] = x;
  out.presentCube_ &= out.space_.cube(x);
  out.nextCube_ &= out.space_.cube(y);
  out.stateBits_ += nbits;
  out.init_ &= out.space_.literal(x, initValue);
  out.buildRenameMaps();
  return out;
}

Bdd Fsm::nextToPresent(const Bdd& f) const {
  return space_.mgr().permute(f, nextToPresentMap_);
}

Bdd Fsm::presentToNext(const Bdd& f) const {
  return space_.mgr().permute(f, presentToNextMap_);
}

double Fsm::countStates(const Bdd& set) const {
  return space_.mgr().satCount(set, stateBits_);
}

std::vector<uint32_t> Fsm::decodeState(const std::vector<int8_t>& cube) const {
  std::vector<uint32_t> vals;
  vals.reserve(latches_.size());
  for (const LatchInfo& l : latches_) vals.push_back(space_.decode(l.present, cube));
  return vals;
}

std::string Fsm::formatState(const std::vector<int8_t>& cube) const {
  std::ostringstream os;
  for (size_t i = 0; i < latches_.size(); ++i) {
    if (i != 0) os << ", ";
    uint32_t v = space_.decode(latches_[i].present, cube);
    os << latches_[i].name << "=" << space_.valueName(latches_[i].present, v);
  }
  return os.str();
}

Bdd Fsm::stateFromValues(const std::vector<uint32_t>& values) const {
  assert(values.size() == latches_.size());
  Bdd s = space_.mgr().bddOne();
  for (size_t i = 0; i < latches_.size(); ++i)
    s &= space_.literal(latches_[i].present, values[i]);
  return s;
}

// Every symbolic member is the structural copy of the source's, the rest a
// plain copy, member by member: copying the whole Fsm first would copy (and
// later drop) every source handle, writing the source's reference counts.
// Variable ids carry over verbatim: BddTransfer mirrors the source's
// variable universe and order.
Fsm::Fsm(BddTransfer& tx, const Fsm& src)
    : space_(src.space_),
      name_(src.name_),
      latches_(src.latches_),
      stateVars_(src.stateVars_),
      nextVars_(src.nextVars_),
      inputVars_(src.inputVars_),
      internalVars_(src.internalVars_),
      signalVar_(src.signalVar_),
      drivers_(src.drivers_),
      relations_(tx.copy(src.relations_)),
      init_(tx.copy(src.init_)),
      presentCube_(tx.copy(src.presentCube_)),
      nextCube_(tx.copy(src.nextCube_)),
      nonStateCube_(tx.copy(src.nonStateCube_)),
      nextToPresentMap_(src.nextToPresentMap_),
      presentToNextMap_(src.presentToNextMap_),
      stateBits_(src.stateBits_),
      railPresent_(src.railPresent_),
      railNext_(src.railNext_),
      diagnostics_(src.diagnostics_) {
  space_.rebindManager(tx.dst());
}

}  // namespace hsis
