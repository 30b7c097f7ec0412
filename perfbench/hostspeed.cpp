#include "hostspeed.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// One slice builds f = AND over i < kBits of (x_i XNOR y_i), the equality
// of two kBits-bit vectors, with every x ordered above every y. Below the
// x's the BDD keeps one cube per x assignment, so it grows to about
// 3 * 2^kBits nodes, and the slice spends its time as the engine's image
// steps do: apply recursion, unique-table probes and computed-cache traffic
// over a working set of a few MB.
constexpr uint32_t kBits = 13;
constexpr uint32_t kUniqueSize = 1u << 19;
constexpr uint32_t kCacheSize = 1u << 17;
constexpr uint32_t kTerminalVar = UINT32_MAX;

enum Op : uint32_t { kAnd = 1, kXor = 2 };

uint32_t hash3(uint32_t a, uint32_t b, uint32_t c) {
  uint64_t h = a * 0x9e3779b97f4a7c15ULL;
  h ^= b * 0xc2b2ae3d27d4eb4fULL;
  h ^= c * 0x165667b19e3779f9ULL;
  return static_cast<uint32_t>(h ^ (h >> 31));
}

/// A minimal BDD package: nodes never freed, no complement edges.
class MiniBdd {
 public:
  MiniBdd() : unique_(kUniqueSize), cache_(kCacheSize) {
    nodes_.reserve(size_t{8} << kBits);
  }

  void reset() {
    nodes_.clear();
    nodes_.push_back({kTerminalVar, 0, 0});  // 0: false
    nodes_.push_back({kTerminalVar, 1, 1});  // 1: true
    std::fill(unique_.begin(), unique_.end(), 0);
    std::fill(cache_.begin(), cache_.end(), Entry{});
  }
  [[nodiscard]] size_t size() const { return nodes_.size(); }
  uint32_t var(uint32_t v) { return mk(v, 0, 1); }

  uint32_t apply(Op op, uint32_t f, uint32_t g) {
    if (op == kAnd) {
      if (f == 0 || g == 0) return 0;
      if (f == 1 || f == g) return g;
      if (g == 1) return f;
    } else {
      if (f == g) return 0;
      if (f == 0) return g;
      if (g == 0) return f;
    }
    if (f > g) std::swap(f, g);
    Entry& e = cache_[hash3(op, f, g) & (kCacheSize - 1)];
    if (e.op == op && e.f == f && e.g == g) return e.r;
    const Node nf = nodes_[f], ng = nodes_[g];  // mk may grow nodes_
    const uint32_t v = std::min(nf.var, ng.var);
    const uint32_t lo =
        apply(op, nf.var == v ? nf.lo : f, ng.var == v ? ng.lo : g);
    const uint32_t hi =
        apply(op, nf.var == v ? nf.hi : f, ng.var == v ? ng.hi : g);
    const uint32_t r = mk(v, lo, hi);
    e = {op, f, g, r};
    return r;
  }

 private:
  struct Node {
    uint32_t var, lo, hi;
  };
  struct Entry {
    uint32_t op = 0, f = 0, g = 0, r = 0;
  };

  uint32_t mk(uint32_t v, uint32_t lo, uint32_t hi) {
    if (lo == hi) return lo;
    for (uint32_t h = hash3(v, lo, hi);; ++h) {
      uint32_t& slot = unique_[h & (kUniqueSize - 1)];
      if (slot == 0) {
        slot = static_cast<uint32_t>(nodes_.size());
        nodes_.push_back({v, lo, hi});
        return slot;
      }
      const Node& n = nodes_[slot];
      if (n.var == v && n.lo == lo && n.hi == hi) return slot;
    }
  }

  std::vector<Node> nodes_;
  std::vector<uint32_t> unique_;  ///< node index, 0 = empty slot
  std::vector<Entry> cache_;
};

/// The slice's work; returns the node count, the same on every call.
size_t slice(MiniBdd& b) {
  b.reset();
  uint32_t f = 1;
  for (uint32_t i = 0; i < kBits; ++i) {
    const uint32_t differ = b.apply(kXor, b.var(i), b.var(kBits + i));
    f = b.apply(kAnd, f, b.apply(kXor, differ, 1));
  }
  return b.size();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

double HostSpeed::sample() {
  thread_local MiniBdd bdd;  // the background thread gets its own
  const Clock::time_point t0 = Clock::now();
  const size_t nodes = slice(bdd);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  const int64_t atNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t0.time_since_epoch())
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  if (nodes_ == 0) nodes_ = nodes;
  if (nodes != nodes_)
    throw std::logic_error("reference slice built " + std::to_string(nodes) +
                           " nodes, then " + std::to_string(nodes_));
  slices_.push_back({atNs, ms});
  return ms;
}

double HostSpeed::slowdownLocked(int64_t fromNs, int64_t toNs) const {
  if (slices_.empty()) return 1;
  auto byTime = [](const Slice& s, int64_t t) { return s.atNs < t; };
  auto lo = std::lower_bound(slices_.begin(), slices_.end(), fromNs - kNearNs,
                             byTime);
  auto hi = std::lower_bound(lo, slices_.end(), toNs + kNearNs + 1, byTime);
  if (lo == hi) {  // no slice near: the nearest one
    if (lo == slices_.end()) --lo;
    hi = lo + 1;
  }
  std::vector<double> ms;
  for (auto it = lo; it != hi; ++it) ms.push_back(it->ms);
  return std::pow(median(std::move(ms)) / kCalmSliceMs, kSensitivity);
}

double HostSpeed::slowdownAt(int64_t fromNs, int64_t toNs) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slowdownLocked(fromNs, toNs);
}

double HostSpeed::meanSlowdown(int64_t fromNs, int64_t toNs) const {
  std::lock_guard<std::mutex> lock(mu_);
  double weighted = 0, total = 0;
  for (size_t i = 0; i < slices_.size(); ++i) {
    const int64_t at = slices_[i].atNs;
    if (at < fromNs || at > toNs) continue;
    const int64_t next =
        i + 1 < slices_.size() ? std::min(slices_[i + 1].atNs, toNs) : toNs;
    const double w = static_cast<double>(std::max<int64_t>(next - at, 1));
    weighted += w * slowdownLocked(at, at);
    total += w;
  }
  return total > 0 ? weighted / total : slowdownLocked(fromNs, toNs);
}

void HostSpeed::startBackground(double periodMs) {
  stop_ = false;
  background_ = std::thread([this, periodMs] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(periodMs));
    for (Clock::time_point next = Clock::now(); !stop_;) {
      sample();
      next += period;
      std::this_thread::sleep_until(next);
    }
  });
}

void HostSpeed::stopBackground() {
  stop_ = true;
  if (background_.joinable()) background_.join();
}

double HostSpeed::medianSliceMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> ms;
  for (const Slice& s : slices_) ms.push_back(s.ms);
  return ms.empty() ? 0 : median(std::move(ms));
}

size_t HostSpeed::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slices_.size();
}

}  // namespace perfbench
