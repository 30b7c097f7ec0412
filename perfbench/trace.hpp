// In-memory span recorder for the traced benchmark run. Spans are taken
// from outside the engine, around calls into each layer's public
// functions; nothing is written until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t startNs = 0;
  int64_t endNs = 0;
  int parent = -1;  ///< index into the recorder's spans, -1 = root
  uint64_t job = 0;
};

class Tracer {
 public:
  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Open a span under `parent`; returns its index for close().
  int open(std::string name, int parent, uint64_t job) {
    spans_.push_back({std::move(name), nowNs(), 0, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) { spans_[index].endNs = nowNs(); }
  /// A span whose duration another timer measured (a layer the program
  /// times internally, e.g. Session's flatten/TR split).
  void add(std::string name, int parent, uint64_t job, int64_t startNs,
           int64_t durNs) {
    spans_.push_back({std::move(name), startNs, startNs + durNs, parent, job});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    size_t count = 0;
    double totalMs = 0;
    double selfMs = 0;
  };
  /// Per span name: count, total and self time (duration minus the part
  /// covered by child spans; children of one span never overlap here).
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = out[s.name];
      ++t.count;
      t.totalMs += (s.endNs - s.startNs) / 1e6;
      t.selfMs += (s.endNs - s.startNs - childNs[i]) / 1e6;
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span for straight-line layer calls.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, int parent, uint64_t job)
      : t_(t), idx_(t ? t->open(name, parent, job) : -1) {}
  ~Scoped() {
    if (t_) t_->close(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

}  // namespace perfbench
