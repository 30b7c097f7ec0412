// Phase tracer: per-thread span nesting plus a process-wide ring buffer of
// completed spans. Span construction is two clock reads and a thread-local
// push; completion takes a short mutex to append to the ring.
#include "obs/obs.hpp"

#ifndef HSIS_OBS_DISABLE

#include <algorithm>
#include <deque>
#include <map>
#include <mutex>

#include "obs/control.hpp"
#include "obs/tracectx.hpp"

namespace hsis::obs {

namespace {

std::atomic<uint64_t> g_nextSpanId{1};

struct ThreadStack {
  // Active span ids, innermost last. thread_local so nesting needs no lock.
  std::vector<uint64_t> active;
};

ThreadStack& threadStack() {
  thread_local ThreadStack ts;
  return ts;
}

struct ThreadNameTable {
  std::mutex mu;
  std::map<uint64_t, std::string> names;
};

ThreadNameTable& threadNameTable() {
  static ThreadNameTable* t = new ThreadNameTable;  // leaked, see Registry
  return *t;
}

}  // namespace

void setThreadName(std::string_view name) {
  ThreadNameTable& t = threadNameTable();
  std::lock_guard<std::mutex> lock(t.mu);
  t.names.try_emplace(currentThreadId(), std::string(name));
}

std::vector<std::pair<uint64_t, std::string>> threadNames() {
  ThreadNameTable& t = threadNameTable();
  std::lock_guard<std::mutex> lock(t.mu);
  std::vector<std::pair<uint64_t, std::string>> out(t.names.begin(),
                                                    t.names.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  return out;
}

struct Tracer::Impl {
  mutable std::mutex mu;
  std::deque<SpanSample> ring;  ///< oldest first; the oldest drops when full
  size_t capacity = 8192;
  uint64_t dropped = 0;
};

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

Tracer::Impl& Tracer::impl() const {
  // Intentionally leaked; see Registry::impl().
  static Impl* impl = new Impl;
  return *impl;
}

void Tracer::setCapacity(size_t n) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.capacity = n == 0 ? 1 : n;
  im.ring.clear();
  im.dropped = 0;
}

void Tracer::emit(SpanSample&& s) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (im.ring.size() == im.capacity) {
    im.ring.pop_front();
    ++im.dropped;
  }
  im.ring.push_back(std::move(s));
}

std::vector<SpanSample> Tracer::completed() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<SpanSample> out(im.ring.begin(), im.ring.end());
  std::sort(out.begin(), out.end(),
            [](const SpanSample& a, const SpanSample& b) {
              return a.startNs != b.startNs ? a.startNs < b.startNs
                                            : a.id < b.id;
            });
  return out;
}

uint64_t Tracer::dropped() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.dropped;
}

void Tracer::clear() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.ring.clear();
  im.dropped = 0;
}

Span::Span(std::string_view name)
    : name_(name),
      id_(g_nextSpanId.fetch_add(1, std::memory_order_relaxed)),
      startNs_(WallTimer::nowNs()),
      traceId_(currentTraceId()) {
  ThreadStack& ts = threadStack();
  parent_ = ts.active.empty() ? -1 : static_cast<int64_t>(ts.active.back());
  depth_ = static_cast<uint32_t>(ts.active.size());
  ts.active.push_back(id_);
  detail::notePhaseStart(currentThreadId(), id_, name_);
}

Span::~Span() {
  uint64_t end = WallTimer::nowNs();
  detail::notePhaseEnd(currentThreadId(), id_);
  ThreadStack& ts = threadStack();
  // Spans are strictly scoped RAII objects, so ours is the innermost.
  if (!ts.active.empty() && ts.active.back() == id_) ts.active.pop_back();
  SpanSample s;
  s.name = std::move(name_);
  s.id = id_;
  s.parent = parent_;
  s.depth = depth_;
  s.threadId = currentThreadId();
  s.startNs = startNs_;
  s.durationNs = end - startNs_;
  s.traceId = traceId_;
  Tracer::instance().emit(std::move(s));
}

double Span::seconds() const {
  return static_cast<double>(WallTimer::nowNs() - startNs_) * 1e-9;
}

}  // namespace hsis::obs

#endif  // !HSIS_OBS_DISABLE
