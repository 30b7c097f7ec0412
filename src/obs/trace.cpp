// Phase tracer: each thread's stack of open spans, the one record of what
// it has open, plus a process-wide ring of completed spans. A registry of
// the live stacks lets other threads read them (currentPhase,
// phaseStacks, the flight recorder). Opening a span pushes under the
// thread's own lock; closing one pops it and takes the tracer's lock to
// append to the ring.
#include "obs/obs.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "obs/control.hpp"
#include "obs/log.hpp"
#include "obs/ring.hpp"
#include "obs/tracectx.hpp"

namespace hsis::obs {

// ------------------------------------------------------ open-span stacks
//
// Compiled in both build modes: under HSIS_OBS_DISABLE no Span pushes, so
// the readers answer empty.

namespace {

struct Frame {
  uint64_t id;
  /// The open Span's own name_. A Span closes on the thread that opened
  /// it, before its name_ dies, so the view never dangles.
  std::string_view name;
};

struct SpanStack;

struct StackRegistry {
  std::mutex mu;
  std::vector<SpanStack*> stacks;  ///< one per live thread that opened a span
};

StackRegistry& stackRegistry() {
  static StackRegistry* r = new StackRegistry;  // leaked, see registry.cpp
  return *r;
}

/// One thread's open spans, innermost last, registered for the thread's
/// lifetime. Only its thread writes; only readers contend for `mu`.
struct SpanStack {
  const uint64_t threadId = currentThreadId();
  std::mutex mu;
  std::vector<Frame> frames;

  SpanStack() {
    std::lock_guard<std::mutex> lock(stackRegistry().mu);
    stackRegistry().stacks.push_back(this);
  }
  ~SpanStack() {
    std::lock_guard<std::mutex> lock(stackRegistry().mu);
    std::erase(stackRegistry().stacks, this);
  }
};

/// fn(stack) for every stack with an open span, under its lock.
template <typename Fn>
void forEachOpenStack(Fn&& fn) {
  StackRegistry& r = stackRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (SpanStack* s : r.stacks) {
    std::lock_guard<std::mutex> stackLock(s->mu);
    if (!s->frames.empty()) fn(*s);
  }
}

}  // namespace

std::string currentPhase() {
  // Ids grow with start time: the newest innermost frame is the most
  // recently started span still open.
  uint64_t newestId = 0;
  std::string name;
  forEachOpenStack([&](const SpanStack& s) {
    if (s.frames.back().id > newestId) {
      newestId = s.frames.back().id;
      name = s.frames.back().name;
    }
  });
  return name;
}

std::string PhaseStackSnapshot::folded() const {
  std::string out;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i != 0) out += ';';
    out += frames[i];
  }
  return out;
}

std::vector<PhaseStackSnapshot> phaseStacks() {
  std::vector<PhaseStackSnapshot> out;
  forEachOpenStack([&out](const SpanStack& s) {
    PhaseStackSnapshot& snap = out.emplace_back();
    snap.threadId = s.threadId;
    for (const Frame& f : s.frames) snap.frames.emplace_back(f.name);
  });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.threadId < b.threadId;
  });
  return out;
}

}  // namespace hsis::obs

#ifndef HSIS_OBS_DISABLE

namespace hsis::obs {

namespace {

std::atomic<uint64_t> g_nextSpanId{1};

SpanStack& spanStack() {
  thread_local SpanStack stack;
  return stack;
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
  DropOldestRing<SpanSample> ring{8192};
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
  im.ring.reset(n);
}

void Tracer::emit(SpanSample&& s) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.ring.push(std::move(s));
}

std::vector<SpanSample> Tracer::completed() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<SpanSample> out(im.ring.items.begin(), im.ring.items.end());
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
  return im.ring.dropped;
}

void Tracer::clear() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.ring.reset(im.ring.capacity);
}

Span::Span(std::string_view name)
    : name_(name),
      id_(g_nextSpanId.fetch_add(1, std::memory_order_relaxed)),
      startNs_(WallTimer::nowNs()),
      traceId_(currentTraceId()) {
  SpanStack& st = spanStack();
  {
    std::lock_guard<std::mutex> lock(st.mu);
    parent_ =
        st.frames.empty() ? -1 : static_cast<int64_t>(st.frames.back().id);
    depth_ = static_cast<uint32_t>(st.frames.size());
    st.frames.push_back(Frame{id_, name_});
  }
  if (flight::installed()) flight::detail::publishPhaseStacks();
}

Span::~Span() {
  uint64_t end = WallTimer::nowNs();
  SpanStack& st = spanStack();
  {
    // Spans are strictly scoped RAII objects, so ours is the innermost.
    std::lock_guard<std::mutex> lock(st.mu);
    if (!st.frames.empty() && st.frames.back().id == id_) st.frames.pop_back();
  }
  if (flight::installed()) flight::detail::publishPhaseStacks();
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
