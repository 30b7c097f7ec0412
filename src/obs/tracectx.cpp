#include "obs/tracectx.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

#include <unistd.h>

#include "obs/obs.hpp"

namespace hsis::obs {

namespace {

// One slot per bound thread; the signal handler walks this table with
// relaxed atomic loads only. tid == 0 marks an empty slot (the hash of a
// real thread id is astronomically unlikely to be 0; a thread that does
// hash to 0 simply goes unmirrored, losing nothing but its crash line).
struct ActiveSlot {
  std::atomic<uint64_t> tid{0};
  std::atomic<uint64_t> traceId{0};
};
ActiveSlot g_active[trace_detail::kMaxActiveTraces];

thread_local const TraceContext* t_traceCtx = nullptr;
thread_local size_t t_activeSlot = trace_detail::kMaxActiveTraces;

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string traceIdHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

uint64_t parseTraceId(std::string_view hex) noexcept {
  // Strict: exactly the 16-digit form traceIdHex() produces. A lenient
  // parse would let "dead" and "000000000000dead" alias one trace.
  if (hex.size() != 16) return 0;
  uint64_t v = 0;
  for (char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') digit = static_cast<uint64_t>(c - 'A' + 10);
    else return 0;
    v = (v << 4) | digit;
  }
  return v;
}

uint64_t newTraceId() {
  static std::atomic<uint64_t> counter{0};
  static const uint64_t seed = [] {
    auto now = static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    return splitmix64(now ^ (static_cast<uint64_t>(::getpid()) << 32));
  }();
  uint64_t id = 0;
  while (id == 0) id = splitmix64(seed ^ counter.fetch_add(1, std::memory_order_relaxed));
  return id;
}

void bindTraceContext(const TraceContext* ctx) {
  if (ctx != nullptr && ctx->traceId != 0) {
    t_traceCtx = ctx;
    if (t_activeSlot >= trace_detail::kMaxActiveTraces) {
      const uint64_t tid = currentThreadId();
      for (size_t i = 0; i < trace_detail::kMaxActiveTraces; ++i) {
        uint64_t expected = 0;
        if (g_active[i].tid.compare_exchange_strong(expected, tid,
                                                    std::memory_order_acq_rel)) {
          t_activeSlot = i;
          break;
        }
      }
      // Table full: the binding still works, only the crash mirror is lost.
    }
    if (t_activeSlot < trace_detail::kMaxActiveTraces)
      g_active[t_activeSlot].traceId.store(ctx->traceId, std::memory_order_release);
  } else {
    t_traceCtx = nullptr;
    if (t_activeSlot < trace_detail::kMaxActiveTraces) {
      g_active[t_activeSlot].traceId.store(0, std::memory_order_release);
      g_active[t_activeSlot].tid.store(0, std::memory_order_release);
      t_activeSlot = trace_detail::kMaxActiveTraces;
    }
  }
}

const TraceContext* currentTraceContext() noexcept { return t_traceCtx; }

uint64_t currentTraceId() noexcept {
  return t_traceCtx != nullptr ? t_traceCtx->traceId : 0;
}

std::vector<std::pair<uint64_t, uint64_t>> activeTraces() {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (size_t i = 0; i < trace_detail::kMaxActiveTraces; ++i) {
    uint64_t tid, trace;
    if (trace_detail::activeTraceSlot(i, &tid, &trace)) out.emplace_back(tid, trace);
  }
  return out;
}

namespace trace_detail {

bool activeTraceSlot(size_t i, uint64_t* threadId, uint64_t* traceId) noexcept {
  if (i >= kMaxActiveTraces) return false;
  const uint64_t tid = g_active[i].tid.load(std::memory_order_acquire);
  const uint64_t trace = g_active[i].traceId.load(std::memory_order_acquire);
  if (tid == 0 || trace == 0) return false;
  *threadId = tid;
  *traceId = trace;
  return true;
}

}  // namespace trace_detail

}  // namespace hsis::obs
