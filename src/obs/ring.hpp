// The drop-oldest store behind the tracer's completed spans and the
// profiler's samples. Not thread-safe: each owner guards it with its own
// lock. (The log's fixed-slot ring stays separate: the crash handler reads
// it without a lock.)
#pragma once

#include <cstdint>
#include <deque>
#include <utility>

namespace hsis::obs {

template <typename T>
struct DropOldestRing {
  explicit DropOldestRing(size_t initialCapacity) { reset(initialCapacity); }

  size_t capacity = 1;
  std::deque<T> items;  ///< oldest first
  uint64_t dropped = 0;

  /// Empty the ring and forget the drop count; a capacity of 0 means 1.
  void reset(size_t newCapacity) {
    capacity = newCapacity == 0 ? 1 : newCapacity;
    items.clear();
    dropped = 0;
  }
  /// Append `v`; when full, the oldest item drops and is counted.
  void push(T&& v) {
    if (items.size() >= capacity) {
      items.pop_front();
      ++dropped;
    }
    items.push_back(std::move(v));
  }
};

}  // namespace hsis::obs
