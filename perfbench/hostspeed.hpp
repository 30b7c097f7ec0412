// Host speed, measured by a fixed reference workload run between jobs.
//
// The benchmark runs on shared hosts whose speed changes in phases of
// seconds to minutes, mostly through contention for the memory system:
// on the 4-vCPU host it was written on, a job ran up to 1.3x slower in a
// busy phase while a register-only loop stayed within 3%. HostSpeed times
// a fixed slice of BDD-like work (unique table, computed cache, recursive
// apply over a few MB) that is compiled into the benchmark and does not
// use the engine, so no change to the engine moves it. The benchmark
// divides each job's time by the host slowdown the slices around the job
// show, so a busy phase moves the metrics much less than it moves the
// measured times.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Slice time in ms on a calm host: a 4-vCPU "Intel(R) Xeon(R)
  /// Processor" (GNU 12.2.0, Release) in its fast phases.
  static constexpr double kCalmSliceMs = 3.0;
  /// How closely job times follow the slice: a job runs (s / calm)^k
  /// times as long when the slice takes s ms. Measured as the slope of log
  /// job time over log slice time, job by job, on the host above: 0.65 on
  /// table1, 0.55 on scaled, 0.3 on batch (whose threads also wait on each
  /// other). The slice is the more memory-bound of the two.
  static constexpr double kSensitivity = 0.6;
  /// Slices within this distance of a job estimate the host speed it saw.
  static constexpr int64_t kNearNs = 1'000'000'000;

  HostSpeed() = default;
  ~HostSpeed() { stopBackground(); }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Runs one reference slice on the calling thread, records it and
  /// returns its time in ms.
  double sample();
  /// Samples on a thread of its own, one slice every `periodMs`, until
  /// stopBackground(): for workloads whose jobs run in another process.
  void startBackground(double periodMs);
  void stopBackground();

  /// The factor by which the host slowed work spanning [fromNs, toNs]
  /// (steady-clock ns): (median time of the slices within kNearNs of the
  /// span / kCalmSliceMs)^kSensitivity. 1 on a calm host.
  [[nodiscard]] double slowdownAt(int64_t fromNs, int64_t toNs) const;
  /// slowdownAt each slice in [fromNs, toNs], weighted by the time until
  /// the next slice: the slowdown of a whole measured window.
  [[nodiscard]] double meanSlowdown(int64_t fromNs, int64_t toNs) const;
  [[nodiscard]] double medianSliceMs() const;
  [[nodiscard]] size_t samples() const;

 private:
  struct Slice {
    int64_t atNs;
    double ms;
  };
  [[nodiscard]] double slowdownLocked(int64_t fromNs, int64_t toNs) const;

  mutable std::mutex mu_;
  std::vector<Slice> slices_;  ///< in time order, guarded by mu_
  size_t nodes_ = 0;           ///< the slice's node count, guarded by mu_
  std::atomic<bool> stop_{false};
  std::thread background_;
};

}  // namespace perfbench
