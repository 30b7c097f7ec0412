// The hsis_serve side of the benchmark: start the real daemon, and drive it
// over its Unix socket with hsis-serve-v1 check requests.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "designs.hpp"
#include "jobs.hpp"

namespace perfbench {

/// Peak resident set (VmHWM) in MiB of the process whose /proc status file
/// is `statusPath`; 0 when it cannot be read. Unlike getrusage's
/// ru_maxrss, VmHWM does not carry over the parent's resident set from
/// before exec.
double vmHwmMb(const std::string& statusPath);

/// A running hsis_serve process. The destructor shuts it down and reaps it.
class Daemon {
 public:
  /// Spawn `binary` on `socketPath` (relative to the working directory)
  /// and wait until it accepts connections. Throws on failure.
  Daemon(const std::string& binary, const std::string& socketPath,
         int workers);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socketPath() const { return socket_; }
  /// User+system CPU milliseconds the daemon has used so far.
  [[nodiscard]] double cpuMs() const;
  /// Peak resident set (VmHWM) in MiB.
  [[nodiscard]] double peakRssMb() const;

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// One client connection (line-delimited JSON both ways).
class Connection {
 public:
  explicit Connection(const std::string& socketPath);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void sendLine(const std::string& line);
  /// Next line from the server; throws on EOF or error.
  std::string readLine();

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Arrival times of one check request's frames, client side.
struct RequestTimes {
  int64_t sendNs = 0, acceptedNs = 0, loadedNs = 0, lastVerdictNs = 0,
          doneNs = 0;
  uint64_t queueMicros = 0;  ///< the done frame's stages.queue
  bool rejected = false;     ///< answered with an error frame
};

/// Send one check request for `d` and read its frames up to `done` (or an
/// error frame). The result's `cold` is true on a cache miss.
JobResult checkRequest(Connection& conn, const Design& d,
                       const std::string& id, RequestTimes& times);

}  // namespace perfbench
