#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>

#include "obs/log.hpp"
#include "obs/obs.hpp"

namespace hsis::serve {

namespace {

/// Serializes frame writes from the reader thread and the pool workers
/// onto one connection, and absorbs a client hang-up: after the first
/// failed write the connection is dead and later frames are dropped (the
/// pool still finishes the request; the ledger record is the durable
/// output). Owns the fd; shared by the reader and any in-flight sinks.
class ConnWriter {
 public:
  explicit ConnWriter(int fd) : fd_(fd) {}
  ~ConnWriter() { ::close(fd_); }
  ConnWriter(const ConnWriter&) = delete;
  ConnWriter& operator=(const ConnWriter&) = delete;

  void writeLine(const std::string& line) noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return;
    std::string buf = line;
    buf += '\n';
    size_t off = 0;
    while (off < buf.size()) {
      // MSG_NOSIGNAL: a mid-stream hang-up must not SIGPIPE the daemon.
      ssize_t n =
          ::send(fd_, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        dead_ = true;
        return;
      }
      off += static_cast<size_t>(n);
    }
  }

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
  std::mutex mu_;
  bool dead_ = false;
};

/// Counts check requests this connection has in flight so the reader can
/// hold the writer open until every terminal frame has been delivered.
struct Pending {
  std::mutex mu;
  std::condition_variable cv;
  size_t count = 0;

  void up() {
    std::lock_guard<std::mutex> lock(mu);
    ++count;
  }
  void down() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (count > 0) --count;
    }
    cv.notify_all();
  }
  void waitDrained() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return count == 0; });
  }
};

/// A request's stream ends with exactly one done or error frame.
bool isTerminalFrame(const std::string& line) {
  return line.find("\"event\": \"done\"") != std::string::npos ||
         line.find("\"event\": \"error\"") != std::string::npos;
}

}  // namespace

Server::Server(ServerOptions options)
    : opts_(std::move(options)), pool_(opts_.pool) {}

Server::~Server() {
  stop();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    ::unlink(opts_.socketPath.c_str());
  }
}

bool Server::bind(std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr)
      *error = "socket path too long (max " +
               std::to_string(sizeof(addr.sun_path) - 1) + " bytes): " +
               opts_.socketPath;
    return false;
  }
  std::memcpy(addr.sun_path, opts_.socketPath.c_str(),
              opts_.socketPath.size() + 1);

  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    if (error != nullptr)
      *error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  ::unlink(opts_.socketPath.c_str());  // stale socket from a crashed run
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (error != nullptr)
      *error = "bind(" + opts_.socketPath + "): " + std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    return false;
  }
  if (::listen(listenFd_, 16) != 0) {
    if (error != nullptr)
      *error = std::string("listen(): ") + std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    return false;
  }
  return true;
}

void Server::run() {
  while (!stopping()) {
    pollfd pfd{listenFd_, POLLIN, 0};
    int r = ::poll(&pfd, 1, 200);  // bounded wait so stop() is honored
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0 || (pfd.revents & POLLIN) == 0) continue;
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    obs::counter("serve.connections").add();
    std::lock_guard<std::mutex> lock(threadsMu_);
    threads_.emplace_back([this, fd] { handleConnection(fd); });
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threadsMu_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void Server::handleConnection(int fd) {
  auto writer = std::make_shared<ConnWriter>(fd);
  auto pending = std::make_shared<Pending>();
  std::string buf;

  // stats-stream subscription — reader-thread state, one per connection.
  // Re-subscribing replaces the interval; interval_ms 0 cancels. The first
  // tick fires immediately so a subscriber never waits a full interval for
  // its first frame.
  uint64_t streamIntervalNs = 0;
  uint64_t streamDueNs = 0;
  uint64_t streamSeq = 0;
  std::string streamId;
  auto maybeStreamTick = [&] {
    if (streamIntervalNs == 0) return;
    uint64_t now = obs::WallTimer::nowNs();
    if (now < streamDueNs) return;
    writer->writeLine(
        statsTickFrame(streamId, streamSeq++, pool_.statsStreamJson()));
    streamDueNs = now + streamIntervalNs;
  };

  for (;;) {
    // Drain complete lines already buffered before blocking again.
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.empty()) continue;

      Request req;
      try {
        req = parseRequest(line);
      } catch (const ProtocolError& e) {
        writer->writeLine(errorFrame("", e.what()));
        continue;
      }
      switch (req.op) {
        case Request::Op::Ping:
          writer->writeLine(pongFrame(req.id, opts_.version));
          break;
        case Request::Op::Stats:
          writer->writeLine(statsFrame(req.id, pool_.statsJsonObject()));
          break;
        case Request::Op::StatsStream:
          HSIS_LOG_DEBUG("serve", "stats-stream subscription",
                         {{"interval_ms", req.statsIntervalMs}});
          if (req.statsIntervalMs == 0) {
            streamIntervalNs = 0;
          } else {
            // Clamp to 10 Hz: every tick renders the full histogram table.
            uint64_t ms =
                req.statsIntervalMs < 100 ? 100 : req.statsIntervalMs;
            streamIntervalNs = ms * 1000000ull;
            streamId = req.id;
            streamSeq = 0;
            streamDueNs = 0;  // due now
          }
          break;
        case Request::Op::Shutdown:
          writer->writeLine(byeFrame(req.id));
          HSIS_LOG_INFO("serve", "shutdown requested by client");
          stop();
          break;
        case Request::Op::Check: {
          pending->up();
          bool accepted = pool_.submit(
              req.check, [writer, pending](const std::string& frame) {
                writer->writeLine(frame);
                if (isTerminalFrame(frame)) pending->down();
              });
          // A rejected submit already delivered its terminal error frame
          // through the sink, so the counter is back at rest either way.
          (void)accepted;
          break;
        }
      }
    }
    if (stopping()) break;
    maybeStreamTick();

    // Bounded wait: short enough to honor stop(), and trimmed further so
    // the next stats tick is emitted on schedule rather than up to 200 ms
    // late.
    int timeoutMs = 200;
    if (streamIntervalNs != 0) {
      uint64_t now = obs::WallTimer::nowNs();
      uint64_t waitMs =
          streamDueNs > now ? (streamDueNs - now) / 1000000ull : 0;
      if (waitMs + 1 < static_cast<uint64_t>(timeoutMs))
        timeoutMs = static_cast<int>(waitMs) + 1;
    }
    pollfd pfd{writer->fd(), POLLIN, 0};
    int r = ::poll(&pfd, 1, timeoutMs);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) continue;
    char chunk[4096];
    ssize_t n = ::recv(writer->fd(), chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client EOF
    buf.append(chunk, static_cast<size_t>(n));
  }

  // Keep the writer alive until every in-flight request has answered, so
  // a client that sent a batch then shut its write side still receives
  // all its frames.
  pending->waitDrained();
}

}  // namespace hsis::serve
