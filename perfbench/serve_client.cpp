#include "serve_client.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/protocol.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace json = hsis::obs::jsonlite;

/// Reap `pid`, waiting at most `seconds`; false when it is still running.
bool reap(pid_t pid, double seconds) {
  const int64_t deadline = Tracer::nowNs() + static_cast<int64_t>(seconds * 1e9);
  while (true) {
    int status = 0;
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (Tracer::nowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

const json::Value* member(const json::Value& v, const char* key) {
  return v.isObject() ? json::find(v.object(), key) : nullptr;
}

}  // namespace

// ------------------------------------------------------------------ Daemon

Daemon::Daemon(const std::string& binary, const std::string& socketPath,
               int workers)
    : socket_(socketPath) {
  const std::string log = socketPath + ".log";
  const std::string nWorkers = std::to_string(workers);
  // No ledger: the daemon would otherwise append to a file in $HOME.
  const char* argv[] = {binary.c_str(), "--socket", socketPath.c_str(),
                        "--workers",    nWorkers.c_str(), "--ledger",
                        "none",         nullptr};
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
  int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr,
                       const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + binary + ": " +
                             std::strerror(rc));
  }
  const int64_t deadline = Tracer::nowNs() + 20'000'000'000LL;
  while (true) {
    try {
      Connection probe(socket_);
      return;
    } catch (const std::exception&) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("hsis_serve exited during start-up (see " +
                               log + ")");
    }
    if (Tracer::nowNs() > deadline) {
      ::kill(pid_, SIGKILL);
      reap(pid_, 10);
      pid_ = -1;
      throw std::runtime_error("hsis_serve did not accept connections");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Daemon::~Daemon() {
  if (pid_ < 0) return;
  try {
    Connection c(socket_);
    c.sendLine(R"({"schema": "hsis-serve-v1", "op": "shutdown", "id": "bye"})");
    while (hsis::serve::parseFrame(c.readLine()).event != "bye") {
    }
  } catch (const std::exception&) {
  }
  if (!reap(pid_, 10)) {
    ::kill(pid_, SIGKILL);
    reap(pid_, 10);
  }
  ::unlink(socket_.c_str());
}

double Daemon::cpuMs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command: state is field 3, utime 14,
  // stime 15.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i)
    if (i >= 14) ticks += std::stod(field);
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double vmHwmMb(const std::string& statusPath) {
  std::ifstream in(statusPath);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

double Daemon::peakRssMb() const {
  return vmHwmMb("/proc/" + std::to_string(pid_) + "/status");
}

// -------------------------------------------------------------- Connection

Connection::Connection(const std::string& socketPath) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long");
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  // A wedged daemon fails the run instead of hanging it.
  timeval tv{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect failed");
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::sendLine(const std::string& line) {
  std::string out = line + "\n";
  size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    off += static_cast<size_t>(n);
  }
}

std::string Connection::readLine() {
  while (true) {
    size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed");
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

// ----------------------------------------------------------------- request

JobResult checkRequest(Connection& conn, const Design& d,
                       const std::string& id, RequestTimes& times) {
  hsis::serve::Request req;
  req.op = hsis::serve::Request::Op::Check;
  req.id = id;
  req.check.id = id;
  req.check.name = d.name;
  req.check.design = {hsis::Session::DesignSource::Kind::Verilog, d.verilog,
                      d.top};
  req.check.pif = d.pif;
  const std::string line = hsis::serve::renderRequest(req);

  JobResult r;
  times.sendNs = Tracer::nowNs();
  try {
    conn.sendLine(line);
    while (true) {
      hsis::serve::Frame f = hsis::serve::parseFrame(conn.readLine());
      const int64_t now = Tracer::nowNs();
      if (f.event == "accepted") {
        times.acceptedNs = now;
      } else if (f.event == "loaded") {
        times.loadedNs = now;
        const json::Value* cache = member(f.body, "cache");
        r.cold = cache == nullptr || !cache->isString() || cache->str() != "hit";
      } else if (f.event == "verdict") {
        times.lastVerdictNs = now;
        const json::Value* prop = member(f.body, "property");
        const json::Value* holds = member(f.body, "holds");
        r.verdicts.emplace_back(prop && prop->isString() ? prop->str() : "",
                                holds && holds->boolean());
      } else if (f.event == "done") {
        times.doneNs = now;
        const json::Value* v = member(f.body, "verdict");
        const std::string verdict = v && v->isString() ? v->str() : "";
        bool allHold = true;
        for (const auto& [name, holds] : r.verdicts) allHold = allHold && holds;
        if (verdict != (allHold ? "pass" : "fail")) {
          const json::Value* detail = member(f.body, "detail");
          r.error = "done verdict '" + verdict + "'" +
                    (detail && detail->isString() ? ": " + detail->str() : "");
        }
        if (const json::Value* stats = member(f.body, "stats"))
          if (const json::Value* stages = member(*stats, "stages"))
            if (const json::Value* q = member(*stages, "queue"))
              if (q->isNumber())
                times.queueMicros = static_cast<uint64_t>(q->number());
        break;
      } else if (f.event == "error") {
        times.doneNs = now;
        times.rejected = true;
        const json::Value* m = member(f.body, "message");
        r.error = "rejected: " + (m && m->isString() ? m->str() : "");
        break;
      }
    }
  } catch (const std::exception& e) {
    r.error = e.what();
    times.doneNs = Tracer::nowNs();
  }
  r.ms = static_cast<double>(times.doneNs - times.sendNs) / 1e6;
  return r;
}

}  // namespace perfbench
