// Helpers shared by the session, batch, serve and telemetry tests: the
// bundled designs as session sources and serve requests, a collector for a
// request's frames, and line I/O on the daemon's Unix socket.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "hsis/session.hpp"
#include "models/models.hpp"
#include "obs/jsonlite.hpp"
#include "pif/pif.hpp"
#include "serve/pool.hpp"
#include "serve/protocol.hpp"

namespace hsistest {

inline hsis::Session::DesignSource modelSource(const char* name) {
  const hsis::models::ModelDef* m = hsis::models::find(name);
  EXPECT_NE(m, nullptr) << name;
  hsis::Session::DesignSource src;
  src.kind = hsis::Session::DesignSource::Kind::Verilog;
  src.text = std::string(m->verilog);
  src.top = std::string(m->top);
  return src;
}

inline hsis::PifFile modelPif(const char* name) {
  return hsis::parsePif(std::string(hsis::models::find(name)->pif));
}

/// A serve check request for a bundled design and its own PIF.
inline hsis::serve::CheckRequest modelCheck(const char* name, const char* id) {
  hsis::serve::CheckRequest c;
  c.id = id;
  c.name = name;
  c.design = modelSource(name);
  c.pif = std::string(hsis::models::find(name)->pif);
  return c;
}

/// Collects a request's frames and lets the test block on the terminal one.
struct FrameLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<hsis::serve::Frame> frames;
  bool done = false;

  hsis::serve::FrameSink sink() {
    return [this](const std::string& line) {
      hsis::serve::Frame f = hsis::serve::parseFrame(line);
      std::lock_guard<std::mutex> lock(mu);
      if (f.event == "done" || f.event == "error") done = true;
      frames.push_back(std::move(f));
      cv.notify_all();
    };
  }
  bool waitDone(int seconds = 60) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(seconds),
                       [&] { return done; });
  }
  const hsis::serve::Frame* find(const char* event) {
    std::lock_guard<std::mutex> lock(mu);
    for (const hsis::serve::Frame& f : frames) {
      if (f.event == event) return &f;
    }
    return nullptr;
  }
  std::string doneVerdict() {
    const hsis::serve::Frame* f = find("done");
    if (f == nullptr) return "";
    const auto* v = hsis::obs::jsonlite::find(f->body.object(), "verdict");
    return v != nullptr && v->isString() ? v->str() : "";
  }
  std::string doneCache() {
    const hsis::serve::Frame* f = find("done");
    if (f == nullptr) return "";
    const auto* stats = hsis::obs::jsonlite::find(f->body.object(), "stats");
    if (stats == nullptr || !stats->isObject()) return "";
    const auto* c = hsis::obs::jsonlite::find(stats->object(), "cache");
    return c != nullptr && c->isString() ? c->str() : "";
  }
  double doneReadMicros() {
    const hsis::serve::Frame* f = find("done");
    if (f == nullptr) return -1;
    const auto* stats = hsis::obs::jsonlite::find(f->body.object(), "stats");
    if (stats == nullptr || !stats->isObject()) return -1;
    const auto* r = hsis::obs::jsonlite::find(stats->object(), "read_micros");
    return r != nullptr && r->isNumber() ? r->number() : -1;
  }
  /// A number of the done frame's stats.coverage object (-1 if absent).
  double doneCoverage(const char* key) {
    const hsis::serve::Frame* f = find("done");
    if (f == nullptr) return -1;
    const auto* stats = hsis::obs::jsonlite::find(f->body.object(), "stats");
    if (stats == nullptr || !stats->isObject()) return -1;
    const auto* cov = hsis::obs::jsonlite::find(stats->object(), "coverage");
    if (cov == nullptr || !cov->isObject()) return -1;
    const auto* v = hsis::obs::jsonlite::find(cov->object(), key);
    return v != nullptr && v->isNumber() ? v->number() : -1;
  }
};

inline int connectTo(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << strerror(errno);
  return fd;
}

inline void sendLine(int fd, std::string line) {
  line += '\n';
  ASSERT_EQ(::send(fd, line.data(), line.size(), 0),
            static_cast<ssize_t>(line.size()));
}

/// The next '\n'-terminated line from `fd`, buffering the rest in `buf`;
/// "" when the peer closes first.
inline std::string readLine(int fd, std::string& buf) {
  for (;;) {
    size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return "";
    buf.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace hsistest
