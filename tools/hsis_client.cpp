// hsis_client — submit work to a running hsis_serve daemon.
//
//   hsis_client --socket PATH check --model NAME [options]
//   hsis_client --socket PATH check --verilog F --pif F [--top M] [options]
//   hsis_client --socket PATH check --blifmv F --pif F [options]
//       options: [--name SUBJECT] [--wall-s S] [--rss-mb M] [--no-trace]
//                [--id ID] [--trace HEX16] [--json] [--cex-out FILE]
//   hsis_client --socket PATH ping
//   hsis_client --socket PATH stats
//   hsis_client --socket PATH stats-stream [--interval-ms N] [--count N]
//   hsis_client --socket PATH top [--interval-ms N] [--count N]
//   hsis_client --socket PATH shutdown
//
// Streams the server's frames as they arrive: human-readable by default
// (the `done` line carries `cache=hit|miss`, which CI greps), raw JSON
// frames with --json.
//
// --trace supplies the request's 16-hex-digit trace id (the server mints
// one otherwise); the id comes back on every frame and the human rendering
// shows it with the per-stage breakdown on the done line. stats-stream
// subscribes to hsis-serve-stats-v1 ticks and prints each frame as one
// JSON line; top subscribes the same way and prints each tick as a
// one-screen table (request counters, worker/queue occupancy, cache hit
// rate, RSS, per-stage latency quantiles in microseconds), repainting in
// place when stdout is a terminal. For both, --count N exits 0 after N
// ticks (0 = stream until EOF, a clean exit after at least one tick).
//
// When the server captured a counterexample artifact (hsis_cex, requires
// the daemon's --artifact-dir), the done rendering prints its server-side
// path and replay status; --cex-out FILE additionally copies the cex.json
// to FILE (same-host daemon — the socket is local anyway).
//
// Exit codes: 0 all properties pass, 1 some property failed, 2 usage /
// connection / server error, 3 the request was aborted (budget breach).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "models/models.hpp"
#include "obs/control.hpp"
#include "obs/jsonlite.hpp"
#include "obs/version.hpp"
#include "serve/protocol.hpp"

namespace {

namespace jl = hsis::obs::jsonlite;
using hsis::serve::Frame;
using hsis::serve::Request;

int usage() {
  std::fprintf(
      stderr,
      "usage: hsis_client --socket PATH COMMAND\n"
      "  check --model NAME | --verilog F --pif F [--top M] |"
      " --blifmv F --pif F\n"
      "        [--name SUBJECT] [--wall-s S] [--rss-mb M] [--no-trace]"
      " [--id ID]\n"
      "        [--trace HEX16] [--cex-out FILE]\n"
      "  ping | stats | shutdown\n"
      "  stats-stream | top [--interval-ms N] [--count N]\n"
      "common: --json (raw frames), --version\n"
      "exit codes: 0 all properties pass, 1 some property failed,\n"
      "            2 usage / connection / server error, 3 request aborted\n"
      "            (budget breach)\n");
  return 2;
}

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "hsis_client: cannot read %s\n", path);
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int connectTo(const std::string& socketPath) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "hsis_client: socket path too long\n");
    return -1;
  }
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("hsis_client: socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    std::fprintf(stderr, "hsis_client: connect(%s): %s\n",
                 socketPath.c_str(), std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

bool sendLine(int fd, std::string line) {
  line += '\n';
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(fd, line.data() + off, line.size() - off, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      std::fprintf(stderr, "hsis_client: send failed\n");
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Read one newline-terminated line; false on EOF/error.
bool readLine(int fd, std::string& buf, std::string& line) {
  for (;;) {
    size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    buf.append(chunk, static_cast<size_t>(n));
  }
}

const jl::Value* field(const Frame& f, const char* key) {
  return jl::find(f.body.object(), key);
}

std::string strField(const Frame& f, const char* key) {
  const auto* v = field(f, key);
  return v != nullptr && v->isString() ? v->str() : "";
}

double numField(const jl::Object& obj, const char* key) {
  const jl::Value* v = jl::find(obj, key);
  return v != nullptr && v->isNumber() ? v->number() : 0.0;
}

double numField(const Frame& f, const char* key) {
  return numField(f.body.object(), key);
}

const jl::Object* objField(const jl::Object& obj, const char* key) {
  const jl::Value* v = jl::find(obj, key);
  return v != nullptr && v->isObject() ? &v->object() : nullptr;
}

void renderLatencyRow(const jl::Object& latency, const char* stage) {
  const jl::Object* row = objField(latency, stage);
  if (row == nullptr) return;
  std::printf("  %-8s %8.0f %10.0f %10.0f %10.0f %10.0f\n", stage,
              numField(*row, "count"), numField(*row, "p50"),
              numField(*row, "p90"), numField(*row, "p99"),
              numField(*row, "max"));
}

/// The `top` rendering of one stats-tick frame.
void renderTick(const std::string& socketPath, const Frame& tick) {
  const jl::Value* body = field(tick, "stats");
  if (body == nullptr || !body->isObject()) return;
  const jl::Object& stats = body->object();
  std::printf("hsis_client top — %s   up %.1fs   tick #%.0f\n",
              socketPath.c_str(), numField(stats, "t_s"),
              numField(tick, "seq"));
  std::printf("workers: %.0f/%.0f busy   queue: %.0f   rss: %.1f MB\n",
              numField(stats, "busy_workers"), numField(stats, "workers"),
              numField(stats, "queue_depth"),
              numField(stats, "rss_kb") / 1024.0);
  if (const jl::Object* req = objField(stats, "requests")) {
    std::printf(
        "requests: accepted=%.0f completed=%.0f failed=%.0f aborted=%.0f "
        "rejected=%.0f\n",
        numField(*req, "accepted"), numField(*req, "completed"),
        numField(*req, "failed"), numField(*req, "aborted"),
        numField(*req, "rejected"));
  }
  if (const jl::Object* cache = objField(stats, "cache")) {
    std::printf("cache: hits=%.0f misses=%.0f evictions=%.0f hit_rate=%.2f\n",
                numField(*cache, "hits"), numField(*cache, "misses"),
                numField(*cache, "evictions"),
                numField(*cache, "hit_rate"));
  }
  if (const jl::Object* latency = objField(stats, "latency_us")) {
    std::printf("  %-8s %8s %10s %10s %10s %10s\n", "stage", "count", "p50",
                "p90", "p99", "max");
    for (const char* stage :
         {"queue", "parse", "tr", "reach", "check", "render", "total"}) {
      renderLatencyRow(*latency, stage);
    }
  }
  if (const jl::Object* cov = objField(stats, "coverage")) {
    std::printf(
        "coverage: reports=%.0f state=%.1f%% values=%.0f/%.0f "
        "bins=%.0f/%.0f\n",
        numField(*cov, "reports"),
        numField(*cov, "state_fraction") * 100.0,
        numField(*cov, "values_reached"), numField(*cov, "values_total"),
        numField(*cov, "bins_hit"), numField(*cov, "bins_total"));
  }
}

/// Handle one frame, printing the human rendering when `print` (--json
/// suppresses it — the raw line was already echoed). Returns the exit code
/// when the frame is terminal for this interaction, -1 otherwise. When the
/// done frame carries a cex pointer its server-side directory is written
/// to `cexDirOut` (for --cex-out).
int handleFrame(const Frame& f, bool print, std::string* cexDirOut) {
  if (f.event == "accepted") {
    if (print) {
      std::string trace = strField(f, "trace_id");
      std::printf("accepted (queue depth %.0f)%s%s\n",
                  numField(f, "queue_depth"),
                  trace.empty() ? "" : " trace=", trace.c_str());
    }
  } else if (f.event == "loaded") {
    if (print)
      std::printf("loaded: cache=%s read_micros=%.0f\n",
                  strField(f, "cache").c_str(), numField(f, "read_micros"));
  } else if (f.event == "verdict") {
    const auto* holds = field(f, "holds");
    bool ok = holds != nullptr &&
              std::holds_alternative<bool>(holds->v) && holds->boolean();
    if (print) {
      std::printf("%s [%s]: %s (%.3fs)\n", strField(f, "property").c_str(),
                  strField(f, "paradigm").c_str(), ok ? "PASS" : "FAIL",
                  numField(f, "seconds"));
      std::string trace = strField(f, "trace");
      if (!trace.empty()) std::printf("%s\n", trace.c_str());
    }
  } else if (f.event == "done") {
    std::string verdict = strField(f, "verdict");
    std::string cexPath, cexReplay;
    if (const auto* stats = field(f, "stats");
        stats != nullptr && stats->isObject()) {
      if (const auto* cex = jl::find(stats->object(), "cex");
          cex != nullptr && cex->isObject()) {
        if (const auto* p = jl::find(cex->object(), "path");
            p != nullptr && p->isString())
          cexPath = p->str();
        if (const auto* r = jl::find(cex->object(), "replay");
            r != nullptr && r->isString())
          cexReplay = r->str();
      }
    }
    if (cexDirOut != nullptr) *cexDirOut = cexPath;
    if (print) {
      std::string cache = "?";
      double wall = 0.0;
      std::string stages;  // "queue=1 parse=2 ..." in frame order
      if (const auto* stats = field(f, "stats");
          stats != nullptr && stats->isObject()) {
        if (const auto* c = jl::find(stats->object(), "cache");
            c != nullptr && c->isString())
          cache = c->str();
        if (const auto* w = jl::find(stats->object(), "wall_s");
            w != nullptr && w->isNumber())
          wall = w->number();
        if (const auto* st = jl::find(stats->object(), "stages");
            st != nullptr && st->isObject()) {
          for (const auto& [key, value] : st->object()) {
            if (!value.isNumber()) continue;
            if (!stages.empty()) stages += ' ';
            stages += key + "=" + std::to_string(
                                      static_cast<long long>(value.number()));
          }
        }
      }
      std::string detail = strField(f, "detail");
      std::string trace = strField(f, "trace_id");
      std::printf("verdict: %s cache=%s wall_s=%.3f%s%s%s%s\n",
                  verdict.c_str(), cache.c_str(), wall,
                  trace.empty() ? "" : " trace=", trace.c_str(),
                  detail.empty() ? "" : " detail=", detail.c_str());
      if (!stages.empty()) std::printf("stages_us: %s\n", stages.c_str());
      if (!cexPath.empty())
        std::printf("cex: %s replay=%s\n", cexPath.c_str(),
                    cexReplay.c_str());
    }
    if (verdict == "pass") return 0;
    if (verdict == "fail") return 1;
    if (verdict == "aborted") return 3;
    return 2;
  } else if (f.event == "pong") {
    if (print) std::printf("pong: %s\n", strField(f, "version").c_str());
    return 0;
  } else if (f.event == "bye") {
    if (print) std::printf("server shutting down\n");
    return 0;
  } else if (f.event == "error") {
    std::fprintf(stderr, "error: %s\n", strField(f, "message").c_str());
    return 2;
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) try {
  if (hsis::obs::handleVersionFlag(argc, argv, "hsis_client")) return 0;
  using hsis::obs::flagNumber;

  std::string socketPath;
  std::string command;
  std::string model, verilog, blifmv, pif, top, name, id = "req-1";
  std::string traceId;
  std::string cexOut;
  double wallS = 0.0;
  uint64_t rssMb = 0;
  uint64_t intervalMs = 1000;
  uint64_t tickCount = 0;
  bool wantTrace = true;
  bool rawJson = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (std::strcmp(a, "--socket") == 0 && hasValue) {
      socketPath = argv[++i];
    } else if (std::strcmp(a, "--model") == 0 && hasValue) {
      model = argv[++i];
    } else if (std::strcmp(a, "--verilog") == 0 && hasValue) {
      verilog = argv[++i];
    } else if (std::strcmp(a, "--blifmv") == 0 && hasValue) {
      blifmv = argv[++i];
    } else if (std::strcmp(a, "--pif") == 0 && hasValue) {
      pif = argv[++i];
    } else if (std::strcmp(a, "--top") == 0 && hasValue) {
      top = argv[++i];
    } else if (std::strcmp(a, "--name") == 0 && hasValue) {
      name = argv[++i];
    } else if (std::strcmp(a, "--id") == 0 && hasValue) {
      id = argv[++i];
    } else if (std::strcmp(a, "--wall-s") == 0 && hasValue) {
      wallS = flagNumber<double>(a, argv[++i]);
    } else if (std::strcmp(a, "--rss-mb") == 0 && hasValue) {
      rssMb = flagNumber<uint64_t>(a, argv[++i]);
    } else if (std::strcmp(a, "--trace") == 0 && hasValue) {
      traceId = argv[++i];
    } else if (std::strcmp(a, "--cex-out") == 0 && hasValue) {
      cexOut = argv[++i];
    } else if (std::strcmp(a, "--interval-ms") == 0 && hasValue) {
      intervalMs = flagNumber<uint64_t>(a, argv[++i]);
    } else if (std::strcmp(a, "--count") == 0 && hasValue) {
      tickCount = flagNumber<uint64_t>(a, argv[++i]);
    } else if (std::strcmp(a, "--no-trace") == 0) {
      wantTrace = false;
    } else if (std::strcmp(a, "--json") == 0) {
      rawJson = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage();
      return 0;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "hsis_client: unknown flag %s\n", a);
      return usage();
    } else if (command.empty()) {
      command = a;
    } else {
      return usage();
    }
  }
  if (socketPath.empty() || command.empty()) return usage();
  const bool streaming = command == "stats-stream" || command == "top";

  Request req;
  req.id = id;
  if (command == "ping") {
    req.op = Request::Op::Ping;
  } else if (command == "stats") {
    req.op = Request::Op::Stats;
  } else if (streaming) {
    req.op = Request::Op::StatsStream;
    req.statsIntervalMs = intervalMs;
  } else if (command == "shutdown") {
    req.op = Request::Op::Shutdown;
  } else if (command == "check") {
    req.op = Request::Op::Check;
    hsis::serve::CheckRequest& c = req.check;
    c.id = id;
    c.budget = {wallS, rssMb};
    c.wantTrace = wantTrace;
    c.traceId = traceId;
    if (!model.empty()) {
      const hsis::models::ModelDef* m = hsis::models::find(model);
      if (m == nullptr) {
        std::fprintf(stderr, "hsis_client: unknown model %s\n",
                     model.c_str());
        return 2;
      }
      c.name = name.empty() ? model : name;
      c.design.kind = hsis::Session::DesignSource::Kind::Verilog;
      c.design.text = std::string(m->verilog);
      c.design.top = std::string(m->top);
      c.pif = std::string(m->pif);
    } else if (!verilog.empty() && !pif.empty()) {
      c.name = name.empty() ? verilog : name;
      c.design.kind = hsis::Session::DesignSource::Kind::Verilog;
      c.design.text = slurp(verilog.c_str());
      c.design.top = top;
      c.pif = slurp(pif.c_str());
    } else if (!blifmv.empty() && !pif.empty()) {
      c.name = name.empty() ? blifmv : name;
      c.design.kind = hsis::Session::DesignSource::Kind::BlifMv;
      c.design.text = slurp(blifmv.c_str());
      c.pif = slurp(pif.c_str());
    } else {
      std::fprintf(stderr,
                   "hsis_client: check needs --model, --verilog + --pif, "
                   "or --blifmv + --pif\n");
      return usage();
    }
  } else {
    std::fprintf(stderr, "hsis_client: unknown command %s\n",
                 command.c_str());
    return usage();
  }

  int fd = connectTo(socketPath);
  if (fd < 0) return 2;
  if (!sendLine(fd, renderRequest(req))) {
    ::close(fd);
    return 2;
  }

  // top repaints in place on a terminal; piped, it prints every frame.
  const bool ansi = ::isatty(STDOUT_FILENO) != 0;
  std::string buf, line;
  int exitCode = 2;  // EOF before a terminal frame = server died
  uint64_t ticksSeen = 0;
  std::string cexServerDir;
  while (readLine(fd, buf, line)) {
    if (line.empty()) continue;
    if (rawJson) std::printf("%s\n", line.c_str());
    Frame frame;
    try {
      frame = hsis::serve::parseFrame(line);
    } catch (const hsis::serve::ProtocolError& e) {
      std::fprintf(stderr, "hsis_client: bad frame: %s\n", e.what());
      continue;
    }
    if (frame.event == "stats") {
      if (!rawJson) std::printf("%s\n", line.c_str());  // JSON either way
      exitCode = 0;
      break;
    }
    if (frame.event == "stats-tick") {
      if (command == "top" && !rawJson) {
        if (ansi) std::printf("\x1b[H\x1b[2J");  // home + clear: repaint
        renderTick(socketPath, frame);
        if (!ansi) std::printf("\n");
      } else if (!rawJson) {
        std::printf("%s\n", line.c_str());  // JSON either way
      }
      std::fflush(stdout);  // consumers pipe the stream; don't batch it
      ++ticksSeen;
      if (tickCount > 0 && ticksSeen >= tickCount) {
        exitCode = 0;
        break;
      }
      continue;
    }
    int r = handleFrame(frame, !rawJson, &cexServerDir);
    if (r >= 0) {
      exitCode = r;
      break;
    }
  }
  // --cex-out: copy the server-side artifact locally (the daemon is on
  // this host — the transport is a unix socket).
  if (!cexOut.empty()) {
    if (cexServerDir.empty()) {
      std::fprintf(stderr,
                   "hsis_client: no counterexample artifact captured "
                   "(server needs --artifact-dir and a failing check)\n");
    } else {
      std::ifstream in(cexServerDir + "/cex.json");
      std::ofstream out(cexOut);
      if (!in || !out) {
        std::fprintf(stderr, "hsis_client: cannot copy %s/cex.json to %s\n",
                     cexServerDir.c_str(), cexOut.c_str());
      } else {
        out << in.rdbuf();
        std::printf("cex copied to %s\n", cexOut.c_str());
      }
    }
  }
  // An unbounded stream ends at server EOF; that is a clean exit as long
  // as the subscription actually delivered frames.
  if (streaming && exitCode == 2 && ticksSeen > 0) exitCode = 0;
  ::close(fd);
  return exitCode;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
