// hsis_serve — the long-lived verification service.
//
//   hsis_serve --socket PATH [--workers N] [--max-queue N]
//              [--default-wall-s S] [--default-rss-mb M]
//              [--max-wall-s S] [--max-rss-mb M]
//              [--slow-threshold-s S --artifact-dir DIR]
//              [--jobs N]
//
// --jobs N > 1 fans a multi-property request out onto up to N batch
// workers (par::checkBatch): the pool worker itself on its session, each
// other one with its own replica manager; verdict frames then arrive
// after the batch completes, in property order.
//
// --slow-threshold-s/--artifact-dir arm slow-request auto-capture: any
// request whose enqueue->done wall time exceeds S gets its trace/profile/
// census bundle written under DIR/<trace-id>/ (telemetry.hpp).
//
// --artifact-dir alone also arms counterexample capture (hsis_cex): the
// first failing CTL check of a request writes a replay-verified
// DIR/<trace-id>/cex.json + cex.vcd pair, pointed at by the done frame and
// the ledger record (disable with HSIS_CEX_DISABLE=1; see
// docs/debugging.md).
//
// Boots a SessionPool (one hsis::Session per worker — one BddManager, one
// resident compiled design), binds a Unix-domain socket speaking the
// hsis-serve-v1 line protocol, prints a readiness line
// (`hsis_serve: listening on PATH`), and serves until SIGINT/SIGTERM or a
// client `shutdown` request.
//
// The shared obs flags all apply (--ledger, --log-level, --stats-json,
// --profile, --flight-dir, ...); each finished request appends its own
// ledger record, so `hsis_report list` shows server traffic like any other
// driver's runs. See docs/serve.md.
//
// Exit codes: 0 clean shutdown, 2 usage/bind error (a malformed numeric
// flag value prints "error: ..." first).
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/control.hpp"
#include "obs/version.hpp"
#include "serve/server.hpp"

namespace {

std::atomic<hsis::serve::Server*> g_server{nullptr};

extern "C" void onSignal(int) {
  // stop() is one relaxed atomic store — async-signal-safe.
  if (hsis::serve::Server* s = g_server.load()) s->stop();
}

int usage() {
  std::fprintf(stderr,
               "usage: hsis_serve --socket PATH [--workers N] "
               "[--max-queue N]\n"
               "                  [--default-wall-s S] [--default-rss-mb M]\n"
               "                  [--max-wall-s S] [--max-rss-mb M]\n"
               "                  [--slow-threshold-s S --artifact-dir DIR]\n"
               "                  [--jobs N]\n"
               "plus the shared obs flags (--ledger, --log-level, ...)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  if (hsis::obs::handleVersionFlag(argc, argv, "hsis_serve")) return 0;
  // ownLedger: the pool writes one record per request; the process-level
  // exit record still marks daemon start/stop in the same file.
  hsis::obs::initDriverObs(argc, argv,
                           {.driverName = "hsis_serve", .ownLedger = true});

  using hsis::obs::flagNumber;
  hsis::serve::ServerOptions opts;
  opts.version = hsis::obs::versionString("hsis_serve");
  opts.pool.ledgerPath = hsis::obs::activeLedgerPath();

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (std::strcmp(a, "--socket") == 0 && hasValue) {
      opts.socketPath = argv[++i];
    } else if (std::strcmp(a, "--workers") == 0 && hasValue) {
      opts.pool.workers = flagNumber<size_t>(a, argv[++i]);
    } else if (std::strcmp(a, "--max-queue") == 0 && hasValue) {
      opts.pool.maxQueue = flagNumber<size_t>(a, argv[++i]);
    } else if (std::strcmp(a, "--default-wall-s") == 0 && hasValue) {
      opts.pool.defaultBudget.wallSeconds = flagNumber<double>(a, argv[++i]);
    } else if (std::strcmp(a, "--default-rss-mb") == 0 && hasValue) {
      opts.pool.defaultBudget.rssMb = flagNumber<uint64_t>(a, argv[++i]);
    } else if (std::strcmp(a, "--max-wall-s") == 0 && hasValue) {
      opts.pool.maxBudget.wallSeconds = flagNumber<double>(a, argv[++i]);
    } else if (std::strcmp(a, "--max-rss-mb") == 0 && hasValue) {
      opts.pool.maxBudget.rssMb = flagNumber<uint64_t>(a, argv[++i]);
    } else if (std::strcmp(a, "--slow-threshold-s") == 0 && hasValue) {
      opts.pool.slowThresholdSeconds = flagNumber<double>(a, argv[++i]);
    } else if (std::strcmp(a, "--artifact-dir") == 0 && hasValue) {
      opts.pool.artifactDir = argv[++i];
    } else if (std::strcmp(a, "--jobs") == 0 && hasValue) {
      opts.pool.batchJobs = std::max(1, flagNumber<int>(a, argv[++i]));
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "hsis_serve: unknown argument %s\n", a);
      return usage();
    }
  }
  if (opts.socketPath.empty()) {
    std::fprintf(stderr, "hsis_serve: --socket PATH is required\n");
    return usage();
  }

  hsis::serve::Server server(std::move(opts));
  std::string error;
  if (!server.bind(&error)) {
    std::fprintf(stderr, "hsis_serve: %s\n", error.c_str());
    return 2;
  }
  g_server.store(&server);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::printf("hsis_serve: listening on %s (workers=%zu)\n",
              server.socketPath().c_str(), server.pool().stats().workers);
  std::fflush(stdout);

  server.run();

  g_server.store(nullptr);
  server.pool().shutdown(true);
  hsis::serve::SessionPool::Stats s = server.pool().stats();
  std::printf(
      "hsis_serve: shut down (accepted=%llu completed=%llu aborted=%llu "
      "failed=%llu cache hit=%llu miss=%llu)\n",
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.aborted),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.cacheHits),
      static_cast<unsigned long long>(s.cacheMisses));
  hsis::obs::noteRunResult("completed",
                           "requests=" + std::to_string(s.accepted));
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return usage();
}
