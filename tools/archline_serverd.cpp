// archline_serverd — the archline model-serving daemon.
//
// Serves the energy-roofline model stack (predict / crossover /
// scenario / sensitivity / scenario_sweep / fit / platforms / stats)
// over a newline-delimited JSON protocol. See docs/SERVER.md for the
// wire format and the registry that defines the endpoint table.
//
// Usage:
//   archline_serverd [--port N] [--bind ADDR] [--shards N]
//                    [--no-reuseport] [--pin-shards]
//                    [--threads N] [--heavy-workers N] [--queue N]
//                    [--cache N] [--cache-shards N] [--max-conns N]
//                    [--idle-timeout-ms N] [--drain-grace-ms N]
//                    [--deadline-ms N]
//                    [--refit-interval-ms N] [--forgetting-factor F]
//                    [--stdio] [--quiet]
//
// Over TCP, Light requests run to completion on the shard loop that
// framed them. Only Heavy cache misses (fit, refit, scenario_sweep,
// predict_batch over 64 elements) queue for the worker pool:
// --heavy-workers threads (default a quarter of --threads, at least 1),
// --queue bounds the queued ones (default 64, at least 1; past it they
// are answered "overloaded"), and --deadline-ms answers one still
// queued after N ms with "deadline_exceeded".
//
// --shards N runs N thread-per-core event-loop shards, each with its
// own SO_REUSEPORT listener (or a round-robin fd handoff from shard 0
// with --no-reuseport / on kernels without SO_REUSEPORT), connection
// table, and response-cache partition (4 lock stripes each). NOTE:
// before the sharded front end, --shards set the cache's internal lock
// striping — that knob is now --cache-shards, and it stripes only the
// server's own partition, which --stdio and in-process callers probe;
// TCP shards never do. --pin-shards additionally pins shard i's loop
// thread to the i-th CPU of the process's affinity mask (ignored, with
// a stderr note, when the mask holds fewer CPUs than shards).
//
// Online fitting (docs/MODEL.md "Online fitting"): the "observe"
// endpoint streams measured (flops, bytes, seconds, joules) tuples into
// a per-platform RLS filter. --refit-interval-ms N starts a background
// thread that re-solves the full capped model every N ms for platforms
// with fresh observations (0 = re-solve only on explicit "refit"
// requests — the default, which keeps --stdio replay deterministic).
// --forgetting-factor sets the RLS decay in (0, 1]: lower values track
// drifting hardware faster at the cost of wider confidence intervals.
//
// Transports:
//   default   TCP listener on --bind:--port (port 0 = ephemeral,
//             printed on startup)
//   --stdio   read requests from stdin, write responses to stdout
//             (for tests, pipes, and socket-less sandboxes). Every
//             line, Heavy ones included, executes on the main thread in
//             input order, so state-mutating observe/refit lines replay
//             exactly as written (the golden corpus is regenerated this
//             way)
//
// Signals:
//   SIGINT/SIGTERM  graceful shutdown: stop accepting, drain the
//                   queue, print a metrics summary, exit 0
//   SIGUSR1         dump the metrics summary to stderr, keep serving

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "serve/server.hpp"
#include "serve/tcp.hpp"

namespace {

// Set by the signal handlers, read by the watcher thread. Lock-free
// atomics are both async-signal-safe and race-free across threads,
// which a volatile sig_atomic_t is not.
static_assert(std::atomic<bool>::is_always_lock_free);
std::atomic<bool> g_stop{false};
std::atomic<bool> g_dump_stats{false};

void on_terminate(int) { g_stop.store(true); }
void on_usr1(int) { g_dump_stats.store(true); }

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--bind ADDR] [--shards N] [--no-reuseport]\n"
      "          [--pin-shards]\n"
      "          [--threads N] [--heavy-workers N] [--queue N]\n"
      "          [--cache N] [--cache-shards N] [--max-conns N]\n"
      "          [--idle-timeout-ms N] [--drain-grace-ms N]\n"
      "          [--deadline-ms N] [--refit-interval-ms N]\n"
      "          [--forgetting-factor F] [--stdio] [--quiet]\n",
      argv0);
  std::exit(code);
}

long parse_long(const char* argv0, const char* flag, const char* value) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (!end || *end != '\0' || v < 0) {
    std::fprintf(stderr, "%s: bad value for %s: %s\n", argv0, flag, value);
    usage(argv0, 2);
  }
  return v;
}

double parse_double(const char* argv0, const char* flag, const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (!end || *end != '\0') {
    std::fprintf(stderr, "%s: bad value for %s: %s\n", argv0, flag, value);
    usage(argv0, 2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace archline::serve;

  ServerOptions options;
  TcpOptions tcp;
  bool stdio_mode = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--port")
      tcp.port = static_cast<std::uint16_t>(
          parse_long(argv[0], "--port", value()));
    else if (arg == "--bind")
      tcp.bind_address = value();
    else if (arg == "--threads")
      options.threads = static_cast<int>(
          parse_long(argv[0], "--threads", value()));
    else if (arg == "--queue") {
      options.queue_capacity = static_cast<std::size_t>(
          parse_long(argv[0], "--queue", value()));
      if (options.queue_capacity == 0) {
        std::fprintf(stderr, "%s: --queue must be >= 1\n", argv[0]);
        usage(argv[0], 2);
      }
    } else if (arg == "--heavy-workers")
      options.heavy_workers = static_cast<int>(
          parse_long(argv[0], "--heavy-workers", value()));
    else if (arg == "--cache")
      options.cache_capacity = static_cast<std::size_t>(
          parse_long(argv[0], "--cache", value()));
    else if (arg == "--shards")
      tcp.shards = static_cast<int>(
          parse_long(argv[0], "--shards", value()));
    else if (arg == "--no-reuseport")
      tcp.use_reuseport = false;
    else if (arg == "--pin-shards")
      tcp.pin_shards = true;
    else if (arg == "--cache-shards")
      options.cache_shards = static_cast<std::size_t>(
          parse_long(argv[0], "--cache-shards", value()));
    else if (arg == "--max-conns")
      tcp.max_connections = static_cast<std::size_t>(
          parse_long(argv[0], "--max-conns", value()));
    else if (arg == "--idle-timeout-ms")
      tcp.idle_timeout_ms = static_cast<int>(
          parse_long(argv[0], "--idle-timeout-ms", value()));
    else if (arg == "--drain-grace-ms")
      tcp.drain_grace_ms = static_cast<int>(
          parse_long(argv[0], "--drain-grace-ms", value()));
    else if (arg == "--deadline-ms")
      options.request_deadline_ms = static_cast<int>(
          parse_long(argv[0], "--deadline-ms", value()));
    else if (arg == "--refit-interval-ms")
      options.refit_interval_ms = static_cast<int>(
          parse_long(argv[0], "--refit-interval-ms", value()));
    else if (arg == "--forgetting-factor") {
      const double f =
          parse_double(argv[0], "--forgetting-factor", value());
      if (!(f > 0.0) || f > 1.0) {
        std::fprintf(stderr,
                     "%s: --forgetting-factor must be in (0, 1]\n", argv[0]);
        usage(argv[0], 2);
      }
      options.online.forgetting = f;
    } else if (arg == "--stdio")
      stdio_mode = true;
    else if (arg == "--quiet")
      quiet = true;
    else if (arg == "--help" || arg == "-h")
      usage(argv[0], 0);
    else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
      usage(argv[0], 2);
    }
  }

  std::signal(SIGINT, on_terminate);
  std::signal(SIGTERM, on_terminate);
  std::signal(SIGUSR1, on_usr1);
  std::signal(SIGPIPE, SIG_IGN);

  Server server(options);
  server.start();

  if (stdio_mode) {
    run_stream(server, std::cin, std::cout);
    server.shutdown();
    if (!quiet)
      std::fprintf(stderr, "%s\n", server.stats_text().c_str());
    return 0;
  }

  TcpListener listener(server, tcp);
  std::string error;
  if (!listener.open(&error)) {
    std::fprintf(stderr, "archline_serverd: %s\n", error.c_str());
    return 1;
  }
  if (!quiet)
    std::fprintf(stderr,
                 "archline_serverd: listening on %s:%u (%d shards via %s, "
                 "%d heavy workers, queue %zu, "
                 "cache %zu/%zu shards, max %zu conns)\n",
                 tcp.bind_address.c_str(), listener.port(),
                 listener.shard_count(),
                 listener.reuseport_active() ? "SO_REUSEPORT" : "handoff",
                 server.options().heavy_workers, options.queue_capacity,
                 options.cache_capacity, options.cache_shards,
                 tcp.max_connections);

  // The accept loop polls, so it revisits these flags every
  // poll_interval_ms. SIGUSR1 dumps are serviced by a helper thread to
  // keep the accept path simple.
  std::atomic<bool> stop{false};
  std::thread signal_watcher([&] {
    while (!g_stop.load()) {
      if (g_dump_stats.exchange(false))
        std::fprintf(stderr, "%s\n", server.stats_text().c_str());
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    stop.store(true, std::memory_order_release);
  });

  listener.run(stop);
  signal_watcher.join();
  server.shutdown();
  if (!quiet)
    std::fprintf(stderr, "%s\n", server.stats_text().c_str());
  return 0;
}
