#pragma once
// The load generator: a few threads, each busy-polling its share of the
// connections. A phase is either a closed loop (a fixed window of
// requests in flight per connection) or an open loop (seeded Poisson
// arrivals per connection; latency is timed from each request's due
// time, and how late the generator sent is reported separately).
// Replies are matched FIFO per connection, which the protocol
// guarantees.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "vocab.hpp"

namespace perfbench {

/// Connects to 127.0.0.1:port (blocking socket, TCP_NODELAY). Throws.
[[nodiscard]] int connect_tcp(std::uint16_t port);

/// Sends `lines` pipelined in chunks and returns the replies in order.
/// Blocking; throws when the connection fails.
[[nodiscard]] std::vector<std::string> request_batch(int fd,
                                                std::span<const std::string> lines,
                                                std::size_t chunk = 64);

/// One request, one reply, blocking; `rtt_ns` gets the round trip.
[[nodiscard]] std::string request_once(int fd, std::string_view line,
                                       std::int64_t* rtt_ns = nullptr);

/// A connection's request stream and reply check.
class Stream {
 public:
  virtual ~Stream() = default;
  /// Appends the next request line (no newline) to `out`; `tag` comes
  /// back with its reply.
  virtual vocab::Kind next(std::string& out, std::uint32_t& tag) = 0;
  /// True when `reply` is right for the request (kind, tag).
  virtual bool check(std::string_view reply, vocab::Kind kind,
                     std::uint32_t tag) = 0;
};

struct PhaseOptions {
  double seconds = 1.0;
  bool open_loop = false;
  double rate = 0.0;   ///< open loop: offered req/s over all connections
  int window = 1;      ///< closed loop: requests in flight per connection
  int threads = 2;     ///< generator threads (connections are dealt out)
  std::vector<int> cpus;  ///< generator thread t runs on cpus[t % size]
  std::uint64_t arrival_seed = 0;  ///< open loop: Poisson stream seed
  int record_every = 1;  ///< keep one success latency in N (failures: all)
  int trace_every = 0;   ///< keep a span for one request in N; 0 = off
  std::size_t trace_cap = 0;  ///< spans kept per connection
};

/// One traced request: when it was due, sent and answered.
struct RequestSpan {
  std::uint64_t request_id = 0;  ///< connection << 40 | sequence
  std::int64_t due_ns = 0, sent_ns = 0, done_ns = 0;
};

struct PhaseResult {
  double elapsed_s = 0.0;
  std::uint64_t sent = 0, ok = 0, failed = 0, wrong = 0;
  std::string first_wrong;  ///< the first reply that failed its check
  std::map<std::string, std::uint64_t> errors;  ///< wire code -> count
  /// Latency from due time, µs, per kind (failures are +inf).
  std::array<std::vector<float>, vocab::kKindCount> latency_us;
  std::vector<float> lag_us;  ///< send time minus due time
  std::uint64_t backlog = 0;  ///< requests in flight when sending stopped
  std::vector<RequestSpan> spans;

  [[nodiscard]] std::vector<float> all_latencies() const;
  void merge(PhaseResult&& other);
};

/// Runs one phase over `fds` (one Stream per fd; streams persist across
/// phases so their sequence numbers keep counting).
[[nodiscard]] PhaseResult run_phase(std::span<const int> fds,
                                    std::span<const std::unique_ptr<Stream>> streams,
                                    const PhaseOptions& options);

}  // namespace perfbench
