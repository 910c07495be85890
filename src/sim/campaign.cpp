#include "sim/campaign.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/shard_core.hpp"
#include "sim/clock.hpp"
#include "sim/request_pools.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace archline::sim {

namespace {

// Request pool sizes (cache-key diversity).
constexpr int kPredictKeys = 64;
constexpr int kBatchKeys = 16;
constexpr int kObserveKeys = 12;

[[nodiscard]] std::uint64_t to_ns(double seconds) noexcept {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

[[nodiscard]] LatencyStats summarize(std::vector<std::uint64_t>& samples) {
  LatencyStats out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50_ns = stats::nearest_rank(samples, 0.50);
  out.p99_ns = stats::nearest_rank(samples, 0.99);
  out.p999_ns = stats::nearest_rank(samples, 0.999);
  out.max_ns = samples.back();
  return out;
}

}  // namespace

void CampaignOptions::validate() const {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("CampaignOptions: ") + what);
  };
  if (connections < 1) fail("connections must be >= 1");
  if (!(virtual_seconds > 0.0)) fail("virtual_seconds must be > 0");
  if (open_ramp_s < 0.0) fail("open_ramp_s must be >= 0");
  if (shards < 1) fail("shards must be >= 1");
  if (heavy_workers < 1) fail("heavy_workers must be >= 1");
  if (queue_capacity < 1) fail("queue_capacity must be >= 1");
  if (request_deadline_ms < 0 || idle_timeout_ms < 0)
    fail("timeouts must be >= 0");
  if (slow_loris_drip_s <= 0.0) fail("slow_loris_drip_s must be > 0");
  if (partial_reset_after_s < 0.0) fail("partial_reset_after_s must be >= 0");
  if (service.jitter_frac < 0.0) fail("service.jitter_frac must be >= 0");
  const BehaviorMix& b = behaviors;
  for (double w : {b.pipelined, b.slow_loris, b.partial_reset, b.idle_camper})
    if (!(w >= 0.0)) fail("behavior weights must be >= 0");
  if (b.pipelined + b.slow_loris + b.partial_reset + b.idle_camper <= 0.0)
    fail("behavior weights must not all be zero");
  const WorkloadMix& m = workload;
  double sum = 0.0;
  for (double w : {m.predict, m.predict_batch, m.observe, m.params,
                   m.policy_advise, m.refit, m.trace, m.bad_json}) {
    if (!(w >= 0.0)) fail("workload weights must be >= 0");
    sum += w;
  }
  if (sum <= 0.0) fail("workload weights must not all be zero");
  arrivals.validate();
}

// ---- report rendering -----------------------------------------------------

namespace {

serve::Json latency_stats_json(const LatencyStats& s) {
  serve::Json out = serve::Json::object();
  out.set("count", s.count);
  out.set("p50_ns", s.p50_ns);
  out.set("p99_ns", s.p99_ns);
  out.set("p999_ns", s.p999_ns);
  out.set("max_ns", s.max_ns);
  return out;
}

}  // namespace

std::string CampaignReport::to_json() const {
  serve::Json out = serve::Json::object();
  out.set("report", "sim_campaign");
  out.set("seed", seed);
  out.set("virtual_seconds", virtual_seconds);
  out.set("drained_at_s", drained_at_s);
  serve::Json conns = serve::Json::object();
  conns.set("opened", connections_opened);
  conns.set("refused", connections_refused);
  conns.set("closed_clean", closed_clean);
  conns.set("reset_by_client", reset_by_client);
  conns.set("idle_closed", idle_closed);
  conns.set("accounted", connections_accounted);
  out.set("connections", std::move(conns));
  serve::Json reqs = serve::Json::object();
  reqs.set("sent", requests_sent);
  reqs.set("framed", requests_framed);
  reqs.set("replies_delivered", replies_delivered);
  reqs.set("replies_abandoned", replies_abandoned);
  reqs.set("dropped_replies", dropped_replies);
  reqs.set("ok", ok);
  reqs.set("overloaded", overloaded);
  reqs.set("deadline_exceeded", deadline_exceeded);
  out.set("requests", std::move(reqs));
  serve::Json codes = serve::Json::object();
  for (const auto& [code, n] : errors_by_code) codes.set(code, n);
  out.set("errors_by_code", std::move(codes));
  out.set("latency", latency_stats_json(total));
  serve::Json per_endpoint = serve::Json::object();
  for (const auto& [name, s] : endpoints)
    per_endpoint.set(name, latency_stats_json(s));
  out.set("latency_by_endpoint", std::move(per_endpoint));
  serve::Json cache = serve::Json::object();
  cache.set("hits", cache_hits);
  cache.set("misses", cache_misses);
  cache.set("stale", cache_stale);
  cache.set("hit_rate", cache_hit_rate);
  out.set("cache", std::move(cache));
  serve::Json queues = serve::Json::object();
  queues.set("max_light_depth", max_light_depth);
  queues.set("max_heavy_depth", max_heavy_depth);
  out.set("queues", std::move(queues));
  out.set("drain_clean", drain_clean);
  out.set("events_processed", events_processed);
  return out.dump();
}

// ---- the discrete-event engine --------------------------------------------

struct Campaign::Impl {
  using Core = serve::ShardCore;

  enum class EventKind : std::uint8_t {
    Open,       ///< connection admission (a = conn)
    Arrival,    ///< client initiates one request (a = conn)
    Send,       ///< a client's next scheduled chunk leaves it (a = conn)
    IdleCheck,  ///< idle-expiry probe (a = conn)
    ShardDone,  ///< a shard finishes the chunk it read (a = shard)
    HeavyDone,  ///< a Heavy worker finishes its job (a = worker)
  };

  struct Event {
    std::uint64_t t_ns;
    std::uint64_t seq;  ///< schedule order: the deterministic tie-break
    EventKind kind;
    std::uint32_t a;
  };
  struct EventAfter {
    bool operator()(const Event& x, const Event& y) const noexcept {
      return x.t_ns != y.t_ns ? x.t_ns > y.t_ns : x.seq > y.seq;
    }
  };

  enum class State : std::uint8_t { Closed, Open, Reset };

  static constexpr std::uint32_t kNoLine = UINT32_MAX;

  /// Bytes on the wire, or the client's reset, which reaches the
  /// shard behind the bytes sent before it.
  struct Chunk {
    std::string_view bytes;
    std::uint32_t conn = 0;
    std::uint32_t endpoint = kNoLine;  ///< type of the line it completes
    bool reset = false;
  };

  /// A virtual client; its connection is id conn + 1 in its shard's core.
  struct Client {
    State state = State::Closed;
    Behavior behavior = Behavior::Pipelined;
    bool idle_armed = false;
    std::uint32_t shard = 0;
    std::uint32_t normal_left = 0;  ///< PartialReset: requests before the stub
    std::size_t trace_at = 0;
    stats::Rng rng{0, 0};
    std::uint64_t drip_end_ns = 0;
    std::deque<Chunk> sending;  ///< scheduled chunks, in send order
    /// Lines sent whole and not yet answered: when, and their type.
    std::deque<std::pair<std::uint64_t, std::uint32_t>> awaiting;
    std::uint64_t received = 0;  ///< replies delivered
  };

  /// A modeled shard runs the server's own ShardCore; it reads chunks
  /// in arrival order and takes Heavy replies back when it is free.
  struct Shard {
    std::unique_ptr<Core> core;
    std::deque<Chunk> inbox;  ///< arrived at its sockets, not yet read
    std::vector<Core::Completion> replies;  ///< handed back by workers
    bool busy = false;
    std::uint32_t serving = 0;  ///< the client whose chunk it serves
  };

  explicit Impl(CampaignOptions opts) : options(std::move(opts)) {
    options.validate();
    serve::ServerOptions so;
    so.threads = 1;  // never started: all execution is on this thread
    so.queue_capacity = options.queue_capacity;
    so.request_deadline_ms = options.request_deadline_ms;
    so.cache_capacity = options.cache_capacity;
    so.clock = &clock;
    server = std::make_unique<serve::Server>(so);
    // The campaign's 0 means no cap; the core's cap is a hard one.
    const std::size_t cap = options.max_connections > 0
                                ? options.max_connections
                                : std::numeric_limits<std::size_t>::max();
    const auto partitions =
        serve::make_shard_partitions(*server, options.shards);
    shards.resize(partitions.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      shards[i].core = std::make_unique<Core>(*server, partitions[i],
                                              static_cast<int>(i),
                                              options.shards, cap,
                                              options.idle_timeout_ms);
      shards[i].core->set_observer(&Impl::on_served, this);
    }
    heavy.resize(static_cast<std::size_t>(options.heavy_workers));
    pools = {make_predict_pool(kPredictKeys),
             make_batch_pool(kBatchKeys),
             make_observe_pool(kObserveKeys, options.seed),
             make_params_pool(),
             make_policy_pool(),
             make_refit_pool(),
             make_trace_pool(),
             make_bad_json_pool(so.limits.max_request_bytes)};
    for (Pool& pool : pools)
      for (std::string& line : pool) line.push_back('\n');  // wire lines
  }

  CampaignOptions options;
  SimClock clock;
  using Pool = std::vector<std::string>;
  std::array<Pool, 8> pools;  ///< in WorkloadMix order

  std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
  std::uint64_t next_seq = 0;
  std::uint64_t now_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t clock_ns = 0;  ///< SimClock position (advance-only)

  std::vector<Shard> shards;
  /// Each Heavy worker's job (its shard and reply); empty = idle.
  std::vector<std::optional<std::pair<std::uint32_t, Core::Completion>>>
      heavy;
  std::vector<std::uint32_t> pokes;  ///< shards handed a reply to take
  std::vector<Core::Completion> taken;
  std::uint64_t charge_ns = 0;  ///< on_served's tally for one read

  std::vector<Client> conns;
  std::uint32_t next_shard = 0;  ///< round-robin cursor, in open order
  std::vector<std::string> transcripts;  ///< kept only by replay()

  CampaignReport report;
  std::vector<std::vector<std::uint64_t>> latencies;  ///< per interned type
  std::vector<std::string> endpoint_names;
  std::map<std::string, std::uint32_t, std::less<>> endpoint_ids;
  stats::Rng service_rng{0, 0};
  bool ran_once = false;

  /// Declared last, so it is destroyed first: its destructor runs any
  /// job still queued, whose reply lands in a core's channel.
  std::unique_ptr<serve::Server> server;

  // ---- helpers ----

  void schedule(std::uint64_t t_ns, EventKind kind, std::uint32_t a) {
    heap.push(Event{t_ns, next_seq++, kind, a});
  }

  [[nodiscard]] std::uint32_t intern(std::string_view type) {
    const auto it = endpoint_ids.find(type);
    if (it != endpoint_ids.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(endpoint_names.size());
    endpoint_names.emplace_back(type);
    endpoint_ids.emplace(endpoint_names.back(), id);
    latencies.emplace_back();
    return id;
  }

  /// Moves the SimClock to `t_ns` for the server and returns the same
  /// instant as the cores' clock reading (SimClock starts at epoch).
  Core::Clock::time_point now_at(std::uint64_t t_ns) {
    if (t_ns > clock_ns) {
      clock.advance(std::chrono::nanoseconds(t_ns - clock_ns));
      clock_ns = t_ns;
    }
    return Core::Clock::time_point(std::chrono::nanoseconds(t_ns));
  }

  [[nodiscard]] Core& core_of(std::uint32_t ci) {
    return *shards[conns[ci].shard].core;
  }
  [[nodiscard]] Core::Conn& conn_of(std::uint32_t ci) {
    return *core_of(ci).find(ci + 1);
  }

  /// Draws one request line for `c` from the workload mix.
  [[nodiscard]] const std::string& draw_line(Client& c) {
    const WorkloadMix& m = options.workload;
    const std::array<double, 8> w = {m.predict, m.predict_batch, m.observe,
                                     m.params,  m.policy_advise, m.refit,
                                     m.trace,   m.bad_json};
    double r = c.rng.uniform() * std::accumulate(w.begin(), w.end(), 0.0);
    std::size_t k = 0;  // the last pool takes whatever is left
    while (k + 1 < w.size() && (r -= w[k]) >= 0.0) ++k;
    const Pool& pool = pools[k];
    if (k == 6) return pool[c.trace_at++ % pool.size()];  // the GOP trace
    return pool[static_cast<std::size_t>(c.rng.below(pool.size()))];
  }

  [[nodiscard]] std::uint64_t service_ns(std::uint64_t base) {
    const double jitter_frac = options.service.jitter_frac;
    const double jitter =
        jitter_frac > 0.0 ? 1.0 + jitter_frac * service_rng.uniform() : 1.0;
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(base) * jitter));
  }

  /// Counts a rendered reply by outcome; true for a success.
  bool count_outcome(std::string_view body) {
    if (reply_ok(body)) {
      ++report.ok;
      return true;
    }
    ++report.errors_by_code[std::string(reply_error_code(body))];
    return false;
  }

  // ---- the server: shards run their cores, workers the Heavy queue ----

  /// The cores' observer, once per request line a shard took: a hit or
  /// a Light miss charges the shard its service time; handing a Heavy
  /// miss to the queue costs it nothing.
  static void on_served(void* self, serve::Server::Inline how,
                        std::string_view reply) {
    Impl& m = *static_cast<Impl*>(self);
    ++m.report.requests_framed;
    const ServiceModel& sm = m.options.service;
    if (how != serve::Server::Inline::HeavyMiss) {
      const bool ok = m.count_outcome(reply);
      m.charge_ns += m.service_ns(
          how == serve::Server::Inline::Hit ? sm.cached_hit_ns
          : ok                              ? sm.light_miss_ns
                                            : sm.error_reply_ns);
    } else if (!reply.empty()) {  // the queue was full
      ++m.report.overloaded;
      ++m.report.errors_by_code["overloaded"];
    }
  }

  /// A free shard takes the Heavy replies handed back to it, then the
  /// chunks at its sockets in arrival order, until a read occupies it.
  void run_shard(std::uint32_t si, std::uint64_t t_ns) {
    Shard& s = shards[si];
    while (!s.busy) {
      if (!s.replies.empty()) {
        std::vector<Core::Completion> batch;
        batch.swap(s.replies);
        for (Core::Completion& done : batch)
          if (const Core::Conn* c = s.core->complete(std::move(done)))
            settle(static_cast<std::uint32_t>(c->id - 1), t_ns);
        continue;
      }
      if (s.inbox.empty()) return;
      const Chunk chunk = s.inbox.front();
      s.inbox.pop_front();
      Core::Conn* c = s.core->find(chunk.conn + 1);
      if (c == nullptr) continue;  // the server closed it: bytes lost
      const Core::Clock::time_point now = now_at(t_ns);
      if (chunk.reset) {
        close(chunk.conn, false);
        continue;
      }
      charge_ns = 0;
      s.core->receive(*c, chunk.bytes, now);
      run_heavy(t_ns);  // a free worker takes what the read queued
      if (charge_ns == 0) {
        settle(chunk.conn, t_ns);
        continue;
      }
      s.busy = true;
      s.serving = chunk.conn;
      schedule(t_ns + charge_ns, EventKind::ShardDone, si);
    }
  }

  /// Sends client `ci` all its shard's core has for it, then closes the
  /// connection if it is finished, else keeps its idle probe armed.
  void settle(std::uint32_t ci, std::uint64_t t_ns) {
    Core::Conn& c = conn_of(ci);
    while (Core::has_outbound(c)) {
      std::array<iovec, Core::kMaxIov> iov;
      const int cnt = Core::gather(c, iov.data());
      std::size_t n = 0;
      bool shed = false;
      for (const iovec& seg :
           std::span(iov.data(), static_cast<std::size_t>(cnt))) {
        const std::string_view bytes(static_cast<const char*>(seg.iov_base),
                                     seg.iov_len);
        n += bytes.size();
        if (!transcripts.empty()) transcripts[ci].append(bytes);
        // A segment without a newline is one whole reply the writer
        // released; shed load never comes inline, and is not timed.
        const auto ends = std::count(bytes.begin(), bytes.end(), '\n');
        if (ends == 0)
          shed = bytes == serve::overloaded_body() ||
                 bytes == serve::deadline_exceeded_body();
        for (auto k = ends; k > 0; --k, shed = false) deliver(ci, t_ns, !shed);
      }
      core_of(ci).sent(c, n, now_at(t_ns));
    }
    if (Core::finished(c))
      close(ci, false);
    else
      arm_idle(ci, t_ns);
  }

  void deliver(std::uint32_t ci, std::uint64_t t_ns, bool timed) {
    Client& c = conns[ci];
    if (c.state != State::Open) return;  // reset: abandoned at close
    ++report.replies_delivered;
    ++c.received;
    if (c.awaiting.empty()) return;  // replay() times nothing
    const auto [sent_ns, endpoint] = c.awaiting.front();
    c.awaiting.pop_front();
    if (timed) latencies[endpoint].push_back(t_ns - sent_ns);
  }

  /// The server forgets client `ci`'s connection; what it took and
  /// never delivered is abandoned (only a reset leaves any).
  void close(std::uint32_t ci, bool idle) {
    Client& cl = conns[ci];
    Core::Conn& c = conn_of(ci);
    report.replies_abandoned += c.submitted - cl.received;
    core_of(ci).close(c, idle);
    if (cl.state != State::Open) return;  // a reset counts when sent
    cl.state = State::Closed;
    ++(idle ? report.idle_closed : report.closed_clean);
  }

  /// Free modeled Heavy workers take queued jobs through
  /// Server::run_queued, as its worker threads do; a job past its
  /// deadline is answered without occupying the worker.
  void run_heavy(std::uint64_t t_ns) {
    for (std::size_t w = 0; w < heavy.size(); ++w) {
      while (!heavy[w]) {
        (void)now_at(t_ns);
        if (!server->run_queued()) return;
        // The job pushed its reply into its own shard's channel.
        std::uint32_t si = 0;
        for (shards[si].core->take_completions(taken); taken.empty();)
          shards[++si].core->take_completions(taken);
        if (taken.front().body == serve::deadline_exceeded_body()) {
          ++report.deadline_exceeded;
          ++report.errors_by_code["deadline_exceeded"];
          shards[si].replies.push_back(std::move(taken.front()));
          pokes.push_back(si);
          continue;
        }
        const ServiceModel& sm = options.service;
        const std::uint64_t base = count_outcome(taken.front().body)
                                       ? sm.heavy_miss_ns
                                       : sm.error_reply_ns;
        heavy[w].emplace(si, std::move(taken.front()));
        schedule(t_ns + service_ns(base), EventKind::HeavyDone,
                 static_cast<std::uint32_t>(w));
      }
    }
  }

  // ---- the clients ----

  /// Client `ci` puts `chunk` on the wire; it reaches its shard at once.
  void send(std::uint32_t ci, const Chunk& chunk, std::uint64_t t_ns) {
    Client& c = conns[ci];
    if (chunk.endpoint != kNoLine)
      c.awaiting.emplace_back(t_ns, chunk.endpoint);
    Shard& s = shards[c.shard];
    s.inbox.push_back(chunk);
    report.max_light_depth =
        std::max<std::uint64_t>(report.max_light_depth, s.inbox.size());
    run_shard(c.shard, t_ns);
  }

  /// Queues `chunk` to leave client `ci` at `t_ns`, behind its others.
  void send_at(std::uint32_t ci, const Chunk& chunk, std::uint64_t t_ns) {
    conns[ci].sending.push_back(chunk);
    schedule(t_ns, EventKind::Send, ci);
  }

  void send_request(std::uint32_t ci, std::uint64_t t_ns) {
    Client& c = conns[ci];
    ++report.requests_sent;
    const std::string_view line = draw_line(c);
    const std::uint32_t endpoint = intern(serve::request_type(line));
    if (c.behavior != Behavior::SlowLoris) {
      send(ci, Chunk{line, ci, endpoint}, t_ns);
      return;
    }
    // A slow loris sends half a line, then the rest once its drip time
    // has passed; its requests drip one after another.
    const double drip = options.slow_loris_drip_s * c.rng.uniform(0.5, 1.5);
    const std::uint64_t begin = std::max(c.drip_end_ns, t_ns);
    c.drip_end_ns = begin + to_ns(drip);
    const std::size_t half = line.size() / 2;
    send_at(ci, Chunk{line.substr(0, half), ci}, begin);
    send_at(ci, Chunk{line.substr(half), ci, endpoint}, c.drip_end_ns);
  }

  void arm_idle(std::uint32_t ci, std::uint64_t t_ns) {
    Client& c = conns[ci];
    if (c.idle_armed || c.state != State::Open) return;
    // Probe when the core says it expires (never while a reply is owed);
    // past the horizon, shutdown closes it first.
    const std::uint64_t due = std::max<std::uint64_t>(
        t_ns, static_cast<std::uint64_t>(
                  std::chrono::nanoseconds(
                      core_of(ci).expiry(conn_of(ci)).time_since_epoch())
                      .count()));
    if (due >= end_ns) return;
    c.idle_armed = true;
    schedule(due, EventKind::IdleCheck, ci);
  }

  void schedule_next_arrival(std::uint32_t ci, std::uint64_t t_ns) {
    const double next_s = next_arrival(
        options.arrivals, static_cast<double>(t_ns) * 1e-9, conns[ci].rng);
    if (std::isfinite(next_s) && to_ns(next_s) < end_ns)
      schedule(to_ns(next_s), EventKind::Arrival, ci);
  }

  void on_open(std::uint32_t ci, std::uint64_t t_ns) {
    Client& c = conns[ci];
    // Round-robin over every accepted socket, refused ones included,
    // like the transport's handoff mode.
    c.shard = next_shard++ % static_cast<std::uint32_t>(shards.size());
    if (core_of(ci).admit(ci + 1, now_at(t_ns)) == nullptr) {
      ++report.connections_refused;
      return;
    }
    ++report.connections_opened;
    c.state = State::Open;
    if (transcripts.empty()) {  // replay() scripts its own traffic
      if (c.behavior == Behavior::IdleCamper)
        send_request(ci, t_ns);  // one request, then silence
      else
        schedule_next_arrival(ci, t_ns);
    }
    arm_idle(ci, t_ns);
  }

  void on_arrival(std::uint32_t ci, std::uint64_t t_ns) {
    Client& c = conns[ci];
    if (c.state != State::Open) return;
    if (c.behavior == Behavior::PartialReset && c.normal_left-- == 0) {
      // The stub: a partial frame that never completes, then a reset.
      // Its bytes count as sent, never as framed.
      ++report.requests_sent;
      send(ci, Chunk{R"({"type":"predict","pl)", ci}, t_ns);
      send_at(ci, Chunk{{}, ci, kNoLine, /*reset=*/true},
              t_ns + to_ns(options.partial_reset_after_s));
      return;
    }
    send_request(ci, t_ns);
    schedule_next_arrival(ci, t_ns);
  }

  void on_send(std::uint32_t ci, std::uint64_t t_ns) {
    Client& c = conns[ci];
    const Chunk chunk = c.sending.front();
    c.sending.pop_front();
    if (c.state != State::Open) return;  // the server closed it
    if (chunk.reset) {
      c.state = State::Reset;
      ++report.reset_by_client;
    }
    send(ci, chunk, t_ns);
  }

  void on_idle_check(std::uint32_t ci, std::uint64_t t_ns) {
    Client& c = conns[ci];
    c.idle_armed = false;
    if (c.state != State::Open) return;
    if (core_of(ci).expired(conn_of(ci), now_at(t_ns)))
      close(ci, true);
    else
      arm_idle(ci, t_ns);
  }

  // ---- the main loop ----

  CampaignReport run() {
    end_ns = to_ns(options.virtual_seconds);
    const double ramp =
        std::min(options.open_ramp_s, options.virtual_seconds * 0.5);
    conns.resize(static_cast<std::size_t>(options.connections));
    service_rng = stats::Rng(options.seed, /*stream=*/3);
    stats::Rng assign_rng(options.seed, /*stream=*/2);

    const BehaviorMix& b = options.behaviors;
    const double bsum =
        b.pipelined + b.slow_loris + b.partial_reset + b.idle_camper;
    for (std::uint32_t i = 0; i < conns.size(); ++i) {
      Client& c = conns[i];
      c.rng = stats::Rng(options.seed, 1000 + i);
      double r = assign_rng.uniform() * bsum;
      if ((r -= b.pipelined) < 0.0) c.behavior = Behavior::Pipelined;
      else if ((r -= b.slow_loris) < 0.0) c.behavior = Behavior::SlowLoris;
      else if ((r -= b.partial_reset) < 0.0) {
        c.behavior = Behavior::PartialReset;
        c.normal_left = 1 + static_cast<std::uint32_t>(assign_rng.below(8));
      } else {
        c.behavior = Behavior::IdleCamper;
      }
      // Stagger trace cursors one GOP apart, like the loadgen.
      c.trace_at = static_cast<std::size_t>(i) * 13;
      const std::uint64_t open_at =
          ramp > 0.0 ? to_ns(assign_rng.uniform(0.0, ramp)) : 0;
      schedule(open_at, EventKind::Open, i);
    }
    drain();
    finalize();
    return report;
  }

  /// Connection i opens at 0 and sends streams[i] whole.
  std::vector<std::string> replay(const std::vector<std::string>& streams) {
    end_ns = to_ns(options.virtual_seconds);
    conns.resize(streams.size());
    transcripts.resize(streams.size());
    for (std::uint32_t i = 0; i < conns.size(); ++i) {
      on_open(i, 0);
      if (conns[i].state == State::Open) send(i, Chunk{streams[i], i}, 0);
    }
    drain();
    return std::move(transcripts);
  }

  /// Runs every event (arrivals end at the horizon, then the queued
  /// work drains), then closes every connection still open.
  void drain() {
    while (!heap.empty()) {
      const Event ev = heap.top();
      heap.pop();
      now_ns = std::max(now_ns, ev.t_ns);
      ++report.events_processed;
      switch (ev.kind) {
        case EventKind::Open: on_open(ev.a, ev.t_ns); break;
        case EventKind::Arrival: on_arrival(ev.a, ev.t_ns); break;
        case EventKind::Send: on_send(ev.a, ev.t_ns); break;
        case EventKind::IdleCheck: on_idle_check(ev.a, ev.t_ns); break;
        case EventKind::ShardDone:
          shards[ev.a].busy = false;
          settle(shards[ev.a].serving, ev.t_ns);
          run_shard(ev.a, ev.t_ns);
          break;
        case EventKind::HeavyDone: {
          const std::uint32_t si = heavy[ev.a]->first;
          shards[si].replies.push_back(std::move(heavy[ev.a]->second));
          heavy[ev.a].reset();
          run_shard(si, ev.t_ns);
          run_heavy(ev.t_ns);
          break;
        }
      }
      while (!pokes.empty()) {
        const std::uint32_t si = pokes.back();
        pokes.pop_back();
        run_shard(si, ev.t_ns);
      }
    }
    for (Shard& s : shards) s.core->stop();
    for (std::uint32_t ci = 0; ci < conns.size(); ++ci)
      if (conns[ci].state == State::Open) close(ci, false);
  }

  void finalize() {
    report.seed = options.seed;
    report.virtual_seconds = options.virtual_seconds;
    report.drained_at_s =
        std::max(static_cast<double>(now_ns) * 1e-9, options.virtual_seconds);

    std::vector<std::uint64_t> all;
    for (std::uint32_t id = 0; id < latencies.size(); ++id) {
      if (latencies[id].empty()) continue;
      all.insert(all.end(), latencies[id].begin(), latencies[id].end());
      report.endpoints[endpoint_names[id]] = summarize(latencies[id]);
    }
    report.total = summarize(all);

    const serve::ShardedLruCache::Stats cache = server->cache_stats();
    report.cache_hits = cache.hits;
    report.cache_misses = cache.misses;
    report.cache_stale = cache.stale;
    report.cache_hit_rate = cache.hit_rate();
    const serve::Metrics::Snapshot metrics = server->metrics().snapshot();
    report.max_heavy_depth = metrics.queue_peak;

    report.dropped_replies = report.requests_framed -
                             report.replies_delivered -
                             report.replies_abandoned;
    bool idle = metrics.queue_depth == 0;
    std::size_t open = 0;
    for (const Shard& s : shards) {
      idle = idle && !s.busy && s.inbox.empty() && s.replies.empty();
      open += s.core->size();
    }
    report.drain_clean = idle && report.dropped_replies == 0;
    report.connections_accounted =
        report.connections_opened + report.connections_refused ==
            static_cast<std::uint64_t>(options.connections) &&
        report.closed_clean + report.reset_by_client + report.idle_closed ==
            report.connections_opened &&
        open == 0;
  }
};

Campaign::Campaign(CampaignOptions options)
    : impl_(new Impl(std::move(options))) {}

Campaign::~Campaign() { delete impl_; }

CampaignReport Campaign::run() {
  if (impl_->ran_once)
    throw std::logic_error("Campaign::run() may be called once");
  impl_->ran_once = true;
  return impl_->run();
}

std::vector<std::string> Campaign::replay(
    CampaignOptions options, const std::vector<std::string>& streams) {
  options.connections = std::max(1, static_cast<int>(streams.size()));
  Impl impl(std::move(options));
  return impl.replay(streams);
}

// ---- named presets --------------------------------------------------------

CampaignOptions campaign_scenario(const std::string& name) {
  CampaignOptions o;
  if (name == "steady") {
    // The production baseline: Poisson mixed read traffic.
    o.connections = 1000;
    o.virtual_seconds = 10.0;
    o.arrivals = ArrivalSpec::poisson(10.0);
    o.workload.predict = 0.80;
    o.workload.params = 0.10;
    o.workload.policy_advise = 0.10;
  } else if (name == "burst") {
    // Fleet-synchronized ON/OFF bursts slamming two shards. The server
    // never sheds Light work, so each burst backs up in the shard FIFOs
    // and drains in the OFF phase.
    o.connections = 2000;
    o.virtual_seconds = 10.0;
    o.arrivals = ArrivalSpec::on_off(80.0, 0.05, 0.45);
    o.request_deadline_ms = 20;
    o.shards = 2;
    o.heavy_workers = 1;
    // A deliberately slow box (per-request cost ~50x the measured
    // server): each synchronized burst outruns the shards, so the run
    // exercises deep backlogs, not just the happy path.
    o.service.cached_hit_ns = 20'000;
    o.service.light_miss_ns = 200'000;
    o.service.error_reply_ns = 20'000;
    o.workload.predict = 0.90;
    o.workload.params = 0.10;
  } else if (name == "diurnal") {
    // One slow swell from trough to crest and back.
    o.connections = 1000;
    o.virtual_seconds = 20.0;
    o.arrivals = ArrivalSpec::diurnal(1.0, 25.0, 20.0);
    o.workload.predict = 0.70;
    o.workload.policy_advise = 0.15;
    o.workload.params = 0.15;
  } else if (name == "slow-loris") {
    // Byte-drippers and idle campers squatting on connection slots;
    // idle reaping and the admission cap are the defenses under test.
    o.connections = 2000;
    o.virtual_seconds = 20.0;
    o.arrivals = ArrivalSpec::poisson(2.0);
    o.behaviors.pipelined = 0.40;
    o.behaviors.slow_loris = 0.40;
    o.behaviors.idle_camper = 0.20;
    o.idle_timeout_ms = 2000;
    o.max_connections = 1500;
    o.workload.predict = 0.90;
    o.workload.params = 0.10;
  } else if (name == "adversarial") {
    // Everything at once: synchronized bursts, slow-loris drip,
    // partial-frame resets, campers, malformed JSON, and heavy refits
    // against a deadline-bounded, capacity-bounded Heavy queue.
    o.connections = 2000;
    o.virtual_seconds = 10.0;
    o.arrivals = ArrivalSpec::on_off(40.0, 0.1, 0.4);
    o.behaviors.pipelined = 0.70;
    o.behaviors.slow_loris = 0.15;
    o.behaviors.partial_reset = 0.10;
    o.behaviors.idle_camper = 0.05;
    o.idle_timeout_ms = 2000;
    o.request_deadline_ms = 200;
    o.shards = 3;
    o.heavy_workers = 1;
    // Slow enough that synchronized bursts saturate the shards and the
    // Heavy worker: the SLO must hold although every Light request
    // waits its turn.
    o.service.cached_hit_ns = 50'000;
    o.service.light_miss_ns = 150'000;
    o.service.error_reply_ns = 30'000;
    // Reset hard on the heels of the partial frame, while earlier
    // requests are still queued — their replies must be accounted as
    // abandoned, never dropped.
    o.partial_reset_after_s = 0.01;
    o.workload.predict = 0.70;
    o.workload.policy_advise = 0.10;
    o.workload.observe = 0.10;
    o.workload.refit = 0.01;
    o.workload.bad_json = 0.04;
    o.workload.params = 0.05;
  } else if (name == "churn") {
    // Live-learning churn: streaming observe + periodic refit keep
    // flipping the parameter generation under cached reads — the
    // generation-scoped invalidation stress test.
    o.connections = 500;
    o.virtual_seconds = 10.0;
    o.arrivals = ArrivalSpec::poisson(20.0);
    o.shards = 6;
    o.heavy_workers = 2;
    o.workload.predict = 0.40;
    o.workload.policy_advise = 0.18;
    o.workload.params = 0.10;
    o.workload.observe = 0.30;
    o.workload.refit = 0.02;
  } else if (name == "million") {
    // The acceptance campaign: 10k connections, ~1.2M requests,
    // synchronized bursts plus a slow-loris / partial-reset / camper
    // adversary mix, deadlines armed — and still SLO-clean.
    o.connections = 10000;
    o.virtual_seconds = 10.0;
    o.open_ramp_s = 2.0;
    o.arrivals = ArrivalSpec::on_off(30.0, 0.2, 0.3);
    o.behaviors.pipelined = 0.90;
    o.behaviors.slow_loris = 0.05;
    o.behaviors.partial_reset = 0.03;
    o.behaviors.idle_camper = 0.02;
    o.idle_timeout_ms = 3000;
    o.request_deadline_ms = 50;
    o.shards = 8;
    o.heavy_workers = 2;
    o.workload.predict = 0.86;
    o.workload.policy_advise = 0.05;
    o.workload.params = 0.05;
    o.workload.observe = 0.03;
    o.workload.bad_json = 0.01;
  } else {
    std::string known;
    for (const auto& n : campaign_scenario_names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("unknown campaign scenario \"" + name +
                                "\" (known: " + known + ")");
  }
  return o;
}

std::vector<std::string> campaign_scenario_names() {
  return {"steady",      "burst", "diurnal", "slow-loris",
          "adversarial", "churn", "million"};
}

}  // namespace archline::sim
