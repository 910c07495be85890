#include "sim/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
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

/// Online-fit solver budget for refit traffic. The production defaults
/// (4096-tuple window, 60 LM iterations) make every synchronous refit
/// cost real milliseconds; a campaign with thousands of refits bounds
/// the budget so the *code path* is exercised at a wall-clock cost that
/// scales.
constexpr std::size_t kOnlineWindowCapacity = 256;
constexpr int kOnlineLmIterations = 10;

[[nodiscard]] std::uint64_t to_ns(double seconds) noexcept {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

// ---- request inspection ---------------------------------------------------

/// The request's wire "type" (for latency bucketing). Malformed lines
/// bucket as "invalid" — their replies are cheap canned errors.
[[nodiscard]] std::string_view request_type(std::string_view line) noexcept {
  static constexpr std::string_view kKey = "\"type\"";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) return "invalid";
  std::size_t i = at + kKey.size();
  while (i < line.size() && (line[i] == ' ' || line[i] == ':')) ++i;
  if (i >= line.size() || line[i] != '"') return "invalid";
  const std::size_t begin = ++i;
  const std::size_t end = line.find('"', begin);
  if (end == std::string_view::npos) return "invalid";
  return line.substr(begin, end - begin);
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
  enum class EventKind : std::uint8_t {
    Open,       ///< connection admission (a = conn)
    Arrival,    ///< client initiates one request (a = conn)
    Frame,      ///< a dripped request's final byte lands (a = conn)
    Reset,      ///< client tears the connection down (a = conn)
    IdleCheck,  ///< idle-reaper probe (a = conn)
    ShardDone,  ///< a shard finishes a hit or Light miss (a = shard)
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

  enum class ConnState : std::uint8_t {
    Unopened,
    Open,
    Refused,
    ClosedClean,
    Reset,
    IdleClosed,
  };

  enum class ReplyKind : std::uint8_t { Pending, Executed, Shed };

  /// One reply a connection is owed.
  struct Owed {
    std::uint64_t framed_ns;
    std::uint32_t endpoint = 0;  ///< interned wire-type id (Executed)
    ReplyKind kind = ReplyKind::Pending;
  };

  struct Conn {
    ConnState state = ConnState::Unopened;
    Behavior behavior = Behavior::Pipelined;
    stats::Rng rng{0, 0};
    ArrivalSpec spec;
    std::uint32_t shard = 0;
    std::uint64_t last_activity_ns = 0;
    bool idle_armed = false;
    bool arrivals_live = false;
    std::uint32_t normal_left = 0;  ///< PartialReset: requests before the stub
    std::size_t trace_at = 0;
    /// Slow-loris frames in flight, in send order.
    std::deque<const std::string*> dripping;
    std::uint64_t last_frame_end_ns = 0;
    /// Replies owed, in request order: like the transport's
    /// OrderedWriter, a reply that is ready waits for every earlier
    /// one. owed_base is the sequence number of the front.
    std::deque<Owed> owed;
    std::uint64_t owed_base = 0;
  };

  /// A framed request on its way through a shard and the Heavy pool.
  struct Ticket {
    const std::string* line;
    std::uint32_t conn;
    std::uint64_t seq;  ///< its reply's place in the connection's order
  };

  struct Shard {
    std::shared_ptr<serve::ShardedLruCache> partition;
    std::deque<Ticket> backlog;      ///< framed, not yet started
    std::optional<Ticket> serving;  ///< empty = idle
  };

  explicit Impl(CampaignOptions opts) : options(std::move(opts)) {
    options.validate();
    serve::ServerOptions so;
    so.threads = 1;  // never started: all execution is on this thread
    so.queue_capacity = options.queue_capacity;
    so.request_deadline_ms = options.request_deadline_ms;
    so.cache_capacity = options.cache_capacity;
    so.cache_shards = options.cache_shards;
    so.clock = &clock;
    so.online.window_capacity = kOnlineWindowCapacity;
    so.online.lm_iterations = kOnlineLmIterations;
    server = std::make_unique<serve::Server>(so);
    // One partition per shard, each an equal slice of the capacity, as
    // TcpListener::open builds them; with caching off the shards share
    // the server's own (disabled) partition.
    shards.resize(static_cast<std::size_t>(options.shards));
    const std::size_t per_shard = std::max<std::size_t>(
        1, options.cache_capacity / shards.size());
    for (Shard& s : shards) {
      if (options.cache_capacity == 0) {
        s.partition = server->cache();
        continue;
      }
      s.partition = std::make_shared<serve::ShardedLruCache>(
          per_shard, options.cache_shards);
      server->add_cache_partition(s.partition);
    }
    heavy.resize(static_cast<std::size_t>(options.heavy_workers));
    pools_predict = make_predict_pool(kPredictKeys);
    pools_params = make_params_pool();
    const WorkloadMix& m = options.workload;
    if (m.predict_batch > 0) pools_batch = make_batch_pool(kBatchKeys);
    if (m.observe > 0 || m.refit > 0)
      pools_observe = make_observe_pool(kObserveKeys, options.seed);
    if (m.policy_advise > 0) pools_policy = make_policy_pool();
    if (m.refit > 0) pools_refit = make_refit_pool();
    if (m.trace > 0) pools_trace = make_trace_pool();
    if (m.bad_json > 0)
      pools_bad = make_bad_json_pool(so.limits.max_request_bytes);
  }

  // ---- configuration + fixed state ----
  CampaignOptions options;
  SimClock clock;
  std::vector<std::string> pools_predict, pools_batch, pools_observe,
      pools_params, pools_policy, pools_refit, pools_trace, pools_bad;

  // ---- event loop ----
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
  std::uint64_t next_seq = 0;
  std::uint64_t now_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t clock_ns = 0;  ///< SimClock position (advance-only)
  /// Work that must settle before the campaign may finish: scheduled
  /// frames, owed replies, and pending resets. The drain phase runs
  /// until this returns to zero.
  std::uint64_t pending_work = 0;

  // ---- virtual server ----
  std::vector<Shard> shards;
  /// Each Heavy worker's job; empty = idle.
  std::vector<std::optional<Ticket>> heavy;
  /// The job Server::run_queued just answered; its reply is in scratch.
  Ticket ran{};

  // ---- clients ----
  std::vector<Conn> conns;
  std::size_t open_count = 0;
  std::uint32_t next_shard = 0;  ///< round-robin cursor, in open order

  // ---- accounting ----
  CampaignReport report;
  std::vector<std::vector<std::uint64_t>> latencies;  ///< per interned type
  std::vector<std::string> endpoint_names;
  std::map<std::string, std::uint32_t, std::less<>> endpoint_ids;
  std::string scratch;  ///< reusable reply buffer
  stats::Rng service_rng{0, 0};
  bool ran_once = false;

  /// Declared last, so it is destroyed first: its destructor runs any
  /// job still queued, and the job's callback writes `ran` and
  /// `scratch`.
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

  void advance_clock_to(std::uint64_t t_ns) {
    if (t_ns > clock_ns) {
      clock.advance(std::chrono::nanoseconds(t_ns - clock_ns));
      clock_ns = t_ns;
    }
  }

  void note_activity(Conn& c, std::uint64_t t_ns) {
    if (t_ns > c.last_activity_ns) c.last_activity_ns = t_ns;
  }

  void arm_idle(std::uint32_t ci, std::uint64_t t_ns) {
    Conn& c = conns[ci];
    if (options.idle_timeout_ms <= 0 || c.idle_armed ||
        c.state != ConnState::Open)
      return;
    // Probe at the earliest instant the connection could have gone
    // stale — last activity plus the timeout, NOT now plus the timeout:
    // a re-arm after a near-miss probe must not push the next check a
    // whole extra timeout into the future.
    const std::uint64_t at =
        std::max(t_ns, c.last_activity_ns + to_ns(options.idle_timeout_ms *
                                                  1e-3));
    if (at >= end_ns) return;  // shutdown will close it first
    c.idle_armed = true;
    schedule(at, EventKind::IdleCheck, ci);
  }

  /// Draws one request line for `c` from the workload mix.
  [[nodiscard]] const std::string* draw_line(Conn& c) {
    const WorkloadMix& m = options.workload;
    const double sum = m.predict + m.predict_batch + m.observe + m.params +
                       m.policy_advise + m.refit + m.trace + m.bad_json;
    double r = c.rng.uniform() * sum;
    const auto pick = [&](const std::vector<std::string>& pool)
        -> const std::string* {
      return &pool[static_cast<std::size_t>(c.rng.below(pool.size()))];
    };
    if ((r -= m.predict) < 0.0) return pick(pools_predict);
    if ((r -= m.predict_batch) < 0.0) return pick(pools_batch);
    if ((r -= m.observe) < 0.0) return pick(pools_observe);
    if ((r -= m.params) < 0.0) return pick(pools_params);
    if ((r -= m.policy_advise) < 0.0) return pick(pools_policy);
    if ((r -= m.refit) < 0.0) return pick(pools_refit);
    if ((r -= m.trace) < 0.0)
      return &pools_trace[c.trace_at++ % pools_trace.size()];
    return pick(pools_bad);
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

  // ---- reply delivery ----

  /// Marks `ticket`'s reply ready at `t_ns` and releases every reply
  /// its connection can now send in order.
  void complete(const Ticket& ticket, ReplyKind kind, std::uint64_t t_ns) {
    Conn& c = conns[ticket.conn];
    Owed& reply = c.owed[static_cast<std::size_t>(ticket.seq - c.owed_base)];
    reply.kind = kind;
    if (kind == ReplyKind::Executed)
      reply.endpoint = intern(request_type(*ticket.line));
    while (!c.owed.empty() && c.owed.front().kind != ReplyKind::Pending) {
      deliver(c, c.owed.front(), t_ns);
      c.owed.pop_front();
      ++c.owed_base;
    }
    if (c.owed.empty()) arm_idle(ticket.conn, t_ns);
  }

  void deliver(Conn& c, const Owed& reply, std::uint64_t t_ns) {
    --pending_work;
    if (c.state != ConnState::Open) {
      ++report.replies_abandoned;
      return;
    }
    ++report.replies_delivered;
    if (reply.kind == ReplyKind::Executed)
      latencies[reply.endpoint].push_back(t_ns - reply.framed_ns);
    note_activity(c, t_ns);
  }

  // ---- the modeled server: shards and the Heavy pool ----

  void frame_request(std::uint32_t ci, const std::string* line,
                     std::uint64_t t_ns) {
    Conn& c = conns[ci];
    ++report.requests_framed;
    ++pending_work;
    note_activity(c, t_ns);
    const Ticket ticket{line, ci, c.owed_base + c.owed.size()};
    c.owed.push_back(Owed{t_ns});
    Shard& s = shards[c.shard];
    s.backlog.push_back(ticket);
    report.max_light_depth =
        std::max<std::uint64_t>(report.max_light_depth, s.backlog.size());
    run_shard(c.shard, t_ns);
  }

  /// An idle shard takes requests off its backlog, in frame order,
  /// until one occupies it: a hit or a Light miss runs for its service
  /// time, while a Heavy miss is handed to the server's queue at no cost
  /// to the shard.
  void run_shard(std::uint32_t si, std::uint64_t t_ns) {
    Shard& s = shards[si];
    while (!s.serving && !s.backlog.empty()) {
      const Ticket ticket = s.backlog.front();
      s.backlog.pop_front();
      advance_clock_to(t_ns);
      const serve::Server::Inline how =
          server->serve_inline(*ticket.line, *s.partition, scratch);
      if (how == serve::Server::Inline::HeavyMiss) {
        submit_heavy(ticket, s.partition, t_ns);
        continue;
      }
      const ServiceModel& sm = options.service;
      const bool ok = count_outcome(scratch);
      std::uint64_t base = sm.cached_hit_ns;
      if (how == serve::Server::Inline::Evaluated)
        base = ok ? sm.light_miss_ns : sm.error_reply_ns;
      s.serving = ticket;
      schedule(t_ns + service_ns(base), EventKind::ShardDone, si);
    }
  }

  void submit_heavy(const Ticket& ticket,
                    const std::shared_ptr<serve::ShardedLruCache>& partition,
                    std::uint64_t t_ns) {
    const auto done = [this, ticket](std::string&& body) {
      ran = ticket;
      scratch.swap(body);
    };
    if (!server->enqueue(*ticket.line, done, partition)) {
      ++report.overloaded;
      ++report.errors_by_code["overloaded"];
      complete(ticket, ReplyKind::Shed, t_ns);
      return;
    }
    run_heavy(t_ns);
  }

  /// Idle Heavy workers take queued jobs through Server::run_queued, as
  /// its worker threads do; a job past its deadline is answered without
  /// occupying the worker.
  void run_heavy(std::uint64_t t_ns) {
    for (std::size_t w = 0; w < heavy.size(); ++w) {
      while (!heavy[w]) {
        advance_clock_to(t_ns);
        if (!server->run_queued()) return;
        if (scratch == serve::deadline_exceeded_body()) {
          ++report.deadline_exceeded;
          ++report.errors_by_code["deadline_exceeded"];
          complete(ran, ReplyKind::Shed, t_ns);
          continue;
        }
        const ServiceModel& sm = options.service;
        const std::uint64_t base =
            count_outcome(scratch) ? sm.heavy_miss_ns : sm.error_reply_ns;
        heavy[w] = ran;
        schedule(t_ns + service_ns(base), EventKind::HeavyDone,
                 static_cast<std::uint32_t>(w));
      }
    }
  }

  // ---- client behaviors ----

  void send_request(std::uint32_t ci, std::uint64_t t_ns) {
    Conn& c = conns[ci];
    ++report.requests_sent;
    note_activity(c, t_ns);
    const std::string* line = draw_line(c);
    if (c.behavior == Behavior::SlowLoris) {
      const double drip =
          options.slow_loris_drip_s * c.rng.uniform(0.5, 1.5);
      const std::uint64_t frames_at =
          std::max(c.last_frame_end_ns, t_ns) + to_ns(drip);
      c.last_frame_end_ns = frames_at;
      c.dripping.push_back(line);
      ++pending_work;
      schedule(frames_at, EventKind::Frame, ci);
    } else {
      frame_request(ci, line, t_ns);
    }
  }

  void on_open(std::uint32_t ci, std::uint64_t t_ns) {
    Conn& c = conns[ci];
    // Round-robin over every accepted socket, refused ones included,
    // like the transport's handoff mode.
    c.shard = next_shard++ % static_cast<std::uint32_t>(shards.size());
    ++report.connections_opened;
    if (options.max_connections > 0 &&
        open_count >= options.max_connections) {
      --report.connections_opened;
      ++report.connections_refused;
      c.state = ConnState::Refused;
      return;
    }
    ++open_count;
    c.state = ConnState::Open;
    note_activity(c, t_ns);
    if (c.behavior == Behavior::IdleCamper) {
      // One request, then silence: the idle reaper's prey.
      send_request(ci, t_ns);
      arm_idle(ci, t_ns);
      return;
    }
    c.arrivals_live = true;
    schedule_next_arrival(ci, t_ns);
    arm_idle(ci, t_ns);
  }

  void schedule_next_arrival(std::uint32_t ci, std::uint64_t t_ns) {
    Conn& c = conns[ci];
    const double next_s =
        next_arrival(c.spec, static_cast<double>(t_ns) * 1e-9, c.rng);
    const std::uint64_t next = to_ns(next_s);
    if (!std::isfinite(next_s) || next >= end_ns) {
      c.arrivals_live = false;
      return;
    }
    schedule(next, EventKind::Arrival, ci);
  }

  void on_arrival(std::uint32_t ci, std::uint64_t t_ns) {
    Conn& c = conns[ci];
    if (c.state != ConnState::Open) return;
    if (c.behavior == Behavior::PartialReset && c.normal_left == 0) {
      // The stub: a partial frame that will never complete, followed by
      // a client reset. The bytes count as sent, never as framed.
      ++report.requests_sent;
      note_activity(c, t_ns);
      c.arrivals_live = false;
      ++pending_work;
      schedule(t_ns + to_ns(options.partial_reset_after_s), EventKind::Reset,
               ci);
      return;
    }
    send_request(ci, t_ns);
    if (c.behavior == Behavior::PartialReset) --c.normal_left;
    schedule_next_arrival(ci, t_ns);
  }

  void on_frame(std::uint32_t ci, std::uint64_t t_ns) {
    Conn& c = conns[ci];
    --pending_work;
    const std::string* line = c.dripping.front();
    c.dripping.pop_front();
    if (c.state != ConnState::Open) return;  // died mid-drip
    frame_request(ci, line, t_ns);
  }

  void on_reset(std::uint32_t ci, std::uint64_t t_ns) {
    Conn& c = conns[ci];
    --pending_work;
    if (c.state != ConnState::Open) return;
    c.state = ConnState::Reset;
    ++report.reset_by_client;
    --open_count;
    (void)t_ns;
  }

  void on_idle_check(std::uint32_t ci, std::uint64_t t_ns) {
    Conn& c = conns[ci];
    c.idle_armed = false;
    if (c.state != ConnState::Open || options.idle_timeout_ms <= 0) return;
    const std::uint64_t timeout = to_ns(options.idle_timeout_ms * 1e-3);
    if (c.owed.empty() && c.dripping.empty() &&
        t_ns >= c.last_activity_ns + timeout) {
      c.state = ConnState::IdleClosed;
      ++report.idle_closed;
      --open_count;
      return;
    }
    // Activity (or in-flight work) since arming: probe again at the
    // earliest instant the connection could have gone stale.
    if (c.owed.empty() && c.dripping.empty()) arm_idle(ci, t_ns);
  }

  void on_shard_done(std::uint32_t si, std::uint64_t t_ns) {
    Shard& s = shards[si];
    const Ticket done = *s.serving;
    s.serving.reset();
    complete(done, ReplyKind::Executed, t_ns);
    run_shard(si, t_ns);
  }

  void on_heavy_done(std::uint32_t w, std::uint64_t t_ns) {
    const Ticket done = *heavy[w];
    heavy[w].reset();
    complete(done, ReplyKind::Executed, t_ns);
    run_heavy(t_ns);
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
      Conn& c = conns[i];
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
      c.spec = options.arrivals;
      // Stagger trace cursors one GOP apart, like the loadgen.
      c.trace_at = static_cast<std::size_t>(i) * 13;
      const std::uint64_t open_at =
          ramp > 0.0 ? to_ns(assign_rng.uniform(0.0, ramp)) : 0;
      schedule(open_at, EventKind::Open, i);
    }

    while (!heap.empty()) {
      const Event ev = heap.top();
      heap.pop();
      // Arrival generation has a hard horizon at end_ns; past it the
      // loop only drains — and once nothing is in flight, every
      // remaining event is a stale probe.
      if (ev.t_ns >= end_ns && pending_work == 0 && !arrivals_pending())
        break;
      now_ns = std::max(now_ns, ev.t_ns);
      ++report.events_processed;
      switch (ev.kind) {
        case EventKind::Open: on_open(ev.a, ev.t_ns); break;
        case EventKind::Arrival: on_arrival(ev.a, ev.t_ns); break;
        case EventKind::Frame: on_frame(ev.a, ev.t_ns); break;
        case EventKind::Reset: on_reset(ev.a, ev.t_ns); break;
        case EventKind::IdleCheck: on_idle_check(ev.a, ev.t_ns); break;
        case EventKind::ShardDone: on_shard_done(ev.a, ev.t_ns); break;
        case EventKind::HeavyDone: on_heavy_done(ev.a, ev.t_ns); break;
      }
    }

    // Shutdown: every connection still open closes cleanly.
    for (Conn& c : conns) {
      if (c.state == ConnState::Open) {
        c.state = ConnState::ClosedClean;
        ++report.closed_clean;
        --open_count;
      }
    }

    finalize();
    return report;
  }

  [[nodiscard]] bool arrivals_pending() const {
    for (const Conn& c : conns)
      if (c.arrivals_live) return true;
    return false;
  }

  void finalize() {
    report.seed = options.seed;
    report.virtual_seconds = options.virtual_seconds;
    report.drained_at_s =
        std::max(static_cast<double>(now_ns) * 1e-9, options.virtual_seconds);

    std::vector<std::uint64_t> all;
    for (std::uint32_t id = 0; id < latencies.size(); ++id) {
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
    report.drain_clean = metrics.queue_depth == 0 && pending_work == 0 &&
                         report.dropped_replies == 0;
    const std::uint64_t terminal = report.closed_clean +
                                   report.reset_by_client +
                                   report.idle_closed;
    report.connections_accounted =
        report.connections_opened + report.connections_refused ==
            static_cast<std::uint64_t>(options.connections) &&
        terminal == report.connections_opened && open_count == 0;
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
