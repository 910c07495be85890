// The serving workloads: hot-replay (closed loop, cache hits) and
// cold-open (open-loop Poisson ladder, unique light requests). Every run
// starts fresh archline_serverd processes with fixed flags; latency comes
// from the generator's own clocks, counters from "stats".

#include "serving.hpp"

#include <unistd.h>

#include <deque>
#include <memory>

#include "fit/online/snapshot.hpp"
#include "loadgen.hpp"
#include "microbench/parallel.hpp"
#include "serve/protocol.hpp"
#include "server_proc.hpp"

namespace perfbench {
namespace {

using vocab::Kind;
namespace serve = archline::serve;

std::string reference_reply(std::string_view line,
                            archline::fit::online::OnlineStore& store) {
  serve::Reply r;
  serve::handle_line(line, {}, r, &store);
  return r.body;
}

std::vector<std::string> texts(const std::vector<vocab::Line>& lines) {
  std::vector<std::string> t;
  for (const auto& l : lines) t.push_back(l.text);
  return t;
}

double num_at(const Json& j, std::initializer_list<std::string_view> path) {
  const Json* at = &j;
  for (std::string_view key : path)
    if (!(at = at->find(key))) return 0.0;
  return at->is_number() ? at->as_number() : 0.0;
}

ServerStats read_stats(std::uint16_t port) {
  const int fd = connect_tcp(port);
  const std::string body = request_once(fd, R"({"type":"stats"})");
  ::close(fd);
  const Json j = Json::parse(body);
  ServerStats s;
  s.overloaded = num_at(j, {"rejected_overload"});
  s.deadline_exceeded = num_at(j, {"deadline_exceeded"});
  s.light_peak = num_at(j, {"lanes", "light", "peak"});
  s.heavy_peak = num_at(j, {"lanes", "heavy", "peak"});
  s.hits = num_at(j, {"cache", "hits"});
  s.misses = num_at(j, {"cache", "misses"});
  s.stale = num_at(j, {"cache", "stale"});
  s.generation = num_at(j, {"online", "generation"});
  if (const Json* conns = j.find("connections"))
    if (const Json* shards = conns->find("shards"))
      for (const Json& row : shards->as_array()) {
        s.shard_requests.push_back(row.number_or("requests", 0));
        s.shard_inline.push_back(row.number_or("cached_inline", 0));
      }
  return s;
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

void expect(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

/// Keeps one (line, reply) pair in `every` for a replay check after the
/// run against an in-process handle_line.
class ReplySampler {
 public:
  explicit ReplySampler(std::uint32_t every) : every_(every) {}

  void sent(std::uint32_t tag, Kind kind, std::string_view line) {
    if (tag % every_ == 0 && samples_.size() + pending_.size() < kCap)
      pending_.push_back({tag, {kind, std::string(line)}});
  }
  void replied(std::uint32_t tag, std::string_view reply) {
    while (!pending_.empty() && pending_.front().first < tag) pending_.pop_front();
    if (pending_.empty() || pending_.front().first != tag) return;
    samples_.push_back({std::move(pending_.front().second), std::string(reply)});
    pending_.pop_front();
  }
  /// Replays every kept line in-process; returns the mismatch count.
  std::size_t verify(std::string* first_wrong) const {
    archline::fit::online::OnlineStore store;
    std::size_t wrong = 0;
    for (const auto& [line, reply] : samples_)
      if (reference_reply(line.text, store) != reply && wrong++ == 0 && first_wrong)
        *first_wrong = reply.substr(0, 400);
    return wrong;
  }
 private:
  static constexpr std::size_t kCap = 4000;
  std::uint32_t every_;
  std::deque<std::pair<std::uint32_t, vocab::Line>> pending_;
  std::vector<std::pair<vocab::Line, std::string>> samples_;
};

// ---- Streams ---------------------------------------------------------------

class HotStream final : public Stream {
 public:
  HotStream(const std::vector<vocab::Line>& keys, const std::vector<std::string>& ref,
            const vocab::Zipf& zipf, vocab::Rng rng)
      : keys_(keys), ref_(ref), zipf_(zipf), rng_(rng) {}
  Kind next(std::string& out, std::uint32_t& tag) override {
    const std::size_t k = zipf_.draw(rng_);
    out += keys_[k].text;
    tag = static_cast<std::uint32_t>(k);
    return keys_[k].kind;
  }
  bool check(std::string_view reply, Kind, std::uint32_t tag) override {
    return reply == ref_[tag];
  }

 private:
  const std::vector<vocab::Line>& keys_;
  const std::vector<std::string>& ref_;
  const vocab::Zipf& zipf_;
  vocab::Rng rng_;
};

class ColdStream final : public Stream {
 public:
  ColdStream(vocab::Rng rng, std::uint64_t id_base, std::uint32_t check_every)
      : rng_(rng), id_base_(id_base), sampler_(check_every) {}
  Kind next(std::string& out, std::uint32_t& tag) override {
    tag = seq_++;
    const std::size_t from = out.size();
    const Kind k = vocab::cold_line(rng_, id_base_ + tag, out);
    sampler_.sent(tag, k, std::string_view(out).substr(from));
    return k;
  }
  bool check(std::string_view reply, Kind, std::uint32_t tag) override {
    sampler_.replied(tag, reply);
    return true;
  }
  const ReplySampler& sampler() const { return sampler_; }

 private:
  vocab::Rng rng_;
  std::uint64_t id_base_;
  std::uint32_t seq_ = 0;
  ReplySampler sampler_;
};

/// Cycles through light reference lines (paper-fit's serve probe).
class ReferenceStream final : public Stream {
 public:
  explicit ReferenceStream(std::vector<vocab::Line> lines) : lines_(std::move(lines)) {}
  Kind next(std::string& out, std::uint32_t& tag) override {
    tag = static_cast<std::uint32_t>(i_++ % lines_.size());
    out += lines_[tag].text;
    return lines_[tag].kind;
  }
  bool check(std::string_view, Kind, std::uint32_t) override { return true; }

 private:
  std::vector<vocab::Line> lines_;
  std::size_t i_ = 0;
};

// ---- Workloads -------------------------------------------------------------

struct Launch {
  std::unique_ptr<ServerProcess> proc;
  std::vector<int> fds;
  Launch() = default;
  Launch(Launch&&) = default;
  Launch& operator=(Launch&& o) noexcept {
    close_fds();
    proc = std::move(o.proc);
    fds = std::move(o.fds);
    return *this;
  }
  ~Launch() { close_fds(); }
  void close_fds() {
    for (int fd : fds) ::close(fd);
    fds.clear();
  }
};

Json phase_json(std::string_view name, const PhaseResult& r) {
  Json j = Json::object();
  j.set("phase", name);
  j.set("sent", r.sent);
  j.set("succeeded", r.ok);
  j.set("failed", r.failed);
  Json errors = Json::object();
  for (const auto& [code, n] : r.errors) errors.set(code, n);
  j.set("errors", std::move(errors));
  return j;
}

/// Per-kind latency (p50, p99, samples) of one phase.
Json by_kind_json(const PhaseResult& r) {
  Json out = Json::object();
  for (int k = 0; k < vocab::kKindCount; ++k) {
    const auto& v = r.latency_us[static_cast<std::size_t>(k)];
    if (v.empty()) continue;
    Json row = Json::object();
    row.set("p50_us", quantile(v, 0.5));
    row.set("p99_us", quantile(v, 0.99));
    row.set("samples", static_cast<std::uint64_t>(v.size()));
    out.set(vocab::kind_name(static_cast<Kind>(k)), std::move(row));
  }
  return out;
}

class Workload {
 public:
  explicit Workload(const Context& ctx) : ctx_(ctx) {}
  virtual ~Workload() = default;

  [[nodiscard]] virtual bool cached() const { return false; }
  /// Warm-up on fresh connections; throws CheckFailed on a wrong reply.
  virtual void warm(const std::vector<int>& fds) = 0;
  /// The first correct reply after warm-up ends set-up.
  virtual void probe(int fd) = 0;
  [[nodiscard]] virtual std::vector<std::unique_ptr<Stream>> streams() = 0;
  /// The measured phase; `seconds` is its share of the run. The untraced
  /// run cuts it into windows over fresh servers; the traced run replays
  /// it twice on one server (untraced, then traced).
  virtual PhaseOptions measured_phase() const = 0;
  /// Runs on the last server with the run's remaining seconds (cold-open's
  /// ladder).
  virtual void after_windows(const std::vector<int>&, std::vector<std::unique_ptr<Stream>>&,
                             double /*seconds*/, Json&, PhaseResult&) {}
  /// Post-run replay checks; returns mismatches.
  virtual std::size_t verify(const std::vector<std::unique_ptr<Stream>>&, std::string*) {
    return 0;
  }

  [[nodiscard]] std::vector<std::string> flags() const {
    std::vector<std::string> out;
    const Json& f = ctx_.section("server_flags");
    for (std::string_view key : {std::string_view("common"), std::string_view(ctx_.workload)})
      if (const Json* a = f.find(key))
        for (const Json& v : a->as_array()) out.emplace_back(v.as_string_view());
    return out;
  }
  [[nodiscard]] std::size_t conns() const {
    return static_cast<std::size_t>(ctx_.number("generator", "connections"));
  }
  [[nodiscard]] PhaseOptions base_phase() const {
    PhaseOptions o;
    o.threads = std::min(static_cast<int>(ctx_.number("generator", "threads")),
                         std::max(1, static_cast<int>(ctx_.generator_cpus.size())));
    o.cpus = ctx_.generator_cpus;
    return o;
  }

  Launch launch() {
    Launch l;
    l.proc = std::make_unique<ServerProcess>(ctx_.server, flags(), ctx_.server_cpus);
    for (std::size_t i = 0; i < conns(); ++i) l.fds.push_back(connect_tcp(l.proc->port()));
    warm(l.fds);
    probe(l.fds[0]);
    return l;
  }

 protected:
  const Context& ctx_;
};

class HotReplay final : public Workload {
 public:
  explicit HotReplay(const Context& ctx)
      : Workload(ctx),
        keys_(vocab::hot_keys(ctx.seed,
                              static_cast<std::size_t>(ctx.number("hot-replay", "keys")))),
        zipf_(keys_.size(), ctx.number("hot-replay", "zipf_s")) {
    archline::fit::online::OnlineStore store;
    for (const auto& k : keys_) ref_.push_back(reference_reply(k.text, store));
  }
  bool cached() const override { return true; }
  void warm(const std::vector<int>& fds) override {
    const auto lines = texts(keys_);
    for (int fd : fds) {
      const auto replies = request_batch(fd, lines);
      for (std::size_t i = 0; i < replies.size(); ++i)
        expect(replies[i] == ref_[i], "hot-replay warm-up reply differs: " + replies[i]);
    }
  }
  void probe(int fd) override {
    expect(request_once(fd, keys_[0].text) == ref_[0], "hot-replay probe reply differs");
  }
  std::vector<std::unique_ptr<Stream>> streams() override {
    std::vector<std::unique_ptr<Stream>> s;
    for (std::size_t c = 0; c < conns(); ++c)
      s.push_back(std::make_unique<HotStream>(keys_, ref_, zipf_,
                                              vocab::stream(ctx_.seed, 10, c)));
    return s;
  }
  PhaseOptions measured_phase() const override {
    PhaseOptions o = base_phase();
    o.window = static_cast<int>(ctx_.number("hot-replay", "window"));
    o.record_every = static_cast<int>(ctx_.number("hot-replay", "record_every"));
    o.seconds = ctx_.seconds;
    return o;
  }

 private:
  std::vector<vocab::Line> keys_;
  std::vector<std::string> ref_;
  vocab::Zipf zipf_;
};

class ColdOpen final : public Workload {
 public:
  using Workload::Workload;
  /// A few lines from a warm-up stream per connection, each checked
  /// in-process.
  void warm(const std::vector<int>& fds) override {
    const auto per_conn = static_cast<std::size_t>(ctx_.number("cold-open", "warm_lines"));
    archline::fit::online::OnlineStore store;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      vocab::Rng rng = vocab::stream(ctx_.seed, 40, c);
      std::vector<std::string> lines;
      for (std::size_t i = 0; i < per_conn; ++i) {
        std::string line;
        vocab::cold_line(rng, (std::uint64_t{c + 1} << 44) + i, line);
        lines.push_back(std::move(line));
      }
      const auto replies = request_batch(fds[c], lines);
      for (std::size_t i = 0; i < lines.size(); ++i)
        expect(replies[i] == reference_reply(lines[i], store),
               "warm-up reply differs: " + replies[i]);
    }
  }
  void probe(int fd) override {
    const vocab::Line line = vocab::reference_lines(ctx_.seed)[vocab::kPredict];
    archline::fit::online::OnlineStore store;
    expect(request_once(fd, line.text) == reference_reply(line.text, store),
           "cold-open probe reply differs");
  }
  std::vector<std::unique_ptr<Stream>> streams() override {
    std::vector<std::unique_ptr<Stream>> s;
    const auto every = static_cast<std::uint32_t>(ctx_.number("cold-open", "check_every"));
    for (std::size_t c = 0; c < conns(); ++c)
      s.push_back(std::make_unique<ColdStream>(vocab::stream(ctx_.seed, 20, c),
                                               std::uint64_t{c + 1} << 40, every));
    return s;
  }
  PhaseOptions measured_phase() const override {
    PhaseOptions o = base_phase();
    o.open_loop = true;
    o.rate = ctx_.number("cold-open", "reference_rate");
    o.seconds = ctx_.seconds * ctx_.number("cold-open", "reference_share");
    o.arrival_seed = ctx_.seed;
    return o;
  }
  void after_windows(const std::vector<int>& fds, std::vector<std::unique_ptr<Stream>>& s,
                     double seconds, Json& report, PhaseResult& total) override {
    const double limit_us = ctx_.number("cold-open", "p99_limit_us");
    double max_rate = 0;
    report.set("reference_rate_rps", measured_phase().rate);
    // The ladder: climb until a step misses the p99 limit or backs up.
    Json ladder = Json::array();
    const std::int64_t budget_end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    const double step_s = ctx_.number("cold-open", "step_seconds");
    const int sub_steps = static_cast<int>(ctx_.number("cold-open", "sub_steps"));
    std::uint64_t step = 0;
    int misses_in_row = 0;
    for (const Json& rate : ctx_.section("cold-open").find("ladder")->as_array()) {
      if (now_ns() + static_cast<std::int64_t>(step_s * 1e9) > budget_end) {
        report.set("ladder_truncated", true);
        break;
      }
      // A step is a few short sub-steps; its p99 is their median, so one
      // burst of machine noise does not end the climb.
      PhaseOptions o = base_phase();
      o.open_loop = true;
      o.rate = rate.as_number();
      o.seconds = step_s / sub_steps;
      PhaseResult sr;
      std::vector<double> sub_p99;
      std::uint64_t backlog = 0;
      for (int sub = 0; sub < sub_steps; ++sub) {
        o.arrival_seed = ctx_.seed + 1000 * ++step;
        PhaseResult r = run_phase(fds, s, o);
        sub_p99.push_back(quantile(r.all_latencies(), 0.99));
        backlog = std::max(backlog, r.backlog);
        sr.merge(std::move(r));
      }
      sr.elapsed_s = step_s;
      const auto sl = sr.all_latencies();
      const double p99 = median(sub_p99);
      const double backlog_limit = std::max(64.0, o.rate * limit_us * 1e-6);
      const bool pass = p99 <= limit_us && static_cast<double>(backlog) <= backlog_limit;
      const double achieved = static_cast<double>(sr.ok) / sr.elapsed_s;
      Json row = Json::object();
      row.set("offered_rps", o.rate);
      row.set("achieved_rps", achieved);
      row.set("sent", sr.sent);
      row.set("succeeded", sr.ok);
      row.set("failed", sr.failed);
      row.set("p50_us", quantile(sl, 0.5));
      row.set("p99_us", p99);
      row.set("samples", static_cast<std::uint64_t>(sl.size()));
      row.set("backlog", backlog);
      row.set("lag_p99_us", quantile(sr.lag_us, 0.99));
      row.set("meets_limit", pass);
      ladder.push_back(std::move(row));
      total.merge(std::move(sr));
      // One step can miss on a scheduler hiccup; two in a row is the knee.
      if (pass) {
        misses_in_row = 0;
        max_rate = achieved;
      } else if (++misses_in_row == 2) {
        break;
      }
    }
    report.set("p99_limit_us", limit_us);
    report.set("max_rate_rps", max_rate);
    report.set("ladder", std::move(ladder));
  }
  std::size_t verify(const std::vector<std::unique_ptr<Stream>>& s,
                     std::string* first_wrong) override {
    std::size_t wrong = 0;
    for (const auto& st : s)
      wrong += static_cast<const ColdStream&>(*st).sampler().verify(first_wrong);
    return wrong;
  }
};

std::unique_ptr<Workload> make_workload(const Context& ctx) {
  if (ctx.workload == "hot-replay") return std::make_unique<HotReplay>(ctx);
  if (ctx.workload == "cold-open") return std::make_unique<ColdOpen>(ctx);
  throw std::runtime_error("unknown workload " + ctx.workload);
}

void finish(RunOutput& out, const PhaseResult& total) {
  out.attempted = total.sent;
  out.failed = total.failed;
  if (total.wrong > 0) {
    out.correct = false;
    out.report.set("wrong_replies", total.wrong);
    out.report.set("first_wrong_reply", total.first_wrong);
  }
  out.report.set("fail_share", share(static_cast<double>(total.failed),
                                     static_cast<double>(total.sent)));
}

/// Which quartile over windows a serving run reports: the first for
/// latency, the third for closed-loop throughput. Other guests on the
/// host slow the program in stretches that have covered up to half the
/// windows of a run; the quieter windows still carry its own speed.
constexpr double kQuietQuartile = 0.25;

/// The untraced run: `replicas` copies of the measured phase, each on a
/// fresh server with fresh streams, each cut into short windows, so
/// neither one server's thread placement nor one slow stretch of the
/// host decides a figure (kQuietQuartile). An open loop's throughput is
/// what it delivered over all windows at its fixed offered rate. The p99
/// is pooled over all windows and only reported: on a shared host it
/// does not repeat.
RunOutput run_untraced(const Context& ctx, Workload& w) {
  RunOutput out;
  const int replicas = static_cast<int>(ctx.number("generator", "replicas"));
  const int windows = static_cast<int>(ctx.number("generator", "windows_per_replica"));
  PhaseOptions o = w.measured_phase();
  const double rest_s = ctx.seconds - o.seconds;
  o.seconds /= replicas * windows;
  std::vector<double> setups, rss, rps, p50, p99, replica_p99;
  double ok = 0, elapsed_s = 0;
  PhaseResult total, measured;
  Json phases = Json::array();
  std::string first_wrong;
  std::size_t mismatches = 0;
  for (int i = 0; i < replicas; ++i) {
    const std::int64_t t0 = now_ns();
    Launch live = w.launch();
    setups.push_back(seconds_between(t0, now_ns()));
    auto streams = w.streams();
    // A short unmeasured stretch first: the first fraction of a second
    // after launch runs measurably slower (cold caches, first faults).
    PhaseOptions settle = o;
    settle.seconds = ctx.number("generator", "settle_seconds");
    PhaseResult settled = run_phase(live.fds, streams, settle);
    phases.push_back(phase_json("settle", settled));
    total.merge(std::move(settled));
    PhaseResult replica;
    for (int j = 0; j < windows; ++j) {
      o.arrival_seed = ctx.seed + static_cast<std::uint64_t>(j);
      PhaseResult r = run_phase(live.fds, streams, o);
      const auto lat = r.all_latencies();
      p50.push_back(quantile(lat, 0.5));
      p99.push_back(quantile(lat, 0.99));
      rps.push_back(static_cast<double>(r.ok) / r.elapsed_s);
      ok += static_cast<double>(r.ok);
      elapsed_s += r.elapsed_s;
      replica.merge(std::move(r));
    }
    rss.push_back(live.proc->peak_rss_mib());
    replica_p99.push_back(quantile(replica.all_latencies(), 0.99));
    phases.push_back(phase_json("measured", replica));
    measured.merge(std::move(replica));
    if (i + 1 == replicas) {
      const ServerStats st = read_stats(live.proc->port());
      out.report.set("cache_hit_share", share(st.hits, st.hits + st.misses));
      w.after_windows(live.fds, streams, rest_s, out.report, total);
    }
    live = Launch{};
    mismatches += w.verify(streams, &first_wrong);
  }
  if (mismatches) {
    out.correct = false;
    out.report.set("replay_mismatches", static_cast<std::uint64_t>(mismatches));
    out.report.set("first_replay_mismatch", first_wrong);
  }
  out.report.set("window_seconds", o.seconds);
  out.report.set("window_throughput_rps", Json(Json::Array(rps.begin(), rps.end())));
  out.report.set("window_p50_us", Json(Json::Array(p50.begin(), p50.end())));
  out.report.set("window_p99_us", Json(Json::Array(p99.begin(), p99.end())));
  out.report.set("replica_peak_rss_mib", Json(Json::Array(rss.begin(), rss.end())));
  out.report.set("replica_p99_us",
                 Json(Json::Array(replica_p99.begin(), replica_p99.end())));
  out.report.set("setup_runs_s", Json(Json::Array(setups.begin(), setups.end())));
  const auto all = measured.all_latencies();
  out.report.set("latency_samples", static_cast<std::uint64_t>(all.size()));
  out.report.set("pooled_p50_us", quantile(all, 0.5));
  out.report.set("latency_p99_us", quantile(all, 0.99));
  out.report.set("lag_p99_us", quantile(measured.lag_us, 0.99));
  out.report.set("by_kind", by_kind_json(measured));
  out.report.set("phases", std::move(phases));
  total.merge(std::move(measured));
  finish(out, total);
  out.add("setup_s", median(setups), "s");
  out.add("throughput_rps", o.open_loop ? ok / elapsed_s : quantile(rps, 1 - kQuietQuartile),
          "req/s");
  out.add("latency_p50_us", quantile(p50, kQuietQuartile), "us");
  out.add("peak_rss_mb", median(rss), "MiB");
  return out;
}

RunOutput run_traced(const Context& ctx, Workload& w) {
  RunOutput out;
  std::vector<Span> spans;
  Launch live = w.launch();
  auto streams = w.streams();
  PhaseOptions o = w.measured_phase();
  o.seconds = ctx.seconds / 2;
  PhaseResult total;
  PhaseResult untraced = run_phase(live.fds, streams, o);
  const double p50_untraced = quantile(untraced.all_latencies(), 0.5);
  total.merge(std::move(untraced));

  const ServerStats before = read_stats(live.proc->port());
  o.trace_every = static_cast<int>(ctx.number("trace", "every"));
  o.trace_cap = static_cast<std::size_t>(ctx.number("trace", "spans_per_connection"));
  PhaseResult traced = run_phase(live.fds, streams, o);
  const ServerStats after = read_stats(live.proc->port());
  const double p50_traced = quantile(traced.all_latencies(), 0.5);
  for (const RequestSpan& s : traced.spans) {
    spans.push_back({"tcp.request.due", s.request_id, s.due_ns, s.done_ns, ""});
    spans.push_back({"tcp.request", s.request_id, s.sent_ns, s.done_ns, "tcp.request.due"});
  }
  ServeLayers layers;
  layers.cached = w.cached();
  layers.stats = after.since(before);
  layers.lag_p99_us = quantile(traced.lag_us, 0.99);
  total.merge(std::move(traced));

  // The census lines: the next lines of each connection's stream, each
  // sent alone for its round trip, then timed layer by layer in-process.
  std::vector<vocab::Line> lines;
  std::vector<std::uint64_t> ids;
  std::vector<double> rtt;
  const auto per_conn = static_cast<std::size_t>(ctx.number("trace", "census_lines")) /
                        live.fds.size();
  constexpr std::size_t kHeavyLines = 5;  // fits and refits cost milliseconds each
  std::size_t heavy = 0;
  for (std::size_t c = 0; c < live.fds.size(); ++c)
    for (std::size_t i = 0; i < per_conn; ++i) {
      vocab::Line line;
      std::uint32_t tag = 0;
      line.kind = streams[c]->next(line.text, tag);
      const bool is_heavy = line.kind == vocab::kFit || line.kind == vocab::kRefit;
      if (is_heavy && heavy++ >= kHeavyLines) continue;
      std::int64_t ns = 0;
      const std::int64_t t0 = now_ns();
      const std::string reply = request_once(live.fds[c], line.text, &ns);
      const std::uint64_t id = (std::uint64_t{c} << 40) | (1ULL << 39) | i;
      spans.push_back({"tcp.request", id, t0, t0 + ns, ""});
      ++total.sent;
      if (!reply.starts_with("{\"ok\":true")) ++total.failed;
      if (!streams[c]->check(reply, line.kind, tag)) ++total.wrong;
      if (!is_heavy) rtt.push_back(static_cast<double>(ns) * 1e-3);
      lines.push_back(std::move(line));
      ids.push_back(id);
    }
  live = Launch{};
  layers.rtt_us = median(rtt);
  layers.census = serve_census(lines, ids, vocab::reference_lines(ctx.seed), w.flags(),
                               w.cached(), spans);
  // One Table I campaign (the repository's checked seed) on a seeded
  // platform: the paper layers this workload never runs.
  const std::size_t platform = ctx.seed % vocab::platform_names().size();
  const PipelineCensus pipeline = pipeline_census(
      {{platform, archline::microbench::campaign_seed(
                      static_cast<std::uint64_t>(ctx.number("paper-fit", "table1_seed")),
                      std::string(vocab::platform_names()[platform]))}},
      spans);
  finish(out, total);
  const double coverage = share(serve_self_time_us(layers), p50_untraced);
  emit_layers(out, layers, pipeline, coverage, share(p50_traced, p50_untraced));
  out.report.set("latency_p50_untraced_us", p50_untraced);
  out.report.set("latency_p50_traced_us", p50_traced);
  const std::string path = ctx.out_dir + "/spans-" + ctx.workload + "-seed" +
                           std::to_string(ctx.seed) + ".jsonl";
  write_spans(path, spans);
  out.report.set("spans_file", path);
  out.report.set("spans", static_cast<std::uint64_t>(spans.size()));
  return out;
}

}  // namespace

ServerStats ServerStats::since(const ServerStats& b) const {
  ServerStats d = *this;
  d.overloaded -= b.overloaded;
  d.deadline_exceeded -= b.deadline_exceeded;
  d.hits -= b.hits;
  d.misses -= b.misses;
  d.stale -= b.stale;
  d.generation -= b.generation;
  for (std::size_t i = 0; i < d.shard_requests.size() && i < b.shard_requests.size(); ++i) {
    d.shard_requests[i] -= b.shard_requests[i];
    d.shard_inline[i] -= b.shard_inline[i];
  }
  return d;
}

double serve_self_time_us(const ServeLayers& s) {
  const ServeCensus& c = s.census;
  const auto pos = [](double v) { return std::max(0.0, v); };
  if (s.cached) return pos(s.rtt_us - c.handle_into_us) + c.handle_into_us;
  const double parse_us = c.parse_ns * 1e-3;
  return pos(s.rtt_us - c.submit_done_us) + pos(c.submit_done_us - c.handle_into_us) +
         pos(c.handle_into_us - c.handle_line_us) + pos(c.handle_line_us - parse_us) +
         parse_us;
}

void emit_layers(RunOutput& out, const ServeLayers& s, const PipelineCensus& p,
                 double coverage, double overhead) {
  const ServeCensus& c = s.census;
  const ServerStats& st = s.stats;
  double requests = 0, inline_hits = 0, most = 0;
  for (std::size_t i = 0; i < st.shard_requests.size(); ++i) {
    requests += st.shard_requests[i];
    inline_hits += st.shard_inline[i];
    most = std::max(most, st.shard_requests[i]);
  }
  const double mean =
      st.shard_requests.empty() ? 0 : requests / static_cast<double>(st.shard_requests.size());
  out.add("tcp.overhead_us", s.rtt_us - c.handle_into_us, "us");
  out.add("tcp.inline_hit_share", share(inline_hits, requests), "ratio");
  out.add("tcp.shard_skew", share(most, mean), "ratio");
  out.add("queue.handoff_us", c.submit_done_us - c.handle_into_us, "us");
  out.add("queue.light_peak", st.light_peak, "count");
  out.add("queue.heavy_peak", st.heavy_peak, "count");
  out.add("queue.overloaded", st.overloaded, "count");
  out.add("queue.deadline_exceeded", st.deadline_exceeded, "count");
  out.add("cache.hit_share", share(st.hits, st.hits + st.misses), "ratio");
  out.add("cache.stale_share", share(st.stale, st.misses), "ratio");
  out.add("cache.probe_ns", c.cache_probe_ns, "ns");
  out.add("json.parse_ns", c.parse_ns, "ns");
  out.add("json.line_bytes", c.line_bytes, "bytes");
  out.add("protocol.classify_ns", c.classify_ns, "ns");
  for (int k = 0; k < vocab::kKindCount; ++k)
    out.add(std::string("protocol.handle_us.") + vocab::kind_name(static_cast<Kind>(k)),
            c.handle_us_by_kind[static_cast<std::size_t>(k)], "us");
  out.add("core.predict_ns_per_element", c.predict_ns_per_element, "ns");
  out.add("core.policy_advise_us", c.policy_advise_us, "us");
  out.add("online.observe_ns_per_tuple", c.observe_ns_per_tuple, "ns");
  out.add("online.resolve_ms", c.resolve_ms, "ms");
  out.add("online.publishes", st.generation, "count");
  out.add("fit.fit_ms", p.fit_ms, "ms");
  out.add("fit.converged_share", p.converged_share, "ratio");
  out.add("microbench.suite_ms", p.suite_ms, "ms");
  out.add("sim.run_ns", p.sim_run_ns, "ns");
  out.add("powermon.sample_ms", p.sample_ms, "ms");
  out.add("gen.lag_p99_us", s.lag_p99_us, "us");
  out.add("trace.coverage", coverage, "ratio");
  out.add("trace.overhead", overhead, "ratio");
}

ServeLayers reference_serve_layers(const Context& ctx, std::vector<Span>& spans) {
  std::vector<std::string> flags;
  for (const Json& v : ctx.section("server_flags").find("common")->as_array())
    flags.emplace_back(v.as_string_view());
  ServerProcess proc(ctx.server, flags, ctx.server_cpus);
  const int fd = connect_tcp(proc.port());
  const auto reference = vocab::reference_lines(ctx.seed);
  std::vector<vocab::Line> light;
  for (const auto& l : reference)
    if (l.kind != vocab::kFit && l.kind != vocab::kRefit) light.push_back(l);

  ServeLayers layers;
  const ServerStats before = read_stats(proc.port());
  std::vector<std::unique_ptr<Stream>> streams;
  streams.push_back(std::make_unique<ReferenceStream>(light));
  PhaseOptions o;
  o.threads = 1;
  o.cpus = ctx.generator_cpus;
  o.open_loop = true;
  o.rate = ctx.number("cold-open", "reference_rate");
  o.seconds = ctx.number("trace", "reference_probe_seconds");
  o.arrival_seed = ctx.seed;
  const int fds[] = {fd};
  const PhaseResult r = run_phase(fds, streams, o);
  layers.lag_p99_us = quantile(r.lag_us, 0.99);
  std::vector<double> rtt;
  std::vector<std::uint64_t> ids;
  for (std::size_t round = 0; round < 20; ++round)
    for (std::size_t i = 0; i < reference.size(); ++i) {
      std::int64_t ns = 0;
      const std::int64_t t0 = now_ns();
      (void)request_once(fd, reference[i].text, &ns);
      spans.push_back({"tcp.request", round << 8 | i, t0, t0 + ns, ""});
      if (reference[i].kind != vocab::kFit && reference[i].kind != vocab::kRefit)
        rtt.push_back(static_cast<double>(ns) * 1e-3);
    }
  layers.stats = read_stats(proc.port()).since(before);
  ::close(fd);
  proc.stop();
  for (std::size_t i = 0; i < reference.size(); ++i) ids.push_back(i);
  layers.rtt_us = median(rtt);
  layers.census = serve_census(reference, ids, reference, flags, false, spans);
  return layers;
}

RunOutput run_serving(const Context& ctx) {
  const auto w = make_workload(ctx);
  RunOutput out = ctx.trace ? run_traced(ctx, *w) : run_untraced(ctx, *w);
  Json flags = Json::array();
  for (const auto& f : w->flags()) flags.push_back(f);
  out.report.set("server_flags", std::move(flags));
  return out;
}

}  // namespace perfbench
