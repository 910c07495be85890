#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "server_proc.hpp"

namespace perfbench {
namespace {

constexpr float kFailed = std::numeric_limits<float>::infinity();
/// How long a phase waits for stragglers before counting them unanswered.
constexpr std::int64_t kDrainNs = 10'000'000'000;

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

/// Reads until `buffer` holds a full line; returns it (without '\n').
std::string read_line(int fd, std::string& buffer) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return line;
    }
    char buf[65536];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed");
    buffer.append(buf, static_cast<std::size_t>(n));
  }
}

std::string error_code(std::string_view reply) {
  static constexpr std::string_view kKey = "\"error\":\"";
  const std::size_t at = reply.find(kKey);
  if (at == std::string_view::npos) return "unknown";
  const std::size_t begin = at + kKey.size();
  const std::size_t end = reply.find('"', begin);
  return std::string(reply.substr(begin, end - begin));
}

struct InFlight {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::uint64_t end_offset = 0;  ///< stream offset just past this line
  std::uint64_t seq = 0;
  std::uint32_t tag = 0;
  vocab::Kind kind = vocab::kPredict;
  std::int32_t span = -1;  ///< index into the thread's spans, or -1
};

struct Conn {
  int fd = -1;
  std::uint64_t index = 0;
  Stream* stream = nullptr;
  vocab::Rng arrivals{0};
  double rate = 0.0;  ///< open loop: this connection's req/s
  std::int64_t next_due = 0;
  std::string out;
  std::size_t out_off = 0;
  std::uint64_t queued = 0, sent_bytes = 0;
  std::deque<InFlight> inflight;
  std::size_t unsent = 0;  ///< first inflight entry not fully written
  std::string in;
  std::uint64_t seq = 0;
  std::size_t spans = 0;
  bool dead = false;
};

class Worker {
 public:
  Worker(const PhaseOptions& o, std::vector<Conn*> conns)
      : opt_(o), conns_(std::move(conns)) {}

  void run() {
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(opt_.seconds * 1e9);
    for (Conn* c : conns_) {
      c->rate = opt_.open_loop ? opt_.rate / static_cast<double>(total_conns_) : 0.0;
      c->next_due = start + interarrival(*c);
    }
    bool sending = true;
    for (;;) {
      const std::int64_t now = now_ns();
      if (sending && now >= end) {
        sending = false;
        for (Conn* c : conns_) result_.backlog += c->inflight.size();
      }
      bool busy = false;
      for (Conn* c : conns_) {
        if (c->dead) continue;
        if (sending) generate(*c, now);
        if (c->out_off < c->out.size()) flush(*c, now_ns());
        receive(*c);
        busy |= !c->inflight.empty();
      }
      if (!sending && (!busy || now_ns() > end + kDrainNs)) break;
    }
    for (Conn* c : conns_) abandon(*c);
    result_.elapsed_s = seconds_between(start, std::min(now_ns(), end));
  }

  void set_total_conns(std::size_t n) { total_conns_ = n; }
  PhaseResult& result() { return result_; }

 private:
  static std::int64_t interarrival(Conn& c) {
    return c.rate > 0.0 ? static_cast<std::int64_t>(c.arrivals.exponential(c.rate) * 1e9)
                        : 0;
  }

  void enqueue(Conn& c, std::int64_t due) {
    InFlight f;
    f.due_ns = due;
    f.seq = c.seq++;
    const std::size_t before = c.out.size();
    f.kind = c.stream->next(c.out, f.tag);
    if (opt_.trace_every > 0 && f.seq % static_cast<std::uint64_t>(opt_.trace_every) == 0 &&
        c.spans < opt_.trace_cap) {
      ++c.spans;
      f.span = static_cast<std::int32_t>(result_.spans.size());
      RequestSpan s;
      s.request_id = c.index << 40 | f.seq;
      s.due_ns = due;
      result_.spans.push_back(std::move(s));
    }
    c.out += '\n';
    c.queued += c.out.size() - before;
    f.end_offset = c.queued;
    c.inflight.push_back(f);
    ++result_.sent;
  }

  void generate(Conn& c, std::int64_t now) {
    if (opt_.open_loop) {
      while (c.rate > 0.0 && c.next_due <= now) {
        enqueue(c, c.next_due);
        c.next_due += interarrival(c);
      }
    } else {
      while (c.inflight.size() < static_cast<std::size_t>(opt_.window))
        enqueue(c, now);
    }
  }

  void flush(Conn& c, std::int64_t now) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) c.dead = true;
      return;
    }
    c.out_off += static_cast<std::size_t>(n);
    c.sent_bytes += static_cast<std::uint64_t>(n);
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    while (c.unsent < c.inflight.size() &&
           c.inflight[c.unsent].end_offset <= c.sent_bytes) {
      InFlight& f = c.inflight[c.unsent++];
      f.sent_ns = now;
      if (f.seq % static_cast<std::uint64_t>(opt_.record_every) == 0)
        result_.lag_us.push_back(static_cast<float>((now - f.due_ns) * 1e-3));
      if (f.span >= 0) result_.spans[static_cast<std::size_t>(f.span)].sent_ns = now;
    }
  }

  void receive(Conn& c) {
    char buf[65536];
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      c.dead = true;
      return;
    }
    if (n < 0) return;
    const std::int64_t now = now_ns();
    c.in.append(buf, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    for (std::size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos; pos = nl + 1) {
      const std::string_view reply(c.in.data() + pos, nl - pos);
      if (c.inflight.empty()) {
        note_wrong(reply);
        continue;
      }
      const InFlight f = c.inflight.front();
      c.inflight.pop_front();
      if (c.unsent > 0) --c.unsent;
      complete(c, f, reply, now);
    }
    c.in.erase(0, pos);
  }

  void complete(Conn& c, const InFlight& f, std::string_view reply, std::int64_t now) {
    const bool ok = reply.starts_with("{\"ok\":true");
    auto& lat = result_.latency_us[f.kind];
    if (ok) {
      ++result_.ok;
      if (f.seq % static_cast<std::uint64_t>(opt_.record_every) == 0)
        lat.push_back(static_cast<float>((now - f.due_ns) * 1e-3));
    } else {
      ++result_.failed;
      ++result_.errors[error_code(reply)];
      lat.push_back(kFailed);
    }
    if (!c.stream->check(reply, f.kind, f.tag)) note_wrong(reply);
    if (f.span >= 0) result_.spans[static_cast<std::size_t>(f.span)].done_ns = now;
  }

  void note_wrong(std::string_view reply) {
    if (result_.wrong++ == 0) result_.first_wrong = std::string(reply.substr(0, 400));
  }

  /// Requests that never got a reply count as failed (and as +inf).
  void abandon(Conn& c) {
    for (const InFlight& f : c.inflight) {
      ++result_.failed;
      ++result_.errors["unanswered"];
      result_.latency_us[f.kind].push_back(kFailed);
    }
    c.inflight.clear();
    c.unsent = 0;
    c.out.clear();
    c.out_off = 0;
    c.in.clear();
    c.queued = c.sent_bytes = 0;
  }

  const PhaseOptions& opt_;
  std::vector<Conn*> conns_;
  std::size_t total_conns_ = 1;
  PhaseResult result_;
};

}  // namespace

int connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::vector<std::string> request_batch(int fd, std::span<const std::string> lines,
                                  std::size_t chunk) {
  std::vector<std::string> replies;
  replies.reserve(lines.size());
  std::string buffer, batch;
  for (std::size_t i = 0; i < lines.size(); i += chunk) {
    const std::size_t end = std::min(lines.size(), i + chunk);
    batch.clear();
    for (std::size_t j = i; j < end; ++j) (batch += lines[j]) += '\n';
    send_all(fd, batch);
    for (std::size_t j = i; j < end; ++j) replies.push_back(read_line(fd, buffer));
  }
  return replies;
}

std::string request_once(int fd, std::string_view line, std::int64_t* rtt_ns) {
  std::string msg(line);
  msg += '\n';
  std::string buffer;
  const std::int64_t t0 = now_ns();
  send_all(fd, msg);
  std::string reply = read_line(fd, buffer);
  if (rtt_ns) *rtt_ns = now_ns() - t0;
  return reply;
}

std::vector<float> PhaseResult::all_latencies() const {
  std::vector<float> all;
  for (const auto& v : latency_us) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void PhaseResult::merge(PhaseResult&& o) {
  elapsed_s = std::max(elapsed_s, o.elapsed_s);
  sent += o.sent;
  ok += o.ok;
  failed += o.failed;
  if (wrong == 0 && o.wrong > 0) first_wrong = std::move(o.first_wrong);
  wrong += o.wrong;
  for (auto& [code, n] : o.errors) errors[code] += n;
  for (std::size_t k = 0; k < latency_us.size(); ++k)
    latency_us[k].insert(latency_us[k].end(), o.latency_us[k].begin(),
                         o.latency_us[k].end());
  lag_us.insert(lag_us.end(), o.lag_us.begin(), o.lag_us.end());
  backlog += o.backlog;
  for (auto& s : o.spans) spans.push_back(std::move(s));
}

PhaseResult run_phase(std::span<const int> fds,
                      std::span<const std::unique_ptr<Stream>> streams,
                      const PhaseOptions& options) {
  std::vector<Conn> conns(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    conns[i].fd = fds[i];
    conns[i].index = i;
    conns[i].stream = streams[i].get();
    conns[i].arrivals = vocab::stream(options.arrival_seed, 0xa771, i);
  }
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(options.threads, fds.size()));
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    std::vector<Conn*> mine;
    for (std::size_t i = t; i < conns.size(); i += threads) mine.push_back(&conns[i]);
    workers.push_back(std::make_unique<Worker>(options, std::move(mine)));
    workers.back()->set_total_conns(fds.size());
  }
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < workers.size(); ++t)
    pool.emplace_back([&options, &w = workers[t], t] {
      // One busy-polling thread per CPU: two spinning on one core would
      // stall each other by a scheduler slice.
      if (!options.cpus.empty()) pin_to({options.cpus[t % options.cpus.size()]});
      w->run();
    });
  for (auto& t : pool) t.join();
  PhaseResult total;
  for (auto& w : workers) total.merge(std::move(w->result()));
  for (const Conn& c : conns)
    if (c.dead) ++total.errors["connection_lost"];
  return total;
}

}  // namespace perfbench
