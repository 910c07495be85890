#pragma once
// A small blocking TCP client for newline-delimited JSON servers: the
// one socket helper set behind serve_loadgen's probe and stats round
// trips, perf_microbench's BM_ServeTcp* round trips, and the transport
// tests.
// Linux-only, like the serve transport itself. Every call blocks; the
// caller owns the fd and closes it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace archline::sim {

/// Connects to host:port (dotted IPv4) with TCP_NODELAY set. Returns the
/// connected fd, or -1 when the address is bad or the connect fails.
[[nodiscard]] int connect_tcp(const std::string& host, std::uint16_t port);

/// Writes all of `data` (retrying short writes and EINTR, never raising
/// SIGPIPE). Returns false on a socket error.
[[nodiscard]] bool send_all(int fd, std::string_view data);

/// Reads newline-delimited lines until `count` arrived or the peer
/// closed; returns what it got, without the newlines. Extracts at most
/// `count` lines — extra buffered bytes stay in `carry` for a later call
/// (pass the same string when splitting one pipelined reply across
/// calls).
[[nodiscard]] std::vector<std::string> read_lines(int fd, std::size_t count,
                                                  std::string* carry = nullptr);

/// One round trip on an otherwise idle connection: sends `line` plus a
/// newline and reads one reply line into `reply`. False on a socket
/// error or EOF before the reply.
[[nodiscard]] bool request_once(int fd, std::string_view line,
                                std::string& reply);

}  // namespace archline::sim
