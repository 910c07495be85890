#pragma once
// Shared fixtures for TCP transport tests (test_serve_tcp.cpp,
// test_sim_fault.cpp): a Server + TcpListener + event-loop thread
// bundle on an ephemeral port, plus the blocking client helpers from
// sim/tcp_client.hpp. Linux-only, like the transport itself.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "sim/tcp_client.hpp"

namespace serve_tcp_testlib {

/// Server + listener + event-loop thread with ephemeral port; tears
/// down gracefully (stop, join, shutdown) so every test also exercises
/// the drain path.
class TcpTransport {
 public:
  TcpTransport(archline::serve::ServerOptions server_options,
               archline::serve::TcpOptions tcp_options) {
    server_ = std::make_unique<archline::serve::Server>(server_options);
    server_->start();
    tcp_options.port = 0;  // ephemeral
    listener_ = std::make_unique<archline::serve::TcpListener>(*server_,
                                                               tcp_options);
    std::string error;
    opened_ = listener_->open(&error);
    EXPECT_TRUE(opened_) << error;
    if (opened_)
      loop_ = std::thread([this] { listener_->run(stop_); });
  }

  ~TcpTransport() {
    stop_.store(true, std::memory_order_release);
    if (loop_.joinable()) loop_.join();
    server_->shutdown();
  }

  [[nodiscard]] std::uint16_t port() const { return listener_->port(); }
  [[nodiscard]] archline::serve::Server& server() { return *server_; }

 private:
  std::unique_ptr<archline::serve::Server> server_;
  std::unique_ptr<archline::serve::TcpListener> listener_;
  std::atomic<bool> stop_{false};
  std::thread loop_;
  bool opened_ = false;
};

/// The blocking client helpers (connect_tcp, send_all, read_lines)
/// come from the serve harness library.
using archline::sim::connect_tcp;
using archline::sim::read_lines;
using archline::sim::send_all;

/// Test transports listen on loopback.
inline const std::string kLoopback = "127.0.0.1";

/// recv() until EOF (or error); true when the peer closed cleanly.
/// Each recv() waits at most `timeout`, so a connection the server
/// never closes fails the caller's check instead of hanging the suite.
inline bool wait_for_eof(
    int fd, std::chrono::seconds timeout = std::chrono::seconds(10)) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count());
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return true;
    if (n < 0 && errno != EINTR) return false;
  }
}

}  // namespace serve_tcp_testlib
