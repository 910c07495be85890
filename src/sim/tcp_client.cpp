#include "sim/tcp_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace archline::sim {

int connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, std::string_view data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::string> read_lines(int fd, std::size_t count,
                                    std::string* carry) {
  std::vector<std::string> lines;
  std::string local;
  std::string& buffer = carry ? *carry : local;
  char chunk[65536];
  for (;;) {
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && lines.size() < count;
         nl = buffer.find('\n', start)) {
      lines.push_back(buffer.substr(start, nl - start));
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (lines.size() >= count) break;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return lines;
}

bool request_once(int fd, std::string_view line, std::string& reply) {
  std::string framed(line);
  framed += '\n';
  if (!send_all(fd, framed)) return false;
  std::vector<std::string> lines = read_lines(fd, 1);
  if (lines.empty()) return false;
  reply = std::move(lines.front());
  return true;
}

}  // namespace archline::sim
