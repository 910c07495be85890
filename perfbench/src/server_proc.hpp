#pragma once
// A fresh archline_serverd child process per launch: fixed flags, pinned
// to the server's CPU set, ephemeral port read from its startup banner,
// stopped with SIGTERM and reaped before the object goes away.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Forks and execs `binary` with `flags` plus "--port 0", pins it to
  /// `cpus` (empty = no pinning) and waits for the listening banner.
  /// Throws std::runtime_error when the server does not come up.
  ServerProcess(const std::string& binary, const std::vector<std::string>& flags,
                const std::vector<int>& cpus);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Peak resident set (VmHWM) of the server so far, in MiB.
  [[nodiscard]] double peak_rss_mib() const;

  /// SIGTERM, drain stderr to EOF, reap. Returns the exit status as
  /// waitpid reports it; safe to call twice.
  int stop();

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double self_peak_rss_mib();

/// Pins the calling thread (and threads it creates later) to `cpus`.
void pin_to(const std::vector<int>& cpus);

}  // namespace perfbench
