#include "server_proc.hpp"

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {
namespace {

double vm_hwm_mib(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  throw std::runtime_error("no VmHWM in " + status_path);
}

}  // namespace

void pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double self_peak_rss_mib() { return vm_hwm_mib("/proc/self/status"); }

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& flags,
                             const std::vector<int>& cpus) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> args{binary, "--port", "0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Child: stderr to the pipe, die with the runner, run pinned.
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    pin_to(cpus);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];

  // The banner ("... listening on 127.0.0.1:PORT (...") is the first
  // line the daemon writes.
  std::string banner;
  const std::int64_t deadline = now_ns() + 20'000'000'000;
  while (banner.find('\n') == std::string::npos) {
    pollfd p{stderr_fd_, POLLIN, 0};
    const int left_ms = static_cast<int>((deadline - now_ns()) / 1'000'000);
    if (left_ms <= 0 || ::poll(&p, 1, left_ms) <= 0) break;
    char buf[512];
    const ssize_t n = ::read(stderr_fd_, buf, sizeof buf);
    if (n <= 0) break;
    banner.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t at = banner.find("listening on ");
  const std::size_t colon =
      at == std::string::npos ? std::string::npos : banner.find(':', at);
  if (colon == std::string::npos) {
    stop();
    throw std::runtime_error("archline_serverd did not start: " + banner);
  }
  port_ = static_cast<std::uint16_t>(std::atoi(banner.c_str() + colon + 1));
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::peak_rss_mib() const {
  return vm_hwm_mib("/proc/" + std::to_string(pid_) + "/status");
}

int ServerProcess::stop() {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  // Drain stderr (the shutdown summary) so the daemon never blocks on a
  // full pipe while it exits.
  char buf[4096];
  while (stderr_fd_ >= 0) {
    const ssize_t n = ::read(stderr_fd_, buf, sizeof buf);
    if (n > 0 || (n < 0 && errno == EINTR)) continue;
    ::close(stderr_fd_);
    stderr_fd_ = -1;
  }
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return status;
}

}  // namespace perfbench
