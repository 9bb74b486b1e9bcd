#include "driver/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

constexpr int kStartTimeoutMs = 60000;
constexpr int kIoTimeoutSec = 60;

/// Reads lines from `fd` until one contains "http=127.0.0.1:"; the port.
std::optional<std::uint16_t> await_port(int fd) {
  std::string buffer;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(kStartTimeoutMs);
  while (std::chrono::steady_clock::now() < give_up) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;  // the daemon exited
    buffer.append(chunk, static_cast<std::size_t>(n));
    constexpr std::string_view kKey = "http=127.0.0.1:";
    const std::size_t at = buffer.find(kKey);
    if (at != std::string::npos && buffer.find('\n', at) != std::string::npos) {
      return static_cast<std::uint16_t>(
          std::stoul(buffer.substr(at + kKey.size())));
    }
  }
  return std::nullopt;
}

}  // namespace

std::unique_ptr<Daemon> Daemon::spawn(const std::string& binary,
                                      std::string* error) {
  int out[2];
  if (::pipe(out) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    const char* argv[] = {binary.c_str(), "serve", "--http-port", "0",
                          nullptr};
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(out[1]);
  std::unique_ptr<Daemon> daemon(new Daemon(pid, out[0]));
  const std::optional<std::uint16_t> port = await_port(out[0]);
  if (!port) {
    *error = "daemon did not report a listening HTTP port";
    return nullptr;  // the destructor reaps the child
  }
  daemon->port_ = *port;
  return daemon;
}

Daemon::~Daemon() { stop(); }

bool Daemon::stop() {
  if (stopped_) return clean_exit_;
  stopped_ = true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    // Keep the stdout pipe drained so the drain messages never block.
    char sink[512];
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 20) > 0 && ::read(out_fd_, sink, sizeof(sink)) <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (reaped == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  ::close(out_fd_);
  clean_exit_ = reaped == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return clean_exit_;
}

double Daemon::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::rss_peak_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::optional<std::string> http_exchange(std::uint16_t port,
                                         std::string_view request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  timeval timeout{kIoTimeoutSec, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::optional<std::string> http_get(std::uint16_t port, std::string_view path) {
  return http_exchange(port, "GET " + std::string(path) +
                                 " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

}  // namespace perfbench
