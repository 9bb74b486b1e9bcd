// The daemon under test as a child process, and the loopback HTTP client
// the load driver talks to it with.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

/// A running `mpcstabd serve --http-port 0`. The child dies with the driver
/// (PR_SET_PDEATHSIG), and the destructor stops and reaps it.
class Daemon {
 public:
  /// Spawns the daemon and waits for its "listening ... http=" line.
  static std::unique_ptr<Daemon> spawn(const std::string& binary,
                                       std::string* error);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// User plus system CPU seconds of every daemon thread so far.
  double cpu_seconds() const;
  /// Peak resident set (VmHWM) in MiB.
  double rss_peak_mb() const;

  /// SIGTERM (graceful drain), then SIGKILL after a grace period; reaps
  /// the child. True when it exited 0 on its own. Idempotent.
  bool stop();

 private:
  Daemon(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

  pid_t pid_;
  int out_fd_;  ///< read end of the daemon's stdout
  std::uint16_t port_ = 0;
  bool stopped_ = false;
  bool clean_exit_ = false;
};

/// One HTTP exchange over a fresh loopback connection: connect, send
/// `request`, read until the server closes. nullopt on a socket failure.
std::optional<std::string> http_exchange(std::uint16_t port,
                                         std::string_view request);

/// A GET of `path`; the raw response.
std::optional<std::string> http_get(std::uint16_t port, std::string_view path);

}  // namespace perfbench
