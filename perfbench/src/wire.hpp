#pragma once
/// \file wire.hpp
/// The benchmark's side of the wire: spawning `ccov serve` as a child
/// process and talking to it over each real transport — stdio pipes,
/// raw TCP (--listen), HTTP/1.1 (--http) and shared memory (--shm).
/// Every blocking read is bounded by a timeout, so a wedged server
/// fails the run instead of hanging it.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class Transport { kStdio, kTcp, kHttp, kShm };
const char* transport_name(Transport t);

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();

/// Pins the calling thread to `cpus` (no-op when empty) for the scope's
/// lifetime, then restores the previous mask.
class PinThread {
 public:
  explicit PinThread(const std::vector<int>& cpus);
  ~PinThread();
  PinThread(const PinThread&) = delete;
  PinThread& operator=(const PinThread&) = delete;

 private:
  std::vector<int> saved_;
};

/// One `ccov serve` child, restricted to `cpus` when non-empty. The
/// child dies with the benchmark (PR_SET_PDEATHSIG), and stop() always
/// reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& ccov, const std::vector<std::string>& args,
                const std::vector<int>& cpus);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int stdin_fd() const { return in_; }
  int stdout_fd() const { return out_; }

  /// Read the child's stderr until a line starting with `prefix`;
  /// returns the rest of that line, or "" on timeout or exit.
  std::string await_stderr(const std::string& prefix, int timeout_ms);

  /// The child's peak resident set (VmHWM) in MiB; 0 when unreadable.
  double peak_rss_mb() const;

  /// Close stdin, send SIGTERM, wait (SIGKILL after 10 s). Returns true
  /// when the child exited with status 0. Idempotent.
  bool stop();

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  int err_ = -1;
  std::string err_buf_;
  bool exited_ok_ = false;
};

using LineFn = std::function<void(std::size_t, const std::string&)>;

/// A client connection to one server.
class Client {
 public:
  virtual ~Client() = default;
  /// Closed loop: `line` (no newline) out, one response line back.
  virtual bool round_trip(const std::string& line, std::string* resp) = 0;
  /// Pipelined (TCP only): write `payload` (newline-framed lines) as fast
  /// as the server takes it while reading, from the same thread with
  /// poll(), the `expect_lines` responses; on_line(index, response) for
  /// each in arrival order. False on a transport error or timeout.
  virtual bool stream(const std::string& payload, std::size_t expect_lines,
                      const LineFn& on_line) {
    (void)payload, (void)expect_lines, (void)on_line;
    return false;
  }
};

/// A started server plus a connected client on one transport.
struct Endpoint {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Client> client;
};

/// Spawn `ccov serve` with `serve_args` on transport `t` and connect.
/// Throws std::runtime_error when the server does not come up.
Endpoint open_endpoint(const std::string& ccov, Transport t,
                       std::vector<std::string> serve_args,
                       const std::string& shm_name,
                       const std::vector<int>& cpus = {});

}  // namespace perfbench
