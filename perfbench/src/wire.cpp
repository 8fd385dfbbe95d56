#include "wire.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "ccov/engine/shm.hpp"

namespace perfbench {

namespace {

constexpr int kReadTimeoutMs = 120000;

bool write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Buffered line reader over one fd (equal fds for a socket), with every
/// wait bounded by kReadTimeoutMs.
class FdLines {
 public:
  FdLines(int rd, int wr) : rd_(rd), wr_(wr) {}

  bool send(const std::string& bytes) {
    return write_all(wr_, bytes.data(), bytes.size());
  }

  bool recv_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      if (!fill()) return false;
    }
  }

  bool recv_exact(std::size_t n, std::string* out) {
    while (buf_.size() - pos_ < n)
      if (!fill()) return false;
    out->append(buf_, pos_, n);
    pos_ += n;
    return true;
  }

 private:
  bool fill() {
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    pollfd p{rd_, POLLIN, 0};
    for (;;) {
      const int r = ::poll(&p, 1, kReadTimeoutMs);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      break;
    }
    char chunk[65536];
    for (;;) {
      const ssize_t r = ::read(rd_, chunk, sizeof chunk);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(r));
      return true;
    }
  }

  int rd_;
  int wr_;
  std::string buf_;
  std::size_t pos_ = 0;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool stream_tcp(int fd, const std::string& payload, std::size_t expect_lines,
                const LineFn& on_line) {
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  std::size_t sent = 0, got = 0;
  std::string rx, line;
  char chunk[65536];
  while (got < expect_lines) {
    pollfd p{fd, static_cast<short>(POLLIN | (sent < payload.size() ? POLLOUT : 0)),
             0};
    const int r = ::poll(&p, 1, kReadTimeoutMs);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    if ((p.revents & POLLOUT) && sent < payload.size()) {
      const ssize_t w = ::send(fd, payload.data() + sent, payload.size() - sent,
                               MSG_NOSIGNAL);
      if (w > 0) sent += static_cast<std::size_t>(w);
      else if (w < 0 && errno != EAGAIN && errno != EINTR) break;
    }
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n == 0) break;
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        break;
      }
      rx.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0, nl;
      while ((nl = rx.find('\n', start)) != std::string::npos) {
        line.assign(rx, start, nl - start);
        on_line(got++, line);
        start = nl + 1;
      }
      rx.erase(0, start);
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return got == expect_lines;
}

class LineClient final : public Client {
 public:
  LineClient(int rd, int wr, int owned_fd) : io_(rd, wr), owned_(owned_fd) {}
  ~LineClient() override {
    if (owned_ >= 0) ::close(owned_);
  }
  bool round_trip(const std::string& line, std::string* resp) override {
    tx_.assign(line);
    tx_ += '\n';
    return io_.send(tx_) && io_.recv_line(resp);
  }
  bool stream(const std::string& payload, std::size_t expect_lines,
              const LineFn& on_line) override {
    return owned_ >= 0 && stream_tcp(owned_, payload, expect_lines, on_line);
  }

 private:
  FdLines io_;
  int owned_;
  std::string tx_;
};

/// One keep-alive connection, one POST /v1/batch per line; the chunked
/// body is parsed to completion.
class HttpClient final : public Client {
 public:
  explicit HttpClient(int fd) : fd_(fd), io_(fd, fd) {}
  ~HttpClient() override { ::close(fd_); }

  bool round_trip(const std::string& line, std::string* resp) override {
    tx_ = "POST /v1/batch HTTP/1.1\r\nHost: perfbench\r\n"
          "Content-Type: application/x-ndjson\r\nContent-Length: ";
    tx_ += std::to_string(line.size() + 1);
    tx_ += "\r\n\r\n";
    tx_ += line;
    tx_ += '\n';
    if (!io_.send(tx_)) return false;
    std::string h;
    if (!io_.recv_line(&h) || h.compare(0, 12, "HTTP/1.1 200") != 0)
      return false;
    for (;;) {
      if (!io_.recv_line(&h)) return false;
      if (!h.empty() && h.back() == '\r') h.pop_back();
      if (h.empty()) break;
    }
    resp->clear();
    for (;;) {
      std::string size_line;
      if (!io_.recv_line(&size_line)) return false;
      const std::size_t n = std::strtoull(size_line.c_str(), nullptr, 16);
      std::string crlf;
      if (n == 0) return io_.recv_line(&crlf) && finish(resp);
      if (!io_.recv_exact(n, resp) || !io_.recv_line(&crlf)) return false;
    }
  }

 private:
  static bool finish(std::string* resp) {
    if (resp->empty() || resp->back() != '\n') return false;
    resp->pop_back();
    return resp->find('\n') == std::string::npos;  // exactly one line
  }

  int fd_;
  FdLines io_;
  std::string tx_;
};

class ShmLineClient final : public Client {
 public:
  bool connect(const std::string& name, std::string* error) {
    for (int i = 0; i < 400; ++i) {
      if (client_.connect(name, error)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }
  bool round_trip(const std::string& line, std::string* resp) override {
    tx_.assign(line);
    tx_ += '\n';
    return client_.send(tx_.data(), tx_.size()) && client_.read_line(resp);
  }

 private:
  ccov::engine::shm::ShmClient client_;
  std::string tx_;
};

std::uint16_t port_of(const std::string& host_port) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<std::uint16_t>(
      std::strtoul(host_port.c_str() + colon + 1, nullptr, 10));
}

}  // namespace

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kStdio: return "stdio";
    case Transport::kTcp: return "tcp";
    case Transport::kHttp: return "http";
    case Transport::kShm: return "shm";
  }
  return "?";
}

namespace {

cpu_set_t cpu_set_of(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return set;
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

PinThread::PinThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  saved_ = allowed_cpus();
  const cpu_set_t set = cpu_set_of(cpus);
  ::sched_setaffinity(0, sizeof set, &set);
}

PinThread::~PinThread() {
  if (saved_.empty()) return;
  const cpu_set_t set = cpu_set_of(saved_);
  ::sched_setaffinity(0, sizeof set, &set);
}

ServerProcess::ServerProcess(const std::string& ccov,
                             const std::vector<std::string>& args,
                             const std::vector<int>& cpus) {
  const cpu_set_t cpu_set = cpu_set_of(cpus);
  int in[2], out[2], err[2];
  if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0 ||
      ::pipe2(err, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe2 failed");
  std::vector<std::string> argv_s{ccov, "serve"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::signal(SIGPIPE, SIG_DFL);
    if (!cpus.empty()) ::sched_setaffinity(0, sizeof cpu_set, &cpu_set);
    ::dup2(in[0], 0);
    ::dup2(out[1], 1);
    ::dup2(err[1], 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  ::close(err[1]);
  in_ = in[1];
  out_ = out[0];
  err_ = err[0];
}

ServerProcess::~ServerProcess() { stop(); }

std::string ServerProcess::await_stderr(const std::string& prefix,
                                        int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    std::size_t nl;
    while ((nl = err_buf_.find('\n')) != std::string::npos) {
      std::string line = err_buf_.substr(0, nl);
      err_buf_.erase(0, nl + 1);
      if (line.compare(0, prefix.size(), prefix) == 0)
        return line.substr(prefix.size());
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return "";
    pollfd p{err_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left)) <= 0) continue;
    char chunk[4096];
    const ssize_t r = ::read(err_, chunk, sizeof chunk);
    if (r <= 0) return "";
    err_buf_.append(chunk, static_cast<std::size_t>(r));
  }
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0;
}

bool ServerProcess::stop() {
  if (pid_ < 0) return exited_ok_;
  ::close(in_);
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pid_t r = 0;
  while ((r = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (r == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  exited_ok_ = r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  ::close(out_);
  ::close(err_);
  pid_ = -1;
  return exited_ok_;
}

Endpoint open_endpoint(const std::string& ccov, Transport t,
                       std::vector<std::string> serve_args,
                       const std::string& shm_name,
                       const std::vector<int>& cpus) {
  Endpoint ep;
  const char* ready = nullptr;
  switch (t) {
    case Transport::kStdio:
      break;
    case Transport::kTcp:
      serve_args.insert(serve_args.end(), {"--listen", "127.0.0.1:0"});
      ready = "serve: listening on ";
      break;
    case Transport::kHttp:
      serve_args.insert(serve_args.end(), {"--http", "127.0.0.1:0"});
      ready = "serve: http listening on ";
      break;
    case Transport::kShm:
      serve_args.insert(serve_args.end(), {"--shm", shm_name});
      ready = "serve: shm serving on ";
      break;
  }
  ep.server = std::make_unique<ServerProcess>(ccov, serve_args, cpus);
  if (t == Transport::kStdio) {
    ep.client = std::make_unique<LineClient>(ep.server->stdout_fd(),
                                             ep.server->stdin_fd(), -1);
    return ep;
  }
  const std::string where = ep.server->await_stderr(ready, 20000);
  if (where.empty())
    throw std::runtime_error(std::string(transport_name(t)) +
                             " server did not come up");
  if (t == Transport::kShm) {
    auto shm = std::make_unique<ShmLineClient>();
    std::string error;
    if (!shm->connect(shm_name, &error))
      throw std::runtime_error("shm connect: " + error);
    ep.client = std::move(shm);
    return ep;
  }
  const int fd = connect_loopback(port_of(where));
  if (fd < 0) throw std::runtime_error("cannot connect to " + where);
  if (t == Transport::kHttp)
    ep.client = std::make_unique<HttpClient>(fd);
  else
    ep.client = std::make_unique<LineClient>(fd, fd, fd);
  return ep;
}

}  // namespace perfbench
