#pragma once
/// \file net.hpp
/// Socket plumbing for the serve front ends (POSIX sockets). The pieces
/// layer cleanly:
///
///  - Listener / SocketStream: a bound listening socket (TCP, or a Linux
///    abstract Unix name) and a ServeStream over one accepted
///    connection, both non-blocking with all waiting in poll;
///  - Server: the one server of every socket transport (TCP, HTTP,
///    shm) — self-pipe shutdown, thread-per-connection, max-clients
///    bound, periodic reaping — handing each accepted socket to its
///    transport's session (the HTTP one is in http.cpp, the
///    shared-memory one in shm.cpp).
///
/// Shutdown is cooperative through a self-pipe: shutdown() (or a signal
/// handler via wake_fd()) writes one byte, the accept loop and every
/// blocked per-connection read wake up, sessions flush their pending
/// responses and exit, and run() returns so the caller can still save
/// the store.
///
/// SIGPIPE is ignored for the whole process while a server exists
/// (writes use MSG_NOSIGNAL as well): one client disconnecting
/// mid-response tears down only that connection, never the server.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <thread>

#include "ccov/engine/serve.hpp"
#include "ccov/util/thread_annotations.hpp"

namespace ccov::engine::net {

/// Parse a "host:port" listen spec. Accepted forms: "host:port",
/// ":port" (wildcard host), "port" (loopback host), "[v6addr]:port".
/// Port 0 requests an ephemeral port (the listener reports the real
/// one). Returns false and sets *error on malformed specs; never throws.
bool parse_endpoint(const std::string& spec, std::string* host,
                    std::uint16_t* port, std::string* error);

/// Connect a blocking Unix stream socket to the abstract address
/// "\0" + abstract_name (see Listener). Returns the fd, or -1 with
/// errno set (ECONNREFUSED when nothing listens on the name, ENOTSUP
/// off Linux).
int connect_abstract(const std::string& abstract_name);

/// A bound, listening stream socket (accept backlog 64). Throws
/// std::runtime_error when the address cannot be resolved or bound.
class Listener {
 public:
  /// TCP on host:port.
  Listener(const std::string& host, std::uint16_t port);
  /// Unix stream socket at the Linux abstract address "\0" + name:
  /// nothing is created in the file system, and the kernel frees the
  /// name when the socket closes, however its process ends. A name
  /// that a live listener holds throws "already being served"; every
  /// name throws off Linux.
  explicit Listener(const std::string& abstract_name);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The actually bound TCP port — resolves port 0 to the kernel's
  /// pick; 0 for an abstract Unix listener.
  std::uint16_t port() const { return port_; }

  /// Block until a connection arrives, `wake_fd` becomes readable, or
  /// `timeout_ms` elapses. Returns the accepted socket fd, kWoken when
  /// `wake_fd` fired (shutdown), kTick on timeout (so callers get a
  /// periodic slot for housekeeping such as reaping finished
  /// connections), or kFailed when the listener itself is broken.
  /// Retries EINTR and transient accept errors internally.
  static constexpr int kWoken = -1;
  static constexpr int kFailed = -2;
  static constexpr int kTick = -3;
  int accept_connection(int wake_fd, int timeout_ms = -1);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// ServeStream over a connected socket (switched to non-blocking; all
/// waiting happens in poll). read_some polls the socket together with
/// the server's shutdown pipe, so a blocked read wakes promptly on
/// shutdown and reports end-of-stream. write_all retries EINTR/EAGAIN
/// and partial writes, reports a dead peer (EPIPE/ECONNRESET) as false
/// instead of raising, and — once shutdown has been requested — gives a
/// stalled peer only a bounded grace period to drain its responses, so
/// one full send buffer can never hang the server's shutdown join.
/// Owns the fd.
class SocketStream final : public ServeStream {
 public:
  /// Grace period a write may keep waiting after shutdown is requested.
  static constexpr int kShutdownWriteGraceMs = 5000;

  /// `wake_fd` < 0 disables the shutdown poll (plain blocking reads).
  explicit SocketStream(int fd, int wake_fd = -1);
  ~SocketStream() override;

  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  std::ptrdiff_t read_some(char* buf, std::size_t n) override;
  bool write_all(const char* data, std::size_t n) override;

 private:
  int fd_;
  int wake_fd_;
  /// Milliseconds of write grace left once shutdown was observed; -1
  /// until then (wait without a deadline).
  int shutdown_grace_ms_ = -1;
};

/// The socket transports of `ccov serve`; stdio (serve_loop) is the
/// fourth and needs no server.
enum class Transport {
  kTcp,   ///< `--listen`: the JSONL serve protocol over TCP
  kHttp,  ///< `--http`: POST /v1/batch, /metrics, /healthz (http.hpp)
  kShm,   ///< `--shm`: shared-memory rings, handed out over a Unix socket
          ///< (shm.hpp)
};

/// `ccov serve --listen | --http | --shm`: a thread-per-connection
/// server in front of serve_session. Every connection shares `engine`
/// (one cache, one pool, one MetricsRegistry) and runs its own session,
/// with line ids starting at 0. Connections beyond config.max_clients
/// get the transport's refusal — one in-band {"ok":false,...} line on
/// TCP, a 503 with Retry-After on HTTP, a reason in place of the segment
/// on shm — and are closed. The accept loop is shared; what one
/// connection runs lives with its transport: the JSONL session in
/// net.cpp, the HTTP keep-alive loop in http.cpp, the segment hand-off
/// and ring session in shm.cpp.
class Server {
 public:
  /// Binds and listens immediately, so port() and address() are valid
  /// before run(): TCP and HTTP on config.host:config.port, shm on the
  /// abstract name "ccov-shm/NAME" for config.shm_name. Throws
  /// std::runtime_error when the address cannot be bound, a live server
  /// holds the shm name ("already being served"), the shm name or ring
  /// size is invalid, or shm is asked for off Linux. The transport's own
  /// /metrics series (ccov_http_*, ccov_shm_*) are registered here, so
  /// a scrape before the first connection shows them at zero.
  Server(Engine& engine, ServeConfig config, Transport transport);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually bound TCP port (0 was the kernel's pick); 0 on shm.
  std::uint16_t port() const { return listener_.port(); }

  /// "host:port" on TCP and HTTP, the normalized "/NAME" on shm.
  std::string address() const;

  /// True once shutdown() ran or the accept loop saw the wake pipe fire
  /// (a signal handler's byte). One atomic load: sessions whose streams
  /// never block (shared-memory rings) poll it instead of the pipe.
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  /// Accept clients until shutdown() is called; joins every connection
  /// thread before returning. Returns 0 on a clean shutdown, 1 when the
  /// listener broke.
  int run();

  /// Request shutdown from any thread. Safe to call more than once.
  void shutdown();

  /// Write end of the self-pipe — async-signal-safe shutdown channel
  /// for signal handlers (write one byte to trigger shutdown).
  int wake_fd() const { return wake_wr_; }

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Checks config.shm_name and the ring size (and Linux), normalizes
  /// the name in place and returns the abstract address to bind.
  static std::string shm_address(ServeConfig& config);

  void reap_finished(bool join_all);

  /// One accepted connection `fd` (owned, closed on return), run to its
  /// end on its own thread — or, when `busy` (max_clients reached),
  /// turned away on the accepting thread. Dispatches to the transport's
  /// serve_*, each defined in that transport's file.
  void serve(int fd, bool busy);
  void serve_tcp(int fd, bool busy);
  void serve_http(int fd, bool busy);
  void serve_shm(int fd, bool busy);

  Engine& engine_;
  ServeConfig config_;
  Transport transport_;
  Listener listener_;
  int wake_rd_ = -1;  ///< the shutdown pipe's read end, for sessions
  int wake_wr_ = -1;
  std::atomic<bool> stopping_{false};

  // The transport's series; null on the other transports.
  Counter* http_requests_ = nullptr;     ///< ccov_http_requests_total
  Counter* http_errors_ = nullptr;       ///< ccov_http_errors_total
  Counter* http_connections_ = nullptr;  ///< ccov_http_connections_total
  Counter* shm_sessions_ = nullptr;      ///< ccov_shm_sessions_total
  Counter* shm_vanished_ = nullptr;  ///< ccov_shm_clients_vanished_total

  util::Mutex conns_mu_;
  std::list<Connection> conns_ CCOV_GUARDED_BY(conns_mu_);
};

/// Install SIGINT/SIGTERM handlers that write one byte to `wake_fd`
/// (async-signal-safe) — pass the Server's wake_fd(), or -1 when there
/// is no wake pipe (the stdio front end, whose blocked read the signal
/// itself interrupts thanks to the handler's missing SA_RESTART). When
/// `cancel` is non-null the handler also fires that token (one relaxed
/// atomic store, so still async-signal-safe), aborting every in-flight
/// solve at its next ~4k-node poll — shutdown latency is bounded by the
/// poll interval, not by the deepest running search. The handlers
/// outlive the server object only as no-ops; intended for the CLI
/// process, which serves exactly one server per run (Server's
/// destructor disarms the wake fd before closing it). The token must
/// outlive the process's last signal — make it a static in the caller.
void install_signal_shutdown(int wake_fd, util::CancelToken* cancel = nullptr);

}  // namespace ccov::engine::net
