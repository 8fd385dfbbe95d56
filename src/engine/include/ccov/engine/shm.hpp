#pragma once
/// \file shm.hpp
/// Shared-memory transport for co-located clients (Linux only).
/// `ccov serve --shm NAME` is a net::Server of Transport::kShm on the
/// abstract Unix socket "\0ccov-shm/NAME". Each accepted connection is
/// handed, with SCM_RIGHTS, an anonymous memfd segment:
///
///   [header: magic/version/capacity handshake, eof flags]
///   [request ring  control + data]   client writes, server reads
///   [response ring control + data]   server writes, client reads
///
/// sealed against resizing, and one serve_session runs over its two
/// SPSC byte rings (util::ShmByteRing): bytes are memcpy'd once per
/// side, with no syscall in the steady state. The socket is only the
/// liveness channel — a dead peer shows as a hang-up, polled after a
/// ring wait timed out — and the Server bounds the sessions at
/// --max-clients and shuts them down. Each side refuses a peer of
/// another uid (SO_PEERCRED). A killed server leaves nothing behind:
/// the kernel frees the name and the memfds with their holders.
///
/// No mutex here: the header's shared words are cross-process atomics
/// and the rings are SPSC, so there are no capability annotations (see
/// util/thread_annotations.hpp); each member documents its protocol.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "ccov/engine/net.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/util/shm_ring.hpp"

namespace ccov::engine::shm {

inline constexpr std::uint64_t kShmMagic = 0x31646873766f6363ULL;  // "ccovshd1"
inline constexpr std::uint32_t kShmVersion = 2;

/// Front of the segment. Standard layout; the mutable fields are
/// lock-free atomics because the two sides are different processes.
struct ShmSegmentHeader {
  /// kShmMagic, release-stored last by the server's init.
  std::atomic<std::uint64_t> magic;
  std::uint32_t version = 0;        ///< kShmVersion
  std::uint32_t ring_capacity = 0;  ///< data bytes per ring, power of two
  /// Client sets after its last request byte: "request ring empty +
  /// client_eof" is end-of-stream, a hang-up without it a dead client.
  std::atomic<std::uint32_t> client_eof;
  /// Server sets after the session's last response byte.
  std::atomic<std::uint32_t> server_eof;
};

/// Total segment size for a given per-ring capacity.
std::size_t segment_bytes(std::size_t ring_capacity);

/// "name" or "/name" -> "/name"; false on names that are empty,
/// contain '/', or do not fit a Unix socket address.
bool normalize_shm_name(const std::string& name, std::string* out,
                        std::string* error);

/// Client side: connect, map the segment the server passes, exchange
/// JSONL lines. One session, one user; send and receive may be driven
/// from two threads like any SPSC pair.
class ShmClient {
 public:
  ShmClient() = default;
  ~ShmClient() { close(); }

  ShmClient(const ShmClient&) = delete;
  ShmClient& operator=(const ShmClient&) = delete;

  /// Returns false and sets *error when no server listens on `name`
  /// (the error starts "no shm server"), the server runs as another
  /// user, refuses (past --max-clients), does not answer within 5 s, or
  /// passes a segment that fails the handshake.
  bool connect(const std::string& name, std::string* error);

  bool connected() const { return header_ != nullptr; }

  /// The server has neither finished the session nor hung up (a poll).
  bool ok() const;

  /// Send raw request bytes, blocking on a full ring; false once the
  /// session is over. A caller that may fill *both* rings must use
  /// try_send/wait_send and drain responses in between instead.
  bool send(const char* data, std::size_t n);

  /// Nonblocking: the number of bytes taken (0 on a full ring).
  std::size_t try_send(const char* data, std::size_t n);
  /// Block until the request ring has space or ~timeout_ms elapsed.
  void wait_send(int timeout_ms);

  /// End of requests: the server answers what it has and hangs up.
  void finish();

  /// One response line without its newline; false at end-of-stream.
  bool read_line(std::string* line);

  /// Nonblocking: append the response bytes ready now, return how many.
  std::size_t drain_available(std::string* out);

  /// Blocking: append response bytes as they arrive and return how
  /// many, or 0 at end-of-stream (see server_finished()). A pump that
  /// mixed drain_available with read_line would split a line across two
  /// buffers; this keeps the whole session in the caller's.
  std::size_t read_some(std::string* out);

  /// The server marked the response stream complete (server_eof); false
  /// after it died mid-session.
  bool server_finished() const;

  /// finish(), unmap and hang up. Idempotent.
  void close();

 private:
  int sock_ = -1;
  ShmSegmentHeader* header_ = nullptr;  ///< front of the mapped segment
  std::size_t size_ = 0;                ///< mapped bytes
  util::ShmByteRing request_ring_;
  util::ShmByteRing response_ring_;
  std::string rx_;  ///< bytes drained but not yet returned as lines
};

}  // namespace ccov::engine::shm
