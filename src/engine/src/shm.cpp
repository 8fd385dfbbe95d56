#include "ccov/engine/shm.hpp"

#include "ccov/util/failpoint.hpp"

#include <cerrno>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace ccov::engine::shm {

namespace {

/// Header padded to whole cache lines, so the rings start aligned.
constexpr std::size_t kHeaderBytes = (sizeof(ShmSegmentHeader) + 63) / 64 * 64;

/// Ring-wait timeout between shutdown and peer-death checks; the
/// steady-state hot path never reaches these waits.
constexpr int kWaitMs = 50;

/// The abstract socket name is this prefix plus the normalized "/name".
constexpr char kAddressPrefix[] = "ccov-shm";

/// Longest name body that still fits sun_path after the leading NUL,
/// the prefix and the '/'.
constexpr std::size_t kMaxNameBytes =
    sizeof(sockaddr_un::sun_path) - 1 - (sizeof kAddressPrefix - 1) - 1;

constexpr char kNeedsLinux[] =
    "shm: --shm needs Linux (abstract Unix sockets and memfd)";

/// The request (0) or response (1) ring's region of a segment.
char* ring_region(void* mem, std::size_t cap, std::size_t which) {
  return static_cast<char*>(mem) + kHeaderBytes +
         which * util::ShmByteRing::region_bytes(cap);
}

/// Any event on a socket the peer never writes to is its hang-up.
bool hung_up(int sock) {
  pollfd pfd{sock, POLLIN, 0};
  return ::poll(&pfd, 1, 0) > 0;
}

#ifdef __linux__
constexpr int kRecvFlags = MSG_CMSG_CLOEXEC;

/// Either side of a connection accepts only a peer running as its own
/// effective uid: an abstract name has no file permissions to do it.
bool same_user(int sock) {
  ucred cred{};
  socklen_t len = sizeof cred;
  return ::getsockopt(sock, SOL_SOCKET, SO_PEERCRED, &cred, &len) == 0 &&
         cred.uid == ::geteuid();
}

/// Map a new `size`-byte memfd into *fd, sealed against resizing so a
/// client can neither shrink it under the server (SIGBUS) nor grow it.
void* new_segment(std::size_t size, int* fd) {
  *fd = ::memfd_create("ccov-shm", MFD_CLOEXEC | MFD_ALLOW_SEALING);
  void* mem = MAP_FAILED;
  if (*fd >= 0 && ::ftruncate(*fd, static_cast<off_t>(size)) == 0 &&
      ::fcntl(*fd, F_ADD_SEALS, F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL) == 0)
    mem = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, *fd, 0);
  if (mem == MAP_FAILED && *fd >= 0) ::close(*fd);
  return mem;
}
#else
// Never called: Server::shm_address and connect() refuse first.
constexpr int kRecvFlags = 0;
bool same_user(int) { return false; }
void* new_segment(std::size_t, int*) { return MAP_FAILED; }
#endif

/// Turn a connection away with a reason instead of a segment. Every
/// send here is on a net::Server, which ignores SIGPIPE.
void refuse(int sock, const char* why) {
  ::send(sock, why, std::strlen(why), 0);
  ::close(sock);
}

/// The handshake's one message: payload bytes plus room for one fd.
struct Handshake {
  char text[256] = {'F'};
  iovec iov;
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};

  explicit Handshake(std::size_t payload) : iov{text, payload} {
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof control;
  }
};

/// The server's side: one byte carrying the segment fd.
bool send_fd(int sock, int fd) {
  Handshake h(1);
  cmsghdr* c = CMSG_FIRSTHDR(&h.msg);
  c->cmsg_level = SOL_SOCKET;
  c->cmsg_type = SCM_RIGHTS;
  c->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(c), &fd, sizeof fd);
  return ::sendmsg(sock, &h.msg, 0) == 1;
}

/// The client's side: the segment fd, or -1 with why not in *why.
int recv_fd(int sock, std::string* why) {
  Handshake h(sizeof h.text);
  const ssize_t r = ::recvmsg(sock, &h.msg, kRecvFlags);
  int fd = -1;
  for (cmsghdr* c = CMSG_FIRSTHDR(&h.msg); r > 0 && c;
       c = CMSG_NXTHDR(&h.msg, c))
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_RIGHTS)
      std::memcpy(&fd, CMSG_DATA(c), sizeof fd);
  *why = fd >= 0 ? ""
         : r < 0 ? std::string("did not answer the handshake: ") +
                       std::strerror(errno)
         : r == 0 ? "hung up during the handshake"
                  : "refused the connection: " +
                        std::string(h.text, static_cast<std::size_t>(r));
  return fd;
}

/// The server's ServeStream: reads the request ring, writes the
/// response ring (one SPSC role each, so a reader and a writer thread
/// may run at once).
class ShmSessionStream final : public ServeStream {
 public:
  ShmSessionStream(ShmSegmentHeader* header, util::ShmByteRing request_ring,
                   util::ShmByteRing response_ring, int sock,
                   const net::Server& server)
      : header_(header),
        req_(request_ring),
        resp_(response_ring),
        sock_(sock),
        server_(server) {}

  std::ptrdiff_t read_some(char* buf, std::size_t n) override {
    // Fault-injection seam: a failed ring read looks like the client
    // detaching (end of stream), the same way a vanished peer surfaces.
    if (CCOV_FAILPOINT("shm_read")) return 0;
    for (;;) {
      // Shutdown wins over pending input, as on a socket; one atomic
      // load, so it also ends a client that never stops sending.
      if (server_.stopping()) return 0;
      const std::size_t r = req_.try_read(buf, n);
      if (r > 0) return static_cast<std::ptrdiff_t>(r);
      // The client publishes its last bytes *before* raising eof, so
      // one more read after observing the flag cannot miss data.
      if (client_eof())
        return static_cast<std::ptrdiff_t>(req_.try_read(buf, n));
      // A hang-up after eof loops back to drain; one without it is a
      // client that died mid-session. The wait rechecks the flag itself,
      // after the wake-up sequence, so eof raised just after the check
      // above ends the wait at once.
      if (!req_.wait_readable(kWaitMs, &header_->client_eof) &&
          hung_up(sock_) && !client_eof())
        return 0;
    }
  }

  bool write_all(const char* data, std::size_t n) override {
    // Fault-injection seam: a failed ring write is a client that
    // stopped draining; only this session tears down.
    if (CCOV_FAILPOINT("shm_write")) return false;
    std::size_t off = 0;
    int stalled_ms = 0;  // timed-out waits since shutdown was observed
    while (off < n) {
      off += resp_.try_write(data + off, n - off);
      if (off == n || resp_.wait_writable(kWaitMs)) continue;
      if (hung_up(sock_)) return false;  // nobody left to read
      // Responses already owed still get written after shutdown, but a
      // client that stopped draining cannot hang it forever.
      if (server_.stopping() &&
          (stalled_ms += kWaitMs) > net::SocketStream::kShutdownWriteGraceMs)
        return false;
    }
    return true;
  }

 private:
  bool client_eof() const {
    return header_->client_eof.load(std::memory_order_acquire) != 0;
  }

  ShmSegmentHeader* header_;
  util::ShmByteRing req_;
  util::ShmByteRing resp_;
  int sock_;
  const net::Server& server_;
};

}  // namespace

std::size_t segment_bytes(std::size_t ring_capacity) {
  return kHeaderBytes + 2 * util::ShmByteRing::region_bytes(ring_capacity);
}

bool normalize_shm_name(const std::string& name, std::string* out,
                        std::string* error) {
  const std::string body =
      !name.empty() && name.front() == '/' ? name.substr(1) : name;
  *error = body.empty()                    ? "shm name must not be empty"
           : body.size() > kMaxNameBytes   ? "shm name too long"
           : body.find('/') != std::string::npos
               ? "shm name must not contain '/'"
               : "";
  if (!error->empty()) return false;
  *out = "/" + body;
  return true;
}

bool ShmClient::connect(const std::string& name, std::string* error) {
  close();
#ifndef __linux__
  *error = kNeedsLinux;
  return false;
#endif
  std::string normalized;
  if (!normalize_shm_name(name, &normalized, error)) return false;
  const std::string where = "shm server '" + normalized + "'";
  const int sock = net::connect_abstract(kAddressPrefix + normalized);
  if (sock < 0) {
    *error = "no " + where + ": " + std::strerror(errno);
    return false;
  }
  // A squatter on the name is refused, and one that never answers
  // cannot hang the connect beyond 5 s.
  const timeval timeout{5, 0};
  ::setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  std::string why = "is run by another user";
  const int fd = same_user(sock) ? recv_fd(sock, &why) : -1;
  struct stat st{};
  const std::size_t size =
      fd >= 0 && ::fstat(fd, &st) == 0 ? static_cast<std::size_t>(st.st_size)
                                       : 0;
  void* mem = size < sizeof(ShmSegmentHeader)
                  ? MAP_FAILED
                  : ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED,
                           fd, 0);
  if (fd >= 0) ::close(fd);  // the mapping keeps the segment alive
  auto* header = static_cast<ShmSegmentHeader*>(mem);
  // The handshake: magic, version and capacity must all check out and
  // the mapped size must cover what the header claims — anything else
  // is a foreign or corrupted segment.
  const std::size_t cap = mem != MAP_FAILED ? header->ring_capacity : 0;
  if (fd < 0) {
    *error = where + " " + why;
  } else if (mem == MAP_FAILED ||
             header->magic.load(std::memory_order_acquire) != kShmMagic) {
    *error = where + " passed a segment without a valid header";
  } else if (header->version != kShmVersion) {
    *error = where + " speaks protocol version " +
             std::to_string(header->version) + ", expected " +
             std::to_string(kShmVersion);
  } else if (!util::ShmByteRing::valid_capacity(cap) ||
             size < segment_bytes(cap)) {
    *error = where + " passed a segment with a bad ring geometry";
  } else {
    error->clear();
  }
  if (!error->empty()) {
    if (mem != MAP_FAILED) ::munmap(mem, size);
    ::close(sock);
    return false;
  }

  sock_ = sock;
  header_ = header;
  size_ = size;
  request_ring_ = util::ShmByteRing::attach(ring_region(mem, cap, 0), cap);
  response_ring_ = util::ShmByteRing::attach(ring_region(mem, cap, 1), cap);
  rx_.clear();
  return true;
}

bool ShmClient::ok() const {
  return connected() && !server_finished() && !hung_up(sock_);
}

bool ShmClient::send(const char* data, std::size_t n) {
  if (!connected()) return false;
  for (std::size_t off = 0; off < n;) {
    off += request_ring_.try_write(data + off, n - off);
    if (off < n && !request_ring_.wait_writable(kWaitMs) && !ok())
      return false;
  }
  return true;
}

std::size_t ShmClient::try_send(const char* data, std::size_t n) {
  if (!connected()) return 0;
  return request_ring_.try_write(data, n);
}

void ShmClient::wait_send(int timeout_ms) {
  if (connected()) request_ring_.wait_writable(timeout_ms);
}

void ShmClient::finish() {
  if (!connected()) return;
  header_->client_eof.store(1, std::memory_order_release);
  request_ring_.wake_all();
}

std::size_t ShmClient::drain_available(std::string* out) {
  if (!connected()) return 0;
  std::size_t total = 0;
  // Size the tail by what is readable right now and copy straight from
  // the ring into the caller's buffer — no bounce buffer.
  while (const std::size_t avail = response_ring_.readable()) {
    const std::size_t old = out->size();
    out->resize(old + avail);
    const std::size_t r = response_ring_.try_read(out->data() + old, avail);
    out->resize(old + r);
    total += r;
  }
  return total;
}

std::size_t ShmClient::read_some(std::string* out) {
  if (!connected()) return 0;
  for (;;) {
    const std::size_t n = drain_available(out);
    if (n > 0) return n;
    // The server publishes the last response bytes before raising
    // server_eof, so one more drain after seeing the flag is complete.
    if (server_finished()) return drain_available(out);
    // Probe the socket only when a wait timed out, so the steady state
    // pays no syscall for it. The server raises server_eof before it
    // hangs up, so a hang-up after it loops back to drain. The wait
    // rechecks server_eof after the wake-up sequence, so a flag raised
    // just after the check above ends the wait at once.
    if (!response_ring_.wait_readable(kWaitMs, &header_->server_eof) &&
        hung_up(sock_) && !server_finished())
      return 0;
  }
}

bool ShmClient::server_finished() const {
  return connected() &&
         header_->server_eof.load(std::memory_order_acquire) != 0;
}

bool ShmClient::read_line(std::string* line) {
  if (!connected()) return false;
  for (;;) {
    const std::size_t nl = rx_.find('\n');
    if (nl != std::string::npos) {
      line->assign(rx_, 0, nl);
      rx_.erase(0, nl + 1);
      return true;
    }
    if (read_some(&rx_) == 0) return false;
  }
}

void ShmClient::close() {
  if (!header_) return;
  // A clean detach, not a vanished client: the server answers what is
  // left and sees the hang-up below as the end of the session.
  finish();
  ::munmap(header_, size_);
  ::close(sock_);
  sock_ = -1;
  header_ = nullptr;
  size_ = 0;
}

}  // namespace ccov::engine::shm

// ---------------------------------------------------------------------------
// The server's side: net::Server's shm address and per-connection session
// ---------------------------------------------------------------------------

namespace ccov::engine::net {

std::string Server::shm_address(ServeConfig& config) {
#ifndef __linux__
  throw std::runtime_error(shm::kNeedsLinux);
#endif
  std::string err;
  if (!shm::normalize_shm_name(config.shm_name, &config.shm_name, &err))
    throw std::runtime_error("shm: " + err);
  if (!util::ShmByteRing::valid_capacity(config.shm_ring_bytes))
    throw std::runtime_error(
        "shm: ring capacity must be a power of two >= 64 bytes");
  return shm::kAddressPrefix + config.shm_name;
}

void Server::serve_shm(int sock, bool busy) {
  using namespace shm;
  if (busy) return refuse(sock, "server busy: too many clients");
  if (!same_user(sock)) return refuse(sock, "client runs as another user");
  const std::size_t cap = config_.shm_ring_bytes;
  const std::size_t size = segment_bytes(cap);
  int memfd = -1;
  void* mem = new_segment(size, &memfd);
  if (mem == MAP_FAILED) return refuse(sock, "cannot create a segment");
  // A fresh memfd reads as zeros: both eof flags start clear.
  auto* header = new (mem) ShmSegmentHeader();
  header->version = kShmVersion;
  header->ring_capacity = static_cast<std::uint32_t>(cap);
  auto request_ring = util::ShmByteRing::init(ring_region(mem, cap, 0), cap);
  auto response_ring = util::ShmByteRing::init(ring_region(mem, cap, 1), cap);
  header->magic.store(kShmMagic, std::memory_order_release);

  const bool sent = send_fd(sock, memfd);
  ::close(memfd);  // the mappings keep the segment alive
  if (sent) {
    shm_sessions_->add(1);
    ShmSessionStream stream(header, request_ring, response_ring, sock, *this);
    serve_session(stream, engine_, config_);
    // Every owed response byte is in the ring; tell the client the
    // stream is complete before hanging up.
    header->server_eof.store(1, std::memory_order_release);
    response_ring.wake_all();
    if (header->client_eof.load(std::memory_order_acquire) == 0 &&
        hung_up(sock))
      shm_vanished_->add(1);
  }
  ::munmap(mem, size);
  ::close(sock);
}

}  // namespace ccov::engine::net
