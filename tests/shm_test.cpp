// Tests for the shared-memory transport: the SPSC byte ring underneath
// it (wrap-around, backpressure, cross-thread hammering) and the
// shm Server/ShmClient pair on top (handshake rejection of torn
// segments, concurrent sessions and the max-clients bound, shutdown,
// end-to-end byte identity against the stdio transport from a fork()'d
// client process, killed servers and clients).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/net.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/engine/shm.hpp"
#include "ccov/util/shm_ring.hpp"

namespace eng = ccov::engine;
namespace net = ccov::engine::net;
namespace shm = ccov::engine::shm;
using ccov::util::ShmByteRing;

namespace {

std::vector<char> ring_region(std::size_t capacity) {
  // Over-align generously: the real transport gets page-aligned memory
  // from mmap; alignof(Control) is what init actually needs.
  return std::vector<char>(ShmByteRing::region_bytes(capacity) + 64);
}

void* aligned_base(std::vector<char>& region) {
  void* p = region.data();
  std::size_t space = region.size();
  return std::align(64, region.size() - 64, p, space);
}

// ---------------------------------------------------------------------------
// ShmRing: the SPSC byte ring on a plain heap buffer.
// ---------------------------------------------------------------------------

TEST(ShmRing, CapacityValidation) {
  EXPECT_FALSE(ShmByteRing::valid_capacity(0));
  EXPECT_FALSE(ShmByteRing::valid_capacity(32));   // below minimum
  EXPECT_FALSE(ShmByteRing::valid_capacity(96));   // not a power of two
  EXPECT_FALSE(ShmByteRing::valid_capacity((1u << 30) + 1));
  EXPECT_TRUE(ShmByteRing::valid_capacity(64));
  EXPECT_TRUE(ShmByteRing::valid_capacity(1 << 20));

  std::vector<char> region = ring_region(64);
  EXPECT_FALSE(ShmByteRing::init(aligned_base(region), 96).valid());
  EXPECT_TRUE(ShmByteRing::init(aligned_base(region), 64).valid());
}

TEST(ShmRing, AttachValidatesStoredCapacity) {
  std::vector<char> region = ring_region(128);
  ASSERT_TRUE(ShmByteRing::init(aligned_base(region), 128).valid());
  EXPECT_TRUE(ShmByteRing::attach(aligned_base(region), 128).valid());
  // A reader expecting a different geometry must be refused — offsets
  // would be computed against the wrong mask.
  EXPECT_FALSE(ShmByteRing::attach(aligned_base(region), 256).valid());
  EXPECT_FALSE(ShmByteRing::attach(nullptr, 128).valid());
}

TEST(ShmRing, WrapAroundPreservesBytes) {
  constexpr std::size_t kCap = 64;
  std::vector<char> region = ring_region(kCap);
  ShmByteRing ring = ShmByteRing::init(aligned_base(region), kCap);
  ASSERT_TRUE(ring.valid());

  // Chunks of 48 against a capacity of 64 force the copy to split at
  // the physical end of the buffer on most iterations.
  std::string sent, received;
  char out[kCap];
  for (int i = 0; i < 100; ++i) {
    std::string chunk;
    for (int j = 0; j < 48; ++j)
      chunk.push_back(static_cast<char>('A' + (i + j) % 26));
    ASSERT_EQ(ring.try_write(chunk.data(), chunk.size()), chunk.size());
    sent += chunk;
    const std::size_t r = ring.try_read(out, sizeof out);
    ASSERT_EQ(r, chunk.size());
    received.append(out, r);
  }
  EXPECT_EQ(received, sent);
  EXPECT_EQ(ring.readable(), 0u);
  EXPECT_EQ(ring.writable(), kCap);
}

TEST(ShmRing, PartialWriteWhenNearlyFull) {
  constexpr std::size_t kCap = 64;
  std::vector<char> region = ring_region(kCap);
  ShmByteRing ring = ShmByteRing::init(aligned_base(region), kCap);
  ASSERT_TRUE(ring.valid());

  const std::string big(100, 'x');
  EXPECT_EQ(ring.try_write(big.data(), big.size()), kCap);  // clipped
  EXPECT_EQ(ring.try_write(big.data(), big.size()), 0u);    // full
  EXPECT_EQ(ring.writable(), 0u);

  char buf[16];
  EXPECT_EQ(ring.try_read(buf, sizeof buf), sizeof buf);
  EXPECT_EQ(ring.writable(), sizeof buf);
  EXPECT_EQ(ring.try_write(big.data(), big.size()), sizeof buf);
}

TEST(ShmRing, BackpressureBlocksUntilDrained) {
  constexpr std::size_t kCap = 64;
  std::vector<char> region = ring_region(kCap);
  ShmByteRing ring = ShmByteRing::init(aligned_base(region), kCap);
  ASSERT_TRUE(ring.valid());

  // Producer: 8 KiB of a counted pattern through a 64-byte ring — it
  // must block on backpressure hundreds of times and resume each time
  // the consumer frees space.
  constexpr std::size_t kTotal = 8192;
  std::thread producer([&] {
    std::size_t sent = 0;
    while (sent < kTotal) {
      const char byte = static_cast<char>(sent % 251);
      if (ring.try_write(&byte, 1) == 1) {
        ++sent;
      } else {
        ring.wait_writable(1000);
      }
    }
  });

  std::size_t got = 0;
  bool in_order = true;
  while (got < kTotal) {
    char buf[kCap];
    const std::size_t r = ring.try_read(buf, sizeof buf);
    if (r == 0) {
      ring.wait_readable(1000);
      continue;
    }
    for (std::size_t i = 0; i < r; ++i)
      in_order = in_order && buf[i] == static_cast<char>((got + i) % 251);
    got += r;
  }
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(got, kTotal);
}

TEST(ShmRing, WaitSeesAnEndFlagRaisedJustBeforeIt) {
  // A producer's last steps are: raise its end-of-stream flag, then
  // wake_all(). A consumer that checked the flag just before that and
  // only then waits must return at once, not sleep out its timeout.
  constexpr std::size_t kCap = 64;
  std::vector<char> region = ring_region(kCap);
  ShmByteRing ring = ShmByteRing::init(aligned_base(region), kCap);
  ASSERT_TRUE(ring.valid());
  std::atomic<std::uint32_t> eof{0};
  eof.store(1, std::memory_order_release);
  ring.wake_all();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(ring.wait_readable(2000, &eof));
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
  // The flag, not data, ended the wait.
  EXPECT_EQ(ring.readable(), 0u);
  EXPECT_FALSE(ring.wait_readable(0));
}

TEST(ShmRing, TwoThreadHammer) {
  // Variable-sized writes against variable-sized reads, checked as one
  // continuous byte stream. Run under TSan this doubles as the data-race
  // proof for the publish/consume protocol.
  constexpr std::size_t kCap = 256;
  constexpr std::size_t kTotal = 1 << 20;
  std::vector<char> region = ring_region(kCap);
  ShmByteRing ring = ShmByteRing::init(aligned_base(region), kCap);
  ASSERT_TRUE(ring.valid());

  std::thread producer([&] {
    std::size_t sent = 0;
    std::uint32_t rng = 0x9e3779b9;
    char chunk[191];
    while (sent < kTotal) {
      rng = rng * 1664525 + 1013904223;
      std::size_t want = 1 + rng % sizeof(chunk);
      want = std::min(want, kTotal - sent);
      for (std::size_t i = 0; i < want; ++i)
        chunk[i] = static_cast<char>((sent + i) % 251);
      std::size_t off = 0;
      while (off < want) {
        const std::size_t w = ring.try_write(chunk + off, want - off);
        if (w == 0)
          ring.wait_writable(1000);
        else
          off += w;
      }
      sent += want;
    }
  });

  std::size_t got = 0;
  bool ok = true;
  std::uint32_t rng = 0xdeadbeef;
  char buf[137];
  while (got < kTotal) {
    rng = rng * 1664525 + 1013904223;
    const std::size_t want = 1 + rng % sizeof(buf);
    const std::size_t r = ring.try_read(buf, want);
    if (r == 0) {
      ring.wait_readable(1000);
      continue;
    }
    for (std::size_t i = 0; i < r; ++i)
      ok = ok && buf[i] == static_cast<char>((got + i) % 251);
    got += r;
  }
  producer.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, kTotal);
}

// ---------------------------------------------------------------------------
// ShmServe: handshake and session behaviour over real connections. The
// transport (abstract Unix sockets, memfd) exists on Linux only.
// ---------------------------------------------------------------------------

#ifdef __linux__
/// A per-test unique server name: parallel ctest runs must not share
/// one.
std::string unique_shm_name(const char* tag) {
  return std::string("ccov-test-") + tag + "-" + std::to_string(::getpid());
}

/// Serves sessions on a background thread until destruction.
class ServerFixture {
 public:
  explicit ServerFixture(const std::string& name,
                         std::size_t ring_bytes = 1 << 16,
                         std::size_t max_clients = 64) {
    eng::ServeConfig config;
    config.shm_name = name;
    config.shm_ring_bytes = ring_bytes;
    config.max_clients = max_clients;
    server_ = std::make_unique<net::Server>(engine_, config,
                                            net::Transport::kShm);
    thread_ = std::thread([this] { server_->run(); });
  }

  ~ServerFixture() {
    server_->shutdown();
    thread_.join();
    server_.reset();
  }

  eng::Engine& engine() { return engine_; }

 private:
  eng::Engine engine_{eng::EngineOptions{}};
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
};

bool connect_with_retry(shm::ShmClient* client, const std::string& name,
                        std::string* error) {
  // With a max-clients bound of one, the previous session may still be
  // winding down; after a vanished client the server only probes its
  // socket on wait timeouts — allow a few seconds, like an interactive
  // CLI retry would.
  for (int i = 0; i < 600; ++i) {
    if (client->connect(name, error)) return true;
    ::usleep(5 * 1000);
  }
  return false;
}

/// Send one request line (the newline is added here).
bool send_line(shm::ShmClient& client, const std::string& line) {
  const std::string text = line + "\n";
  return client.send(text.data(), text.size());
}

/// One request, one response line, then a clean end of stream.
void expect_round_trip(shm::ShmClient& client, int n) {
  ASSERT_TRUE(send_line(client, "{\"algo\":\"construct\",\"n\":" +
                                    std::to_string(n) + "}"));
  client.finish();
  std::string line;
  ASSERT_TRUE(client.read_line(&line));
  // ids restart per connection: each one is a fresh serve_session.
  EXPECT_EQ(line.rfind("{\"id\":0,", 0), 0u) << line;
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_FALSE(client.read_line(&line));  // EOF after finish()
  // A clean end-of-stream is the server's eof mark, not an abort.
  EXPECT_TRUE(client.server_finished());
}

TEST(ShmServe, NameNormalization) {
  std::string out, err;
  EXPECT_TRUE(shm::normalize_shm_name("covers", &out, &err));
  EXPECT_EQ(out, "/covers");
  EXPECT_TRUE(shm::normalize_shm_name("/covers", &out, &err));
  EXPECT_EQ(out, "/covers");
  EXPECT_FALSE(shm::normalize_shm_name("", &out, &err));
  EXPECT_FALSE(shm::normalize_shm_name("a/b", &out, &err));
  EXPECT_FALSE(shm::normalize_shm_name(std::string(300, 'x'), &out, &err));
}

TEST(ShmServe, ConnectRejectsMissingSegment) {
  shm::ShmClient client;
  std::string error;
  EXPECT_FALSE(client.connect(unique_shm_name("missing"), &error));
  EXPECT_EQ(error.rfind("no shm server", 0), 0u) << error;
}

/// Pass `fd` over `sock` the way the server hands out its segment.
bool pass_fd(int sock, int fd) {
  char byte = 'F';
  iovec iov{&byte, 1};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof control;
  cmsghdr* c = CMSG_FIRSTHDR(&msg);
  c->cmsg_level = SOL_SOCKET;
  c->cmsg_type = SCM_RIGHTS;
  c->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(c), &fd, sizeof fd);
  return ::sendmsg(sock, &msg, MSG_NOSIGNAL) == 1;
}

TEST(ShmServe, ConnectRejectsTornSegment) {
  // A fake listener on the server's abstract address hands out
  // segments that fail each handshake stage: wrong magic (foreign),
  // wrong version, wrong capacity geometry, and a header that claims
  // more than the memfd holds.
  const std::string name = unique_shm_name("torn");
  net::Listener listener("ccov-shm/" + name);

  struct Case {
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t capacity;
    std::size_t file_bytes;
  };
  const std::size_t full = shm::segment_bytes(1 << 16);
  const Case cases[] = {
      {0x646145646145ULL, shm::kShmVersion, 1 << 16, full},  // bad magic
      {shm::kShmMagic, shm::kShmVersion + 7, 1 << 16, full},  // bad version
      {shm::kShmMagic, shm::kShmVersion, (1 << 16) + 13, full},  // bad cap
      {shm::kShmMagic, shm::kShmVersion, 1 << 16,
       sizeof(shm::ShmSegmentHeader)},  // truncated segment
  };

  for (const Case& c : cases) {
    const int fd = ::memfd_create("ccov-torn", MFD_CLOEXEC);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(c.file_bytes)), 0);
    void* mem = ::mmap(nullptr, sizeof(shm::ShmSegmentHeader),
                       PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ASSERT_NE(mem, MAP_FAILED);
    auto* header = new (mem) shm::ShmSegmentHeader();
    header->version = c.version;
    header->ring_capacity = c.capacity;
    header->magic.store(c.magic, std::memory_order_release);
    ::munmap(mem, sizeof(shm::ShmSegmentHeader));

    std::thread fake([&] {
      const int sock = listener.accept_connection(-1, 5000);
      if (sock < 0) return;
      pass_fd(sock, fd);
      ::close(sock);
    });
    shm::ShmClient client;
    std::string error;
    EXPECT_FALSE(client.connect(name, &error))
        << "segment with magic=" << c.magic << " version=" << c.version
        << " capacity=" << c.capacity << " bytes=" << c.file_bytes
        << " must be rejected";
    EXPECT_FALSE(error.empty());
    fake.join();
    ::close(fd);
  }
}

/// Take the segment fd the server passes on a raw connection to `name`;
/// -1 when none arrives.
int receive_segment_fd(int sock) {
  char byte = 0;
  iovec iov{&byte, 1};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof control;
  if (::recvmsg(sock, &msg, MSG_CMSG_CLOEXEC) != 1) return -1;
  const cmsghdr* c = CMSG_FIRSTHDR(&msg);
  if (!c || c->cmsg_type != SCM_RIGHTS) return -1;
  int fd = -1;
  std::memcpy(&fd, CMSG_DATA(c), sizeof fd);
  return fd;
}

TEST(ShmServe, PassedSegmentCannotBeResized) {
  // A client that shrank its segment would raise SIGBUS in the server
  // at its next ring access, ending every session: the memfd arrives
  // sealed, so neither a shrink nor a grow gets through.
  const std::string name = unique_shm_name("sealed");
  ServerFixture server(name);
  const int sock = net::connect_abstract("ccov-shm/" + name);
  ASSERT_GE(sock, 0) << std::strerror(errno);
  const int fd = receive_segment_fd(sock);
  ASSERT_GE(fd, 0);
  struct stat st{};
  ASSERT_EQ(::fstat(fd, &st), 0);
  EXPECT_EQ(static_cast<std::size_t>(st.st_size), shm::segment_bytes(1 << 16));
  errno = 0;
  EXPECT_EQ(::ftruncate(fd, 0), -1);
  EXPECT_EQ(errno, EPERM);
  errno = 0;
  EXPECT_EQ(::ftruncate(fd, st.st_size * 2), -1);
  EXPECT_EQ(errno, EPERM);
  const int seals = ::fcntl(fd, F_GET_SEALS);
  EXPECT_EQ(seals & (F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL),
            F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL);
  ::close(fd);
  ::close(sock);

  // The server is unharmed and keeps serving.
  shm::ShmClient client;
  std::string error;
  ASSERT_TRUE(connect_with_retry(&client, name, &error)) << error;
  expect_round_trip(client, 9);
}

TEST(ShmServe, ConnectTimesOutOnASilentListener) {
  // A process that holds the name but never answers (a squatter, or a
  // wedged server) fails the connect after the handshake bound instead
  // of blocking it forever.
  const std::string name = unique_shm_name("silent");
  net::Listener listener("ccov-shm/" + name);
  shm::ShmClient client;
  std::string error;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.connect(name, &error));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(error.find("did not answer the handshake"), std::string::npos)
      << error;
  EXPECT_GE(waited, std::chrono::seconds(4));
  EXPECT_LT(waited, std::chrono::seconds(15));
}

TEST(ShmServe, RoundTripTwoClientsAndThirdBusy) {
  const std::string name = unique_shm_name("busy");
  ServerFixture server(name, 1 << 16, /*max_clients=*/2);

  // Each connection gets its own segment and session, as a TCP
  // connection does: two clients are served side by side.
  shm::ShmClient first, second;
  std::string error;
  ASSERT_TRUE(connect_with_retry(&first, name, &error)) << error;
  ASSERT_TRUE(second.connect(name, &error)) << error;

  // Only the (max_clients+1)-th is turned away.
  shm::ShmClient third;
  EXPECT_FALSE(third.connect(name, &error));
  EXPECT_NE(error.find("busy"), std::string::npos) << error;

  expect_round_trip(second, 7);
  expect_round_trip(first, 12);
  first.close();
  second.close();
}

TEST(ShmServe, SecondServerOnLiveNameRejected) {
  const std::string name = unique_shm_name("taken");
  ServerFixture server(name);

  // The kernel holds the abstract name for the live server's socket.
  eng::Engine other{eng::EngineOptions{}};
  eng::ServeConfig config;
  config.shm_name = name;
  try {
    net::Server second(other, config, net::Transport::kShm);
    FAIL() << "second server on a live name must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("already being served"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShmServe, PumpedClientReassemblesSplitLines) {
  // The `ccov client --shm` pump pattern: interleave nonblocking sends
  // with drains into ONE buffer, then keep draining that same buffer
  // through read_some after finish(). Rings far smaller than the
  // response stream force every drain to land mid-line, which is
  // exactly the case that used to tear a line between the local buffer
  // and read_line's internal one.
  const std::vector<std::string> script = {
      "{\"algo\":\"construct\",\"n\":12}", "{\"algo\":\"construct\",\"n\":15}",
      "{\"algo\":\"construct\",\"n\":12}", "{\"op\":\"stats\"}",
      "{\"algo\":\"construct\",\"n\":13}",
  };
  std::string script_text;
  for (const auto& l : script) script_text += l + "\n";

  // Reference bytes through the stdio transport on a fresh engine.
  eng::Engine reference{eng::EngineOptions{}};
  std::istringstream in(script_text);
  std::ostringstream out;
  eng::serve_loop(in, out, reference, eng::ServeConfig{});
  const std::string expected = out.str();
  ASSERT_GT(expected.size(), 512u) << "script must overflow the rings";

  const std::string name = unique_shm_name("pump");
  ServerFixture server(name, /*ring_bytes=*/256);
  shm::ShmClient client;
  std::string error;
  ASSERT_TRUE(connect_with_retry(&client, name, &error)) << error;

  std::string got;
  for (const auto& l : script) {
    const std::string line = l + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
      off += client.try_send(line.data() + off, line.size() - off);
      client.drain_available(&got);
      if (off < line.size()) {
        ASSERT_TRUE(client.ok());
        client.wait_send(50);
      }
    }
  }
  client.finish();
  while (client.read_some(&got) > 0) {
  }
  EXPECT_TRUE(client.server_finished());
  client.close();

  EXPECT_EQ(got, expected)
      << "pumped drains must reassemble to the exact stdio byte stream";
}

TEST(ShmServe, SlotRecyclesAcrossSessions) {
  // One client slot: each finished session must hand it to the next
  // connection, which starts a fresh session.
  const std::string name = unique_shm_name("recycle");
  ServerFixture server(name, 1 << 16, /*max_clients=*/1);

  for (int session = 0; session < 3; ++session) {
    shm::ShmClient client;
    std::string error;
    ASSERT_TRUE(connect_with_retry(&client, name, &error))
        << "session " << session << ": " << error;
    expect_round_trip(client, 9);
    client.close();
  }
  EXPECT_EQ(server.engine()
                .metrics()
                .counter("ccov_shm_sessions_total", "")
                .value(),
            3u);
}

TEST(ShmServe, ShutdownEndsASessionThatNeverStopsSending) {
  // The client keeps both rings busy, so the server's ring reads never
  // wait: shutdown() must still end the session through the stopping
  // flag, not a syscall per round trip.
  const std::string name = unique_shm_name("busyshutdown");
  eng::Engine engine{eng::EngineOptions{}};
  eng::ServeConfig config;
  config.shm_name = name;
  config.shm_ring_bytes = 1 << 12;
  net::Server server(engine, config, net::Transport::kShm);
  std::thread runner([&server] { server.run(); });

  shm::ShmClient client;
  std::string error;
  ASSERT_TRUE(connect_with_retry(&client, name, &error)) << error;
  std::atomic<std::size_t> received{0};
  std::thread pump([&] {
    const std::string line = "{\"algo\":\"construct\",\"n\":9}\n";
    std::string rx;
    std::size_t off = 0;
    while (!client.server_finished()) {
      off += client.try_send(line.data() + off, line.size() - off);
      if (off == line.size()) off = 0;
      received += client.drain_available(&rx);
      rx.clear();
    }
  });
  while (received.load() < 64 * 1024) ::usleep(1000);

  const auto t0 = std::chrono::steady_clock::now();
  server.shutdown();
  runner.join();
  const auto waited = std::chrono::steady_clock::now() - t0;
  pump.join();
  EXPECT_LT(waited, std::chrono::seconds(2));
  client.close();
}

// ---------------------------------------------------------------------------
// ShmProcess: fork()'d end-to-end byte identity and killed peers. Kept
// out of the TSan suites (fork + threads don't mix under TSan).
// ---------------------------------------------------------------------------

const char* const kScriptLines[] = {
    "{\"algo\":\"construct\",\"n\":7}",
    "{\"algo\":\"construct\",\"n\":12}",
    "{\"algo\":\"construct\",\"n\":7}",  // cache hit second time around
    "this is not json",
    "{\"algo\":\"no-such-algorithm\",\"n\":7}",
};

TEST(ShmProcess, ForkedClientMatchesStdioBytes) {
  const std::string name = unique_shm_name("fork");
  ServerFixture server(name);

  // Reference bytes: the same script through the stdio transport on a
  // fresh engine (so cache evolution matches the shm server's).
  std::string script;
  for (const char* l : kScriptLines) script += std::string(l) + "\n";
  eng::Engine reference{eng::EngineOptions{}};
  std::istringstream in(script);
  std::ostringstream out;
  eng::serve_loop(in, out, reference, eng::ServeConfig{});
  const std::string expected = out.str();
  ASSERT_FALSE(expected.empty());

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: drive the session from a genuinely separate process and
    // stream every response byte back over the pipe.
    ::close(pipefd[0]);
    shm::ShmClient client;
    std::string error;
    if (!connect_with_retry(&client, name, &error)) ::_exit(2);
    for (const char* l : kScriptLines)
      if (!send_line(client, l)) ::_exit(3);
    client.finish();
    std::string line;
    while (client.read_line(&line)) {
      line += "\n";
      std::size_t off = 0;
      while (off < line.size()) {
        const ssize_t w =
            ::write(pipefd[1], line.data() + off, line.size() - off);
        if (w <= 0) ::_exit(4);
        off += static_cast<std::size_t>(w);
      }
    }
    client.close();
    ::close(pipefd[1]);
    ::_exit(0);
  }

  ::close(pipefd[1]);
  std::string got;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(pipefd[0], buf, sizeof buf);
    if (r <= 0) break;
    got.append(buf, static_cast<std::size_t>(r));
  }
  ::close(pipefd[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  EXPECT_EQ(got, expected)
      << "shm transport must produce byte-identical serve output";
}

TEST(ShmProcess, StaleSegmentRecycledAfterServerDeath) {
  // A SIGKILLed server runs no destructor, yet leaves nothing behind:
  // the kernel frees its abstract name with its socket, and segments
  // are anonymous memfds. The same name serves again at once.
  const std::string name = unique_shm_name("deadserver");
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(ready[0]);
    eng::Engine engine{eng::EngineOptions{}};
    eng::ServeConfig config;
    config.shm_name = name;
    net::Server server(engine, config, net::Transport::kShm);
    const char byte = 'r';
    if (::write(ready[1], &byte, 1) != 1) ::_exit(2);
    for (;;) ::pause();  // until SIGKILL
  }
  ::close(ready[1]);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);
  ::close(ready[0]);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_NE(::access(("/dev/shm/" + name).c_str(), F_OK), 0);

  ServerFixture server(name);  // must not throw
  shm::ShmClient client;
  std::string error;
  ASSERT_TRUE(client.connect(name, &error)) << error;
  expect_round_trip(client, 9);
}

TEST(ShmProcess, VanishedClientFreesSlot) {
  const std::string name = unique_shm_name("vanish");
  ServerFixture server(name, 1 << 16, /*max_clients=*/1);
  eng::Counter& vanished = server.engine().metrics().counter(
      "ccov_shm_clients_vanished_total", "");

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: take the only slot, send half a session, then die without
    // detaching — the rude-client case the socket hang-up exists for.
    shm::ShmClient client;
    std::string error;
    if (!connect_with_retry(&client, name, &error)) ::_exit(2);
    send_line(client, "{\"algo\":\"construct\",\"n\":7}");
    std::string line;
    client.read_line(&line);
    ::raise(SIGKILL);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child failed before its kill";

  // The server sees the hang-up at its next ring-wait timeout, ends the
  // session and frees the slot for a fresh client.
  const auto t0 = std::chrono::steady_clock::now();
  while (vanished.value() == 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5))
    ::usleep(5 * 1000);
  EXPECT_EQ(vanished.value(), 1u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));

  shm::ShmClient next;
  std::string error;
  ASSERT_TRUE(connect_with_retry(&next, name, &error)) << error;
  expect_round_trip(next, 9);
}

TEST(ShmProcess, PeersOfAnotherUserAreRefused) {
  // An abstract name has no file permissions, so each side checks the
  // other's uid: a server refuses a client of another user, and a
  // client refuses a server (or a squatter on the name) of another.
  if (::geteuid() != 0) GTEST_SKIP() << "needs root to run as another uid";
  constexpr uid_t kOther = 65534;  // nobody
  const std::string name = unique_shm_name("uid");

  // Client of another user. Forked before the server's threads start.
  int go[2];
  ASSERT_EQ(::pipe(go), 0);
  const pid_t client_pid = ::fork();
  ASSERT_GE(client_pid, 0);
  if (client_pid == 0) {
    ::close(go[1]);
    char byte = 0;
    if (::setuid(kOther) != 0 || ::read(go[0], &byte, 1) != 1) ::_exit(2);
    const int sock = net::connect_abstract("ccov-shm/" + name);
    if (sock < 0) ::_exit(3);
    if (receive_segment_fd(sock) >= 0) ::_exit(4);  // got a segment
    shm::ShmClient client;
    std::string error;
    if (client.connect(name, &error) ||
        error.find("run by another user") == std::string::npos)
      ::_exit(5);
    ::_exit(0);
  }
  ::close(go[0]);
  {
    ServerFixture server(name);
    const char byte = 'g';
    ASSERT_EQ(::write(go[1], &byte, 1), 1);
    int status = 0;
    ASSERT_EQ(::waitpid(client_pid, &status, 0), client_pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    EXPECT_EQ(server.engine()
                  .metrics()
                  .counter("ccov_shm_sessions_total", "")
                  .value(),
              0u);
  }
  ::close(go[1]);

  // Server of another user.
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t server_pid = ::fork();
  ASSERT_GE(server_pid, 0);
  if (server_pid == 0) {
    ::close(ready[0]);
    if (::setuid(kOther) != 0) ::_exit(2);
    eng::Engine engine{eng::EngineOptions{}};
    eng::ServeConfig config;
    config.shm_name = name;
    // Bound but never run: the client must refuse before any handshake.
    net::Server server(engine, config, net::Transport::kShm);
    const char byte = 'r';
    if (::write(ready[1], &byte, 1) != 1) ::_exit(2);
    for (;;) ::pause();  // until SIGKILL
  }
  ::close(ready[1]);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);
  ::close(ready[0]);
  shm::ShmClient client;
  std::string error;
  EXPECT_FALSE(client.connect(name, &error));
  EXPECT_NE(error.find("is run by another user"), std::string::npos) << error;
  ::kill(server_pid, SIGKILL);
  ::waitpid(server_pid, nullptr, 0);
}

#endif  // __linux__

}  // namespace
