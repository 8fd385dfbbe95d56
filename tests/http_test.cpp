// Tests for the HTTP/1.1 front end (http.hpp): POST /v1/batch must
// stream back the exact serve-protocol bytes (chunked), /metrics must
// expose Prometheus text, and the server must survive rude clients —
// partial heads, oversized bodies, disconnects mid-response.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/http.hpp"
#include "ccov/engine/serve.hpp"

namespace eng = ccov::engine;
namespace net = ccov::engine::net;

namespace {

// ---------------------------------------------------------------------------
// A minimal blocking HTTP test client.
// ---------------------------------------------------------------------------

class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    EXPECT_TRUE(connected_) << std::strerror(errno);
  }

  ~HttpClient() { close(); }

  bool connected() const { return connected_; }

  void send_text(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t w = ::send(fd_, text.data() + off, text.size() - off, 0);
      if (w < 0 && errno == EINTR) continue;
      ASSERT_GT(w, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(w);
    }
  }

  void send_post(const std::string& target, const std::string& body,
                 const std::string& extra_headers = "") {
    send_text("POST " + target + " HTTP/1.1\r\nHost: test\r\n" +
              extra_headers +
              "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
              body);
  }

  void send_get(const std::string& target) {
    send_text("GET " + target + " HTTP/1.1\r\nHost: test\r\n\r\n");
  }

  struct Response {
    int status = 0;
    std::string head;  ///< raw header block (request line included)
    std::string body;  ///< de-chunked payload
    bool chunked = false;

    bool header_contains(const std::string& needle) const {
      return head.find(needle) != std::string::npos;
    }
  };

  /// Read one full response off the stream (head + framed body).
  /// status == 0 means the stream ended before a response arrived.
  Response read_response() {
    Response resp;
    // --- head ---
    std::size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos)
      if (!fill()) return resp;
    resp.head = buffer_.substr(0, head_end);
    buffer_.erase(0, head_end + 4);
    const std::size_t sp = resp.head.find(' ');
    if (sp != std::string::npos)
      resp.status = std::atoi(resp.head.c_str() + sp + 1);
    resp.chunked = resp.head.find("Transfer-Encoding: chunked") !=
                   std::string::npos;
    // --- body ---
    if (resp.chunked) {
      for (;;) {
        std::size_t nl;
        while ((nl = buffer_.find("\r\n")) == std::string::npos)
          if (!fill()) return resp;
        const std::size_t size =
            std::strtoul(buffer_.substr(0, nl).c_str(), nullptr, 16);
        buffer_.erase(0, nl + 2);
        while (buffer_.size() < size + 2)
          if (!fill()) return resp;
        resp.body.append(buffer_, 0, size);
        buffer_.erase(0, size + 2);  // data + CRLF
        if (size == 0) break;
      }
    } else {
      const std::size_t cl = resp.head.find("Content-Length: ");
      if (cl != std::string::npos) {
        const std::size_t size =
            std::strtoul(resp.head.c_str() + cl + 16, nullptr, 10);
        while (buffer_.size() < size)
          if (!fill()) return resp;
        resp.body = buffer_.substr(0, size);
        buffer_.erase(0, size);
      }
    }
    return resp;
  }

  std::string read_to_eof() {
    while (fill()) {
    }
    return std::exchange(buffer_, std::string());
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  bool fill() {
    char chunk[4096];
    for (;;) {
      const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(r));
      return true;
    }
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// A running HttpServer on an ephemeral loopback port.
class HttpHarness {
 public:
  explicit HttpHarness(eng::ServeConfig config = {})
      : server_(engine_, std::move(config)),
        runner_([this] { rc_ = server_.run(); }) {}

  ~HttpHarness() { stop(); }

  void stop() {
    if (runner_.joinable()) {
      server_.shutdown();
      runner_.join();
    }
  }

  eng::Engine& engine() { return engine_; }
  std::uint16_t port() const { return server_.port(); }
  int exit_code() const { return rc_; }

 private:
  eng::Engine engine_;
  net::HttpServer server_;
  int rc_ = -1;
  std::thread runner_;
};

std::string stdio_reference(const std::string& input) {
  eng::Engine engine;
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(eng::serve_loop(in, out, engine, {}), 0);
  return out.str();
}

const char kWorkload[] =
    "{\"algo\":\"construct\",\"n\":9}\n"
    "{\"algo\":\"solve\",\"n\":7}\n"
    "{\"algo\":\"greedy\",\"n\":9,\"demand\":[[0,3],[1,4],[2,7]]}\n"
    "not json at all\n"
    "{\"algo\":\"construct\",\"n\":9}\n"
    "{\"op\":\"stats\"}\n";

}  // namespace

// ---------------------------------------------------------------------------
// The tentpole contract: HTTP payload == stdio payload, byte for byte
// ---------------------------------------------------------------------------

TEST(Http, BatchRoundTripIsByteIdenticalToStdio) {
  const std::string expected = stdio_reference(kWorkload);
  HttpHarness server;
  HttpClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.send_post("/v1/batch", kWorkload);
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.chunked) << resp.head;
  EXPECT_TRUE(resp.header_contains("Content-Type: application/x-ndjson"))
      << resp.head;
  EXPECT_EQ(resp.body, expected);
  server.stop();
  EXPECT_EQ(server.exit_code(), 0);
}

TEST(Http, PipelinedKeepAliveRequestsShareTheConnectionAndCache) {
  HttpHarness server;
  HttpClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Two batches and a metrics scrape pipelined in one write. Each batch
  // is its own serve session (ids restart at 0), the second hits the
  // cache the first warmed.
  const std::string batch = "{\"algo\":\"construct\",\"n\":9}\n";
  client.send_post("/v1/batch", batch);
  client.send_post("/v1/batch", batch);
  client.send_get("/metrics");

  const auto first = client.read_response();
  ASSERT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"id\":0,"), std::string::npos) << first.body;
  EXPECT_NE(first.body.find("\"cache_hit\":false"), std::string::npos)
      << first.body;

  const auto second = client.read_response();
  ASSERT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("\"id\":0,"), std::string::npos) << second.body;
  EXPECT_NE(second.body.find("\"cache_hit\":true"), std::string::npos)
      << second.body;

  const auto metrics = client.read_response();
  ASSERT_EQ(metrics.status, 200);
  EXPECT_TRUE(metrics.header_contains("Content-Type: text/plain"))
      << metrics.head;
  EXPECT_NE(metrics.body.find("ccov_serve_sessions_total 2"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("ccov_http_requests_total 3"),
            std::string::npos)
      << metrics.body;
}

TEST(Http, HeadSplitAcrossManyReadsStillParses) {
  HttpHarness server;
  HttpClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string body = "{\"op\":\"stats\"}\n";
  const std::string request =
      "POST /v1/batch HTTP/1.1\r\nHost: test\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  // Trickle the request a few bytes at a time — worst-case packetization.
  for (std::size_t off = 0; off < request.size(); off += 7) {
    client.send_text(request.substr(off, 7));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"op\":\"stats\",\"ok\":true"),
            std::string::npos)
      << resp.body;
}

// ---------------------------------------------------------------------------
// Error statuses
// ---------------------------------------------------------------------------

TEST(Http, OversizedBodyIsRefusedWith413) {
  eng::ServeConfig config;
  config.max_body_bytes = 128;
  HttpHarness server(config);
  HttpClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.send_post("/v1/batch", std::string(1000, 'x'));
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, 413);
  EXPECT_TRUE(resp.header_contains("Connection: close")) << resp.head;
}

TEST(Http, MissingContentLengthIs411AndChunkedRequestIs501) {
  HttpHarness server;
  {
    HttpClient client(server.port());
    ASSERT_TRUE(client.connected());
    client.send_text("POST /v1/batch HTTP/1.1\r\nHost: test\r\n\r\n");
    EXPECT_EQ(client.read_response().status, 411);
  }
  {
    HttpClient client(server.port());
    ASSERT_TRUE(client.connected());
    client.send_text(
        "POST /v1/batch HTTP/1.1\r\nHost: test\r\n"
        "Transfer-Encoding: chunked\r\n\r\n");
    EXPECT_EQ(client.read_response().status, 501);
  }
}

TEST(Http, OversizedHeadIs431) {
  HttpHarness server;
  HttpClient client(server.port());
  ASSERT_TRUE(client.connected());
  // One byte over the 64 KiB head limit, with no blank line: the server
  // must read every byte sent before it can refuse the head.
  const std::string start = "GET /metrics HTTP/1.1\r\nX-Padding: ";
  const std::size_t pad = (64 << 10) + 1 - start.size() - 2;
  client.send_text(start + std::string(pad, 'p') + "\r\n");
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, 431);
  EXPECT_EQ(resp.body, "request head exceeds 65536 bytes\n");
}

TEST(Http, OversizedBodyLineIsAnsweredInBand) {
  // A line over --max-line inside an accepted body is a protocol-level
  // error (ok:false response line), not an HTTP error — identical to
  // the stdio transport's behaviour.
  eng::ServeConfig config;
  config.max_line_bytes = 64;
  HttpHarness server(config);
  HttpClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string body =
      std::string(500, 'x') + "\n{\"algo\":\"construct\",\"n\":9}\n";
  client.send_post("/v1/batch", body);
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find(
                "{\"id\":0,\"ok\":false,\"error\":\"parse: line exceeds"),
            std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("{\"id\":1,\"ok\":true"), std::string::npos)
      << resp.body;
}

TEST(Http, UnknownRoutesAndMethodsGetDiagnosticStatuses) {
  HttpHarness server;
  {
    HttpClient client(server.port());
    client.send_get("/no/such/path");
    const auto resp = client.read_response();
    EXPECT_EQ(resp.status, 404);
    // The 404 body lists what would have worked.
    EXPECT_NE(resp.body.find("POST /v1/batch"), std::string::npos)
        << resp.body;
    EXPECT_NE(resp.body.find("GET  /metrics"), std::string::npos)
        << resp.body;
    // Keep-alive survives a 404: the same connection still works.
    client.send_get("/healthz");
    EXPECT_EQ(client.read_response().status, 200);
  }
  {
    HttpClient client(server.port());
    client.send_get("/v1/batch");  // wrong method for the batch route
    const auto resp = client.read_response();
    EXPECT_EQ(resp.status, 405);
    EXPECT_TRUE(resp.header_contains("Allow: POST")) << resp.head;
    client.send_text("DELETE /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_EQ(client.read_response().status, 405);
  }
  {
    HttpClient client(server.port());
    client.send_text("BREW /coffee HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_EQ(client.read_response().status, 501);
    HttpClient old_version(server.port());
    old_version.send_text("GET /healthz HTTP/2\r\nHost: t\r\n\r\n");
    EXPECT_EQ(old_version.read_response().status, 505);
  }
}

TEST(Http, Expect100ContinueIsAnswered) {
  HttpHarness server;
  HttpClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string body = "{\"op\":\"stats\"}\n";
  client.send_text(
      "POST /v1/batch HTTP/1.1\r\nHost: test\r\n"
      "Expect: 100-continue\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n");
  const auto cont = client.read_response();
  ASSERT_EQ(cont.status, 100);
  client.send_text(body);
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"op\":\"stats\""), std::string::npos)
      << resp.body;
}

// ---------------------------------------------------------------------------
// Resilience
// ---------------------------------------------------------------------------

TEST(Http, ClientDisconnectingMidResponseLeavesTheServerAlive) {
  HttpHarness server;
  {
    // Ask for a lot of output and vanish without reading: the server's
    // chunk writes hit a dead socket and must only kill this connection.
    HttpClient rude(server.port());
    ASSERT_TRUE(rude.connected());
    std::string body;
    for (int i = 0; i < 50; ++i) body += "{\"algo\":\"construct\",\"n\":64}\n";
    rude.send_post("/v1/batch", body);
    rude.close();
  }
  // No stats verb here: the rude client's requests polluted the shared
  // cache, so cache-statistics lines would not match a fresh-engine
  // reference (the compute responses use different keys and do match).
  const std::string workload =
      "{\"algo\":\"construct\",\"n\":9}\n"
      "{\"algo\":\"solve\",\"n\":7}\n"
      "not json at all\n"
      "{\"algo\":\"construct\",\"n\":9}\n";
  const std::string expected = stdio_reference(workload);
  HttpClient polite(server.port());
  ASSERT_TRUE(polite.connected());
  polite.send_post("/v1/batch", workload);
  const auto resp = polite.read_response();
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, expected);
  server.stop();
  EXPECT_EQ(server.exit_code(), 0);
}

TEST(Http, RefusesClientsBeyondMaxWith503) {
  eng::ServeConfig config;
  config.max_clients = 1;
  HttpHarness server(config);

  HttpClient first(server.port());
  ASSERT_TRUE(first.connected());
  // Round-trip once so the connection is registered server-side.
  first.send_get("/healthz");
  EXPECT_EQ(first.read_response().status, 200);

  HttpClient second(server.port());
  ASSERT_TRUE(second.connected());
  second.send_get("/healthz");
  const auto refused = second.read_response();
  EXPECT_EQ(refused.status, 503);
  EXPECT_TRUE(refused.header_contains("Retry-After")) << refused.head;
  EXPECT_TRUE(second.read_to_eof().empty());  // then the server hangs up

  // The first client is unaffected.
  first.send_get("/metrics");
  EXPECT_EQ(first.read_response().status, 200);
}

TEST(Http, ShutdownWhileKeepAliveConnectionIsIdleReturnsZero) {
  HttpHarness server;
  HttpClient idle(server.port());
  ASSERT_TRUE(idle.connected());
  idle.send_get("/healthz");
  EXPECT_EQ(idle.read_response().status, 200);
  // Shut down while the connection waits for its next request.
  server.stop();
  EXPECT_EQ(server.exit_code(), 0);
  EXPECT_TRUE(idle.read_to_eof().empty());
}
