#pragma once
/// \file http.hpp
/// HTTP/1.1 front end for the serve protocol (POSIX only, like net.hpp).
/// A net::Server of Transport::kHttp accepts keep-alive connections
/// (pipelined requests included) and routes:
///
///   POST /v1/batch   JSONL request lines in the body -> the exact
///                    serve-protocol response lines, streamed back with
///                    chunked transfer encoding as each batch flushes.
///                    The body runs through the same serve_session as
///                    stdio and TCP, so the JSONL payload is
///                    byte-identical across transports.
///   GET  /metrics    Engine metrics in Prometheus text exposition
///                    format (one scrape = one render of the registry).
///   GET  /healthz    "ok" — a liveness probe.
///
/// Request bodies require Content-Length (411 otherwise; chunked request
/// bodies are answered 501) bounded by ServeConfig::max_body_bytes
/// (413 above it); request heads are bounded by 64 KiB (431).
/// "Expect: 100-continue" is honored. Connections beyond max_clients
/// get a 503 and are closed. Shutdown is the Server's: the self-pipe
/// wakes blocked reads, in-flight responses flush, run() returns.

#include <cstdint>
#include <string>

#include "ccov/engine/net.hpp"
#include "ccov/engine/serve.hpp"

namespace ccov::engine::net {

/// A parsed HTTP/1.1 request head (request line + the headers the front
/// end acts on). Exposed, together with find_head_end/parse_head,
/// because head parsing sits directly on untrusted socket bytes — tests
/// and the fuzz harnesses (see fuzz/) drive it without a socket.
struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;
  bool has_content_length = false;
  std::uint64_t content_length = 0;
  bool chunked = false;          ///< request used Transfer-Encoding: chunked
  bool expect_continue = false;  ///< Expect: 100-continue
  bool keep_alive = true;
};

/// Locate the head terminator (CRLFCRLF per the RFC; bare LFLF is
/// tolerated). Sets *body_start just past it.
bool find_head_end(const std::string& buf, std::size_t* head_end,
                   std::size_t* body_start);

/// Parse a request head (everything before the terminator). Returns
/// false and sets *error on a malformed request line, header line or
/// Content-Length; never throws.
bool parse_head(const std::string& head, HttpRequest* req,
                std::string* error);

}  // namespace ccov::engine::net
