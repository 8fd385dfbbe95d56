#pragma once
/// \file serve.hpp
/// The `ccov serve` protocol: JSONL requests in, JSONL responses out,
/// one output line per input line, in input order. Compute requests are
/// flat JSON objects ({"algo":"solve","n":8,...}); control verbs are
/// {"op":"stats"|"save"|"clear"|"metrics"} and are dispatched through a
/// static table of the built-in verbs (find_serve_verb). See
/// src/engine/README.md for the full protocol. The parser and renderers
/// are exposed so tests can drive them without a process boundary.
///
/// The protocol loop itself is parameterized over a transport: a
/// ServeStream is any source/sink of newline-framed bytes —
/// serve_loop wires one to stdin/stdout, net.hpp's SocketStream wires
/// one to a TCP connection, and http.hpp frames one inside an HTTP
/// request/response pair. Every transport shares the exact same
/// serve_session, so socket and HTTP responses are byte-identical to
/// stdio responses for the same request stream. All front ends consume
/// one ServeConfig, parsed once in the CLI.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/request.hpp"

namespace ccov::engine {

/// Transport seam for the serve loop: a bidirectional byte stream. The
/// session reads newline-framed requests through read_some and writes
/// response lines through write_all; reads and writes may come from two
/// different threads (the session pipelines: it parses the next batch
/// while the previous one solves), so implementations must tolerate one
/// concurrent reader plus one concurrent writer.
class ServeStream {
 public:
  virtual ~ServeStream() = default;

  /// Read up to `n` bytes into `buf`. Returns the number of bytes read
  /// (> 0), 0 on end-of-stream (EOF, peer disconnect, or server
  /// shutdown), or -1 on a transport error. Must retry EINTR internally.
  virtual std::ptrdiff_t read_some(char* buf, std::size_t n) = 0;

  /// Write all `n` bytes. Returns false when the peer is gone (EPIPE,
  /// reset) or the sink fails — the session then tears down quietly.
  virtual bool write_all(const char* data, std::size_t n) = 0;

  /// Flush buffered output (stdio transports); sockets need nothing.
  virtual bool flush() { return true; }
};

/// The one configuration every serve front end consumes — stdio,
/// `--listen` (TCP) and `--http` alike. The CLI parses its serve flags
/// into exactly one of these; the transports read the fields they need.
struct ServeConfig {
  // --- session (every transport) -----------------------------------------
  /// Worker threads per flushed batch (BatchRunner semantics: 0 =
  /// hardware concurrency, 1 = inline).
  std::size_t jobs = 1;
  /// Consecutive compute requests buffered before a flush. 1 answers
  /// every line immediately (interactive); larger batches let --jobs
  /// overlap independent requests. Control verbs and EOF always flush.
  std::size_t batch = 1;
  /// Snapshot path for the `save` control verb and the save-on-exit in
  /// the CLI wrapper; empty disables `save`.
  std::string cache_file;
  /// Longest accepted input line in bytes (0 = unlimited). A longer line
  /// is answered in-band with ok:false and discarded as it streams in —
  /// the session never buffers more than this much of one line.
  std::size_t max_line_bytes = 1 << 20;
  /// Wall-clock deadline (ms) applied to requests that carry no
  /// deadline_ms of their own; 0 = none (`--default-deadline-ms`). The
  /// absolute deadline is fixed when the request is *accepted*, so time
  /// spent queued behind a batch counts against it.
  std::uint64_t default_deadline_ms = 0;
  /// Server-wide cancellation token, cancelled by the SIGINT/SIGTERM
  /// handler. Sessions check it between lines and thread it into every
  /// request, so shutdown latency is bounded by the solver's ~4k-node
  /// poll interval instead of the deepest in-flight search. May be null.
  const util::CancelToken* cancel = nullptr;

  // --- listener (TCP and HTTP front ends) --------------------------------
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; the server reports the pick
  /// Concurrent connections beyond this are refused with one in-band
  /// error (JSONL line on TCP, 503 on HTTP) and closed immediately.
  std::size_t max_clients = 64;

  // --- HTTP front end ----------------------------------------------------
  /// Longest accepted request head (request line + headers).
  std::size_t max_header_bytes = 64 << 10;
  /// Largest accepted Content-Length for POST /v1/batch; bigger bodies
  /// are refused with 413 before any byte of the body is read.
  std::size_t max_body_bytes = 64u << 20;

  // --- shared-memory front end (shm.hpp) ---------------------------------
  /// POSIX shm segment name for `--shm` (with or without the leading
  /// '/'); empty = transport not selected.
  std::string shm_name;
  /// Per-ring data capacity in bytes (one request ring + one response
  /// ring per segment); must be a power of two.
  std::size_t shm_ring_bytes = 1 << 20;
};

// ---------------------------------------------------------------------------
// Control verbs
// ---------------------------------------------------------------------------

/// Everything a control-verb handler may touch. Handlers run in flush
/// order *after* the preceding requests were answered, so whatever they
/// observe (cache stats, metrics) reflects exactly the requests that
/// preceded them in the stream.
struct ServeVerbContext {
  std::uint64_t id = 0;  ///< response id of the verb's input line
  Engine& engine;
  const ServeConfig& config;
};

/// A named control verb: {"op":"<name>"} -> one rendered response line
/// (no trailing newline). Handlers must not throw.
struct ServeVerb {
  std::string_view name;
  std::string_view description;
  std::string (*run)(const ServeVerbContext&);
};

/// The built-in verbs, sorted by name: clear, metrics, save, stats.
extern const std::array<ServeVerb, 4> kServeVerbs;

/// The verb called `name`, or nullptr.
const ServeVerb* find_serve_verb(std::string_view name);

/// One parsed input line: either a cover request (verb == nullptr) or a
/// resolved control verb.
struct ServeCommand {
  const ServeVerb* verb = nullptr;
  CoverRequest req;  ///< populated when is_request()
  bool is_request() const { return verb == nullptr; }
};

/// Line framing over a ServeStream: newline-delimited, CRLF-tolerant (a
/// single trailing '\r' is stripped), with a hard per-line byte limit
/// enforced *while streaming* — an oversized line is discarded as it
/// arrives instead of being buffered without bound, and reported as
/// kTooLong so the session can answer in-band. This is the framing layer
/// every serve transport's input passes through; it is exposed (and
/// fuzzed — see fuzz/) because it sits directly on untrusted bytes.
class LineReader {
 public:
  /// \p max_line longest accepted line in bytes (0 = unlimited).
  LineReader(ServeStream& io, std::size_t max_line);

  enum class Result { kLine, kTooLong, kEof };

  /// Produce the next line (newline stripped). A partial final line with
  /// no trailing newline is still a line, as with std::getline; the
  /// following call reports kEof.
  Result next(std::string* line);

 private:
  ServeStream& io_;
  std::size_t max_;
  char buf_[4096];
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
};

/// Parse one JSONL line against the verb table. Returns false
/// (and sets *error) on malformed JSON, unknown keys, out-of-domain
/// values, or an unknown op (the error lists the valid ops); never
/// throws.
bool parse_serve_line(const std::string& line, ServeCommand* cmd,
                      std::string* error);

/// Render a response as one JSON line (no trailing newline). Contains
/// only reproducible fields plus cache_hit — never timing — so streams
/// are byte-identical across --jobs values.
std::string serve_response_line(std::uint64_t id, const CoverResponse& resp);

/// Render a protocol-level failure (parse error, bad control verb).
std::string serve_error_line(std::uint64_t id, const std::string& error);

/// Render the cache statistics for the `stats` control verb.
std::string serve_stats_line(std::uint64_t id, const CoverCache& cache);

/// Run the serve protocol over an arbitrary transport until
/// end-of-stream. Emits exactly one response line per input line, in
/// input order (blank lines are ignored). Every batch goes through one
/// flush routine on a util::OrderedPipeline: double-buffered (the next
/// batch is parsed while a worker answers the previous one) unless the
/// session is interactive (--batch 1 --jobs 1), which runs at depth 0 —
/// on the calling thread, with no worker. Returns 0; protocol-level
/// errors are reported in-band as {"ok":false,...} lines, and a dead
/// peer ends the session without raising. Session, request, error and
/// pipeline-depth counts feed engine.metrics().
int serve_session(ServeStream& io, Engine& engine, const ServeConfig& config);

/// serve_session over an istream/ostream pair — the classic stdio
/// `ccov serve` loop the CLI wires to std::cin/std::cout.
int serve_loop(std::istream& in, std::ostream& out, Engine& engine,
               const ServeConfig& config);

}  // namespace ccov::engine
