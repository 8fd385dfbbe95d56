// ccov — command-line front end for the cycle-covering library.
//
//   ccov cover    --n 13 [--out cover.txt]    build the optimal covering
//   ccov validate --in cover.txt              validate a covering file
//   ccov bounds   --n 13                      print rho and lower bounds
//   ccov solve    --n 8 [--budget B] [--parallel]
//                                             exact search
//   ccov protect  --n 12 [--edge E]           loop-back failure report
//   ccov run      --algo solve --n 9          any registered algorithm
//   ccov sweep    --n-from 3 --n-to 15 --algo construct --jobs 4
//                                             batch sweep, CSV/JSON out
//   ccov serve    [--listen H:P | --http H:P | --shm NAME] [--jobs K]
//                 [--batch B] [--cache-file F] JSONL serve loop (stdio, TCP,
//                                             HTTP with /metrics, or a
//                                             shared-memory segment)
//   ccov client   --shm NAME                  JSONL client for a --shm server
//                                             (stdin -> segment -> stdout)
//   ccov cache    stats|save|load|clear --cache-file F
//                                             snapshot maintenance
//   ccov algos                                list registered algorithms
//   ccov --version                            print the version
//
// Exit code 0 on success / valid, 1 otherwise. Unknown subcommands print
// the usage on stderr and exit nonzero.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <ostream>
#include <stdexcept>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/covering/io.hpp"
#include "ccov/covering/solver.hpp"
#include "ccov/engine/batch.hpp"
#include "ccov/engine/engine.hpp"
#include "ccov/engine/http.hpp"
#include "ccov/engine/net.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/engine/shm.hpp"
#include "ccov/engine/store.hpp"
#include "ccov/protection/simulator.hpp"
#include "ccov/util/cli.hpp"
#include "ccov/util/failpoint.hpp"
#include "ccov/util/shm_ring.hpp"
#include "ccov/util/table.hpp"
#include "ccov/wdm/network.hpp"

#ifndef CCOV_VERSION
#define CCOV_VERSION "unknown"
#endif

namespace {

void print_usage(std::ostream& os) {
  os << "usage: ccov <subcommand> [flags]\n"
        "  cover     --n N [--out F]                build the optimal "
        "covering\n"
        "  validate  --in F                         validate a covering "
        "file\n"
        "  bounds    --n N                          print rho and lower "
        "bounds\n"
        "  solve     --n N [--budget B] [--parallel]  exact search\n"
        "  protect   --n N [--edge E]               loop-back failure "
        "report\n"
        "  run       --algo NAME --n N [--budget B] [--lambda L]\n"
        "            [--threads K] [--no-validate] [--out F]\n"
        "                                           run any registered "
        "algorithm\n"
        "  sweep     --n-from A --n-to B [--step S] --algo NAME [--jobs "
        "K]\n"
        "            [--budget B] [--lambda L] [--no-validate] [--timing]\n"
        "            [--format csv|json|table] [--out F] [--cache-file F]\n"
        "                                           batch sweep via the "
        "engine\n"
        "  serve     [--listen HOST:PORT | --http HOST:PORT | --shm NAME]\n"
        "            [--jobs K] [--batch B] [--cache-file F] "
        "[--cache-capacity C]\n"
        "            [--cache-shards S] [--max-clients M] [--max-line "
        "BYTES]\n"
        "            [--max-body BYTES] [--shm-ring BYTES]\n"
        "            [--default-deadline-ms MS] [--fallback greedy|none]\n"
        "                                           JSONL serve loop: stdio "
        "by default,\n"
        "                                           TCP with --listen, HTTP "
        "with --http\n"
        "                                           (POST /v1/batch, GET "
        "/metrics),\n"
        "                                           shared memory with "
        "--shm;\n"
        "                                           SIGINT/SIGTERM cancel "
        "in-flight\n"
        "                                           solves, shut down "
        "cleanly and\n"
        "                                           save the store\n"
        "  client    --shm NAME [--connect-retry-ms MS]\n"
        "                                           pipe JSONL from stdin "
        "through a\n"
        "                                           --shm server, responses "
        "to stdout\n"
        "  cache     stats|save|load|clear --cache-file F [sweep flags]\n"
        "                                           inspect / warm / verify "
        "/ reset a snapshot\n"
        "  algos                                    list registered "
        "algorithms\n"
        "  help                                     show this message\n"
        "  --version                                print the version\n";
}

/// Cache capacity big enough to merge an existing snapshot plus new
/// work without evicting persisted entries (a too-small cache would
/// silently shrink the store on save-back).
std::size_t warm_capacity(const std::string& cache_file, std::size_t floor) {
  std::size_t entries = 0;
  if (!cache_file.empty() && std::filesystem::exists(cache_file))
    entries = static_cast<std::size_t>(
        ccov::engine::snapshot_entry_count_file(cache_file));
  return std::max(floor, 2 * entries);
}

/// Load `cache_file` into the cache when it exists; 0 entries otherwise.
std::size_t load_snapshot_if_exists(const std::string& cache_file,
                                    ccov::engine::CoverCache& cache) {
  if (cache_file.empty() || !std::filesystem::exists(cache_file)) return 0;
  return ccov::engine::load_snapshot_file(cache_file, cache);
}

/// Shared request assembly for the engine-backed subcommands.
ccov::engine::CoverRequest make_request(const ccov::util::Cli& cli,
                                        std::uint32_t n) {
  ccov::engine::CoverRequest req;
  req.algorithm = cli.get("algo", "construct");
  req.n = n;
  req.budget = static_cast<std::uint64_t>(cli.get_int("budget", 0));
  req.lambda = static_cast<std::uint32_t>(cli.get_int("lambda", 1));
  req.threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  req.validate = !cli.has("no-validate");
  return req;
}

int cmd_cover(const ccov::util::Cli& cli) {
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 9));
  const auto cover = ccov::covering::build_optimal_cover(n);
  std::cout << ccov::covering::summary(cover) << "\n";
  const std::string out = cli.get("out", "");
  if (!out.empty()) {
    ccov::covering::save_cover(out, cover);
    std::cout << "saved to " << out << "\n";
  } else {
    ccov::covering::write_cover(std::cout, cover);
  }
  return 0;
}

int cmd_validate(const ccov::util::Cli& cli) {
  const std::string in = cli.get("in", "");
  if (in.empty()) {
    std::cerr << "validate: --in <file> required\n";
    return 1;
  }
  const auto cover = ccov::covering::load_cover(in);
  const auto rep = ccov::covering::validate_cover(cover);
  std::cout << ccov::covering::summary(cover) << "\n";
  if (!rep.ok) std::cout << "error: " << rep.error << "\n";
  return rep.ok ? 0 : 1;
}

int cmd_bounds(const ccov::util::Cli& cli) {
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 9));
  using namespace ccov::covering;
  std::cout << "n = " << n << "\n"
            << "rho(n)            = " << rho(n) << "\n"
            << "capacity bound    = " << capacity_lower_bound(n) << "\n"
            << "parity bound      = " << parity_lower_bound(n) << "\n";
  if (n >= 6 || n % 2 == 1) {
    const auto comp = theorem_composition(n);
    std::cout << "theorem C3 / C4   = " << comp.c3 << " / " << comp.c4
              << "\n";
  }
  return 0;
}

int cmd_solve(const ccov::util::Cli& cli) {
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 7));
  using namespace ccov::covering;
  const auto budget =
      static_cast<std::uint64_t>(cli.get_int("budget",
                                             static_cast<std::int64_t>(rho(n))));
  const auto res = cli.has("parallel")
                       ? solve_with_budget_parallel(n, budget)
                       : solve_with_budget(n, budget);
  std::cout << "n=" << n << " budget=" << budget << " found=" << res.found
            << " exhausted=" << res.exhausted << " nodes=" << res.nodes
            << "\n";
  if (res.found) {
    for (const auto& c : res.cover.cycles)
      std::cout << "  " << to_string(c) << "\n";
  }
  return res.found ? 0 : 1;
}

int cmd_protect(const ccov::util::Cli& cli) {
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 12));
  const auto edge = static_cast<std::uint32_t>(cli.get_int("edge", 0));
  const auto cover = ccov::covering::build_optimal_cover(n);
  const auto inst = ccov::wdm::Instance::all_to_all(n);
  const ccov::wdm::WdmRingNetwork net(n, cover, inst);
  const auto rep =
      ccov::protection::simulate_loopback(net, {edge % n});
  std::cout << "link " << edge % n << " failure on C_" << n << ": affected="
            << rep.affected_requests << " switches=" << rep.switching_actions
            << " max_detour=" << rep.max_detour_hops
            << " recovery_ms=" << rep.recovery_time_ms << "\n";
  return 0;
}

int cmd_run(const ccov::util::Cli& cli) {
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 9));
  const auto req = make_request(cli, n);
  ccov::engine::Engine engine;
  const auto resp = engine.run(req);
  if (!resp.ok) {
    std::cerr << "run: " << resp.error << "\n";
    return 1;
  }
  std::cout << "algo=" << resp.algorithm << " n=" << resp.n
            << " found=" << resp.found << " exhausted=" << resp.exhausted
            << " nodes=" << resp.nodes << " cycles=" << resp.cover.size();
  if (resp.validated) std::cout << " valid=" << (resp.valid ? "yes" : "no");
  std::cout << " ms=" << resp.elapsed_ms << "\n";
  if (resp.found) {
    const std::string out = cli.get("out", "");
    if (!out.empty()) {
      ccov::covering::save_cover(out, resp.cover);
      std::cout << "saved to " << out << "\n";
    } else {
      for (const auto& c : resp.cover.cycles)
        std::cout << "  " << ccov::covering::to_string(c) << "\n";
    }
  }
  // Honour the documented exit contract: 0 only on success AND (when
  // validation ran) a valid cover.
  return resp.found && (!resp.validated || resp.valid) ? 0 : 1;
}

int cmd_sweep(const ccov::util::Cli& cli) {
  const auto n_from = static_cast<std::uint32_t>(cli.get_int("n-from", 3));
  const auto n_to =
      static_cast<std::uint32_t>(cli.get_int("n-to", n_from));
  const auto step =
      static_cast<std::uint32_t>(cli.get_int("step", 1));
  if (n_from < 3 || n_to < n_from || step == 0) {
    std::cerr << "sweep: need 3 <= --n-from <= --n-to and --step >= 1\n";
    return 1;
  }
  const std::string format = cli.get("format", "csv");
  if (format != "csv" && format != "json" && format != "table") {
    std::cerr << "sweep: --format must be csv, json or table\n";
    return 1;
  }
  const bool timing = cli.has("timing");

  std::vector<ccov::engine::CoverRequest> requests;
  for (std::uint32_t n = n_from; n <= n_to; n += step)
    requests.push_back(make_request(cli, n));

  // --cache-file warm-starts the sweep from a snapshot and persists the
  // merged store afterwards, so repeated sweeps skip solved instances.
  const std::string cache_file = cli.get("cache-file", "");
  ccov::engine::EngineOptions eopts;
  if (!cache_file.empty())
    eopts.cache_capacity = warm_capacity(cache_file, 1 << 16);
  ccov::engine::Engine engine(eopts);
  load_snapshot_if_exists(cache_file, engine.cache());
  ccov::engine::BatchRunner runner(
      engine, {static_cast<std::size_t>(cli.get_int("jobs", 0))});
  const auto responses = runner.run(requests);
  if (!cache_file.empty())
    ccov::engine::save_snapshot_file(cache_file, engine.cache());

  std::vector<std::string> headers = {"algo", "n",     "rho",      "cycles",
                                      "c3",   "c4",    "found",    "exhausted",
                                      "nodes", "valid"};
  if (timing) headers.push_back("ms");
  ccov::util::Table table(headers);
  int failures = 0;
  for (const auto& resp : responses) {
    if (!resp.ok) {
      ++failures;
      std::cerr << "sweep: " << resp.algorithm << " n=" << resp.n << ": "
                << resp.error << "\n";
    }
    std::vector<std::string> row = {
        resp.algorithm,
        std::to_string(resp.n),
        std::to_string(ccov::covering::rho(resp.n)),
        std::to_string(resp.cover.size()),
        std::to_string(ccov::covering::count_c3(resp.cover)),
        std::to_string(ccov::covering::count_c4(resp.cover)),
        std::to_string(resp.found ? 1 : 0),
        std::to_string(resp.exhausted ? 1 : 0),
        std::to_string(resp.nodes),
        !resp.ok ? "error" : (resp.validated ? (resp.valid ? "yes" : "no")
                                             : "-")};
    if (timing) row.push_back(std::to_string(resp.elapsed_ms));
    table.add_row(std::move(row));
  }

  const std::string out = cli.get("out", "");
  std::ofstream file;
  if (!out.empty()) {
    file.open(out);
    if (!file) {
      std::cerr << "sweep: cannot open " << out << " for writing\n";
      return 1;
    }
  }
  std::ostream& os = out.empty() ? std::cout : file;
  if (format == "csv") {
    table.write_csv(os);
  } else if (format == "json") {
    table.write_json(os);
  } else {
    table.print(os, "sweep " + cli.get("algo", "construct"));
  }
  return failures == 0 ? 0 : 1;
}

/// The single place serve flags become a ServeConfig — every front end
/// (stdio, --listen, --http, --shm) consumes the result. The three
/// transport flags form one mutually-exclusive group: naming more than
/// one raises a single coherent error listing exactly what was given.
ccov::engine::ServeConfig parse_serve_config(const ccov::util::Cli& cli) {
  ccov::engine::ServeConfig config;
  config.jobs = static_cast<std::size_t>(cli.get_int("jobs", 1));
  config.batch = static_cast<std::size_t>(cli.get_int("batch", 1));
  config.cache_file = cli.get("cache-file", "");
  config.max_line_bytes = static_cast<std::size_t>(
      cli.get_int("max-line", static_cast<std::int64_t>(1) << 20));
  config.max_clients =
      static_cast<std::size_t>(cli.get_int("max-clients", 64));
  config.max_body_bytes = static_cast<std::size_t>(cli.get_int(
      "max-body", static_cast<std::int64_t>(config.max_body_bytes)));
  const std::int64_t deadline_ms = cli.get_int("default-deadline-ms", 0);
  if (deadline_ms < 0)
    throw std::invalid_argument("--default-deadline-ms must be >= 0");
  config.default_deadline_ms = static_cast<std::uint64_t>(deadline_ms);

  const struct {
    const char* flag;
    std::string value;
  } transports[] = {{"listen", cli.get("listen", "")},
                    {"http", cli.get("http", "")},
                    {"shm", cli.get("shm", "")}};
  std::vector<std::string> given;
  for (const auto& t : transports)
    if (!t.value.empty()) given.push_back(std::string("--") + t.flag);
  if (given.size() > 1) {
    std::string got = given[0];
    for (std::size_t i = 1; i < given.size(); ++i)
      got += (i + 1 == given.size() ? " and " : ", ") + given[i];
    throw std::invalid_argument(
        "--listen, --http and --shm select the transport and are mutually "
        "exclusive (got " + got + ")");
  }

  for (const auto& t : transports) {
    if (t.value.empty() || t.flag == std::string("shm")) continue;
    std::string err;
    if (!ccov::engine::net::parse_endpoint(t.value, &config.host,
                                           &config.port, &err))
      throw std::invalid_argument("--" + std::string(t.flag) + " '" +
                                  t.value + "': " + err);
  }
  config.shm_name = cli.get("shm", "");
  config.shm_ring_bytes = static_cast<std::size_t>(cli.get_int(
      "shm-ring", static_cast<std::int64_t>(config.shm_ring_bytes)));
  if (!config.shm_name.empty() &&
      !ccov::util::ShmByteRing::valid_capacity(config.shm_ring_bytes))
    throw std::invalid_argument(
        "--shm-ring must be a power of two >= 64 bytes");
  return config;
}

int cmd_serve(const ccov::util::Cli& cli) {
  // Fail fast on a malformed CCOV_FAILPOINTS before any socket binds:
  // the registry's own env bootstrap stays deliberately silent (a stale
  // variable must never break a production binary), but an operator who
  // mistypes a spec while standing up a *server* wants one line and a
  // nonzero exit, not silently-disarmed fault injection.
  if (const char* fp_env = std::getenv("CCOV_FAILPOINTS")) {
    std::string fp_err;
    if (!ccov::util::failpoint::validate(fp_env, &fp_err)) {
      std::cerr << "serve: invalid CCOV_FAILPOINTS: " << fp_err << "\n";
      return 2;
    }
  }
  ccov::engine::ServeConfig config = parse_serve_config(cli);
  const bool listen = !cli.get("listen", "").empty();
  const bool http = !cli.get("http", "").empty();
  const bool shm = !config.shm_name.empty();

  // The shutdown token the SIGINT/SIGTERM handler fires. Static because
  // a signal can arrive after cmd_serve unwinds (the handlers stay
  // installed for the process lifetime); every session threads it into
  // its in-flight requests, so shutdown latency is bounded by the
  // solver's ~4k-node cancel poll, not the deepest running search.
  static ccov::util::CancelToken shutdown_token;
  config.cancel = &shutdown_token;

  ccov::engine::EngineOptions eopts;
  eopts.cache_capacity = std::max(
      static_cast<std::size_t>(cli.get_int("cache-capacity", 1 << 14)),
      warm_capacity(config.cache_file, 0));
  eopts.cache_shards = static_cast<std::size_t>(cli.get_int(
      "cache-shards",
      static_cast<std::int64_t>(ccov::engine::CoverCache::kDefaultShards)));
  const std::string fallback = cli.get("fallback", "");
  if (!fallback.empty() && fallback != "none" && fallback != "greedy")
    throw std::invalid_argument("--fallback must be 'greedy' or 'none' (got '" +
                                fallback + "')");
  eopts.fallback_greedy = fallback == "greedy";
  ccov::engine::Engine engine(eopts);

  if (const std::size_t loaded =
          load_snapshot_if_exists(config.cache_file, engine.cache())) {
    std::cerr << "serve: warm-started " << loaded << " entries from "
              << config.cache_file << "\n";
  }

  int rc = 0;
  if (http) {
    ccov::engine::net::HttpServer server(engine, config);
    ccov::engine::net::install_signal_shutdown(server.wake_fd(),
                                               &shutdown_token);
    std::cerr << "serve: http listening on " << server.host() << ":"
              << server.port() << "\n";
    rc = server.run();
  } else if (listen) {
    ccov::engine::net::ServeServer server(engine, config);
    ccov::engine::net::install_signal_shutdown(server.wake_fd(),
                                               &shutdown_token);
    std::cerr << "serve: listening on " << server.host() << ":"
              << server.port() << "\n";
    rc = server.run();
  } else if (shm) {
    ccov::engine::shm::ShmServer server(engine, config);
    ccov::engine::net::install_signal_shutdown(server.wake_fd(),
                                               &shutdown_token);
    std::cerr << "serve: shm serving on " << server.name() << "\n";
    rc = server.run();
  } else {
    // Unsynchronized streams let the stdio transport's read_some drain
    // whole buffered lines via readsome() instead of one byte per call
    // (std::cin's C-stdio sync buffer always reports in_avail() == 0).
    // Untie cin from cout: the session's reader thread must not flush
    // cout (via the istream sentry) while the pipeline worker writes
    // responses to it.
    std::ios::sync_with_stdio(false);
    std::cin.tie(nullptr);
    // No wake pipe on stdio: the handler (installed without SA_RESTART)
    // interrupts the blocked stdin read itself, and the fired token
    // aborts whatever is solving, so SIGINT/SIGTERM still drain, save
    // and exit 0 within a bounded latency.
    ccov::engine::net::install_signal_shutdown(-1, &shutdown_token);
    rc = ccov::engine::serve_loop(std::cin, std::cout, engine, config);
  }
  if (!config.cache_file.empty()) {
    // A failed save-on-exit (disk full, I/O error) must be loud: the
    // operator asked for persistence and did not get it. The previous
    // snapshot, if any, is still intact (atomic temp-then-rename).
    try {
      ccov::engine::save_snapshot_file(config.cache_file, engine.cache());
      std::cerr << "serve: saved " << engine.cache().size() << " entries to "
                << config.cache_file << "\n";
    } catch (const std::exception& e) {
      std::cerr << "serve: save-on-exit failed: " << e.what() << "\n";
      return rc != 0 ? rc : 1;
    }
  }
  return rc;
}

/// `ccov client --shm NAME`: the shared-memory analog of bash's
/// /dev/tcp — pump JSONL from stdin through a served segment and print
/// the response lines to stdout. Sends and receives are interleaved so
/// a batch larger than the rings cannot deadlock on backpressure.
int cmd_client(const ccov::util::Cli& cli) {
  const std::string name = cli.get("shm", "");
  if (name.empty()) {
    std::cerr << "client: --shm NAME required\n";
    return 1;
  }
  ccov::engine::shm::ShmClient client;
  std::string error;
  // Two distinct transient failures get retried: losing the claim race
  // against the server's between-sessions reset (short fixed retries, as
  // before), and the segment not existing yet — a client started moments
  // before its server. The latter backs off exponentially (1ms doubling
  // to 100ms) within the --connect-retry-ms budget, so scripted
  // "server & client &" races converge without hammering shm_open.
  const std::int64_t retry_budget_ms =
      std::max<std::int64_t>(0, cli.get_int("connect-retry-ms", 2000));
  const auto sleep_ms = [](std::int64_t ms) {
    const timespec ts{static_cast<time_t>(ms / 1000),
                      static_cast<long>(ms % 1000) * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  };
  std::int64_t waited_ms = 0;
  std::int64_t backoff_ms = 1;
  for (int busy_attempts = 0; !client.connect(name, &error);) {
    if (error.find("busy (session reset)") != std::string::npos &&
        busy_attempts < 100) {
      ++busy_attempts;
      sleep_ms(10);
      continue;
    }
    if (error.find("cannot open shm segment") != std::string::npos &&
        waited_ms < retry_budget_ms) {
      const std::int64_t delay =
          std::min(backoff_ms, retry_budget_ms - waited_ms);
      sleep_ms(delay);
      waited_ms += delay;
      backoff_ms = std::min<std::int64_t>(backoff_ms * 2, 100);
      continue;
    }
    std::cerr << "client: " << error << "\n";
    return 1;
  }

  // One rx buffer for the whole session: a drain can land mid-line
  // (reliably so under response-ring backpressure), and a line split
  // across two drains must be reassembled in the same buffer — mixing
  // this with ShmClient's internal read_line buffer would tear it.
  std::string rx;
  std::size_t requests = 0;
  std::size_t responses = 0;
  const auto flush_lines = [&] {
    std::size_t nl;
    while ((nl = rx.find('\n')) != std::string::npos) {
      std::cout.write(rx.data(), static_cast<std::streamsize>(nl + 1));
      rx.erase(0, nl + 1);
      ++responses;
    }
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    line += '\n';
    ++requests;
    std::size_t off = 0;
    while (off < line.size()) {
      off += client.try_send(line.data() + off, line.size() - off);
      // Drain responses between partial sends: with both rings bounded,
      // one side must always keep consuming or a big batch deadlocks.
      client.drain_available(&rx);
      flush_lines();
      if (off < line.size()) {
        if (!client.ok()) {
          std::cerr << "client: server went away mid-send\n";
          return 1;
        }
        client.wait_send(50);
      }
    }
  }
  client.finish();
  while (client.read_some(&rx) > 0) flush_lines();
  flush_lines();
  // The protocol answers every request line with exactly one response
  // line, so a clean session ends with matching counts, an empty rx
  // (no torn trailing line) and the server's eof mark. Anything else
  // means a crashed or shut-down server truncated the stream — print
  // what arrived, but say so and fail.
  const bool complete =
      client.server_finished() && rx.empty() && responses == requests;
  if (!rx.empty()) std::cout.write(rx.data(), static_cast<std::streamsize>(rx.size()));
  std::cout.flush();
  client.close();
  if (!complete) {
    std::cerr << "client: session aborted before the server finished ("
              << responses << " of " << requests
              << " responses received; output may be truncated)\n";
    return 1;
  }
  return 0;
}

int cmd_cache(const ccov::util::Cli& cli) {
  const auto& pos = cli.positional();
  const std::string verb = pos.size() > 1 ? pos[1] : "";
  const std::string file = cli.get("cache-file", "");
  if (verb.empty() || file.empty()) {
    std::cerr << "cache: usage: ccov cache stats|save|load|clear "
                 "--cache-file F\n";
    return 1;
  }

  if (verb == "stats" || verb == "load") {
    ccov::engine::CoverCache cache(warm_capacity(file, 1));
    const std::size_t entries =
        ccov::engine::load_snapshot_file(file, cache);
    std::cout << "file:    " << file << "\n"
              << "version: " << ccov::engine::kSnapshotVersion << "\n"
              << "bytes:   " << std::filesystem::file_size(file) << "\n"
              << "entries: " << entries << "\n";
    if (verb == "stats") {
      // Per-algorithm breakdown: the canonical key starts "algo|n=...".
      std::map<std::string, std::size_t> per_algo;
      for (const auto& [key, resp] : cache.export_entries())
        ++per_algo[key.substr(0, key.find('|'))];
      for (const auto& [algo, count] : per_algo)
        std::cout << "  " << algo << ": " << count << "\n";
    } else {
      std::cout << "load: snapshot ok\n";
    }
    return 0;
  }
  if (verb == "clear") {
    ccov::engine::CoverCache empty(1);
    ccov::engine::save_snapshot_file(file, empty);
    std::cout << "cleared " << file << "\n";
    return 0;
  }
  if (verb == "save") {
    // Offline warming: run the given sweep through an engine seeded from
    // the snapshot (if present) and persist the merged store.
    const auto n_from =
        static_cast<std::uint32_t>(cli.get_int("n-from", 3));
    const auto n_to =
        static_cast<std::uint32_t>(cli.get_int("n-to", n_from));
    const auto step = static_cast<std::uint32_t>(cli.get_int("step", 1));
    if (n_from < 3 || n_to < n_from || step == 0) {
      std::cerr << "cache save: need 3 <= --n-from <= --n-to and --step >= "
                   "1\n";
      return 1;
    }
    ccov::engine::EngineOptions eopts;
    eopts.cache_capacity = warm_capacity(file, 1 << 16);
    ccov::engine::Engine engine(eopts);
    load_snapshot_if_exists(file, engine.cache());
    std::vector<ccov::engine::CoverRequest> requests;
    for (std::uint32_t n = n_from; n <= n_to; n += step)
      requests.push_back(make_request(cli, n));
    ccov::engine::BatchRunner runner(
        engine, {static_cast<std::size_t>(cli.get_int("jobs", 0))});
    int failures = 0;
    for (const auto& resp : runner.run(requests)) {
      if (resp.ok) continue;
      ++failures;
      std::cerr << "cache save: " << resp.algorithm << " n=" << resp.n
                << ": " << resp.error << "\n";
    }
    ccov::engine::save_snapshot_file(file, engine.cache());
    std::cout << "saved " << engine.cache().size() << " entries to " << file
              << "\n";
    return failures == 0 ? 0 : 1;
  }
  std::cerr << "cache: unknown verb '" << verb
            << "' (expected stats|save|load|clear)\n";
  return 1;
}

int cmd_algos() {
  const auto& reg = ccov::engine::AlgorithmRegistry::global();
  ccov::util::Table t({"name", "description"});
  for (const auto& name : reg.names())
    t.add(name, reg.find(name)->description);
  t.print(std::cout, "registered algorithms");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ccov::util::Cli cli(argc, argv);
  if (cli.has("version")) {
    std::cout << "ccov " << CCOV_VERSION << "\n";
    return 0;
  }
  const auto& pos = cli.positional();
  const std::string cmd = pos.empty() ? "help" : pos[0];
  try {
    if (cmd == "cover") return cmd_cover(cli);
    if (cmd == "validate") return cmd_validate(cli);
    if (cmd == "bounds") return cmd_bounds(cli);
    if (cmd == "solve") return cmd_solve(cli);
    if (cmd == "protect") return cmd_protect(cli);
    if (cmd == "run") return cmd_run(cli);
    if (cmd == "sweep") return cmd_sweep(cli);
    if (cmd == "serve") return cmd_serve(cli);
    if (cmd == "client") return cmd_client(cli);
    if (cmd == "cache") return cmd_cache(cli);
    if (cmd == "algos") return cmd_algos();
  } catch (const std::exception& e) {
    std::cerr << "ccov " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  if (cmd == "help") {
    print_usage(std::cout);
    return 0;
  }
  std::cerr << "ccov: unknown subcommand '" << cmd << "'\n";
  print_usage(std::cerr);
  return 1;
}
