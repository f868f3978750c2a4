// lash_serve — drive a lash::serve::MiningService from a query script or an
// interactive REPL: the serving layer's command-line front end.
//
// Usage:
//   lash_serve (--sequences FILE --hierarchy FILE | --snapshot FILE |
//               --gen nyt|amzn ... | --connect HOST:PORT)
//              (--script FILE | --repl)
//              [--threads N] [--queue N] [--block] [--cache-mb N]
//              [--print K] [--seed N] [--save-snapshot FILE] [--mmap]
//
// --connect runs the same commands against a remote lash_served (worker or
// router) through net/client.h instead of an in-process service: `mine` is
// synchronous and prints the top --print patterns as frequency<TAB>names
// lines on stdout (summaries go to stderr, so piped pattern output stays
// clean; --print 0 prints every pattern), `stats` fetches the remote
// counters, `wait` is a no-op.
//   data generation (self-contained smoke runs, no input files needed;
//   recipes shared with the perf gates via datagen/corpus_recipes.h):
//              --gen nyt  [--sentences N] [--lemmas N]
//              --gen amzn [--sessions N] [--products N] [--levels 2..8]
//   --snapshot loads a one-file dataset snapshot (skips parsing and
//   preprocessing); --save-snapshot writes one after loading/generating.
//
// Script format (newline-delimited; '#' starts a comment):
//   mine key=value...   submit a query asynchronously
//       keys: algo sigma gamma lambda miner rewrite combiner flat filter top
//             threads shard deadline shard_sigma
//   shard_sigma overrides a router's phase-1 scatter threshold for that
//   query (0 = the router's default, the pigeonhole bound; only meaningful
//   with --connect against a router). --shard-sigma N sets the session
//   default for lines that don't say shard_sigma=.
//   wait                drain outstanding queries, printing one line each
//   stats               print a ServiceStats snapshot
// EOF implies a final `wait`. In --repl mode the same commands are read from
// stdin, `mine` waits synchronously (printing the top --print patterns), and
// `quit` exits.
//
// Exit code 2 on any configuration or script error (script mode is strict:
// a malformed line aborts the run).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/lash_api.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/mining_service.h"
#include "stats/filters.h"
#include "tools/arg_parse.h"
#include "tools/dataset_args.h"
#include "tools/obs_args.h"

namespace {

using namespace lash;
using namespace lash::serve;

struct ScriptError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

uint64_t ParseUint(const std::string& key, const std::string& value,
                   uint64_t max = std::numeric_limits<uint64_t>::max()) {
  uint64_t parsed = 0;
  if (!tools::ParseStrictUint64(value, &parsed) || parsed > max) {
    throw ScriptError("bad value for " + key + ": '" + value + "'");
  }
  return parsed;
}

RewriteLevel ParseRewriteLevel(const std::string& name) {
  if (name == "none") return RewriteLevel::kNone;
  if (name == "generalize") return RewriteLevel::kGeneralizeOnly;
  if (name == "full") return RewriteLevel::kFull;
  throw ScriptError("unknown rewrite '" + name + "' (use none|generalize|full)");
}

/// Parses the key=value tail of a `mine` line.
TaskSpec ParseSpec(std::istringstream& in) {
  TaskSpec spec;
  spec.params.sigma = 100;
  spec.params.lambda = 5;
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw ScriptError("expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "algo") {
      spec.algorithm = ParseAlgorithm(value);
    } else if (key == "sigma") {
      spec.params.sigma = ParseUint(key, value);
    } else if (key == "gamma") {
      spec.params.gamma = static_cast<uint32_t>(
          ParseUint(key, value, std::numeric_limits<uint32_t>::max()));
    } else if (key == "lambda") {
      spec.params.lambda = static_cast<uint32_t>(
          ParseUint(key, value, std::numeric_limits<uint32_t>::max()));
    } else if (key == "miner") {
      spec.miner = ParseMinerKind(value);
    } else if (key == "rewrite") {
      spec.rewrite = ParseRewriteLevel(value);
    } else if (key == "combiner") {
      if (value != "on" && value != "off") {
        throw ScriptError("combiner must be on|off");
      }
      spec.combiner = value == "on";
    } else if (key == "flat") {
      spec.flat = ParseUint(key, value) != 0;
    } else if (key == "filter") {
      spec.filter = ParsePatternFilter(value);
    } else if (key == "top") {
      spec.top_k = ParseUint(key, value);
    } else if (key == "threads") {
      spec.threads = ParseUint(key, value);
    } else if (key == "shard") {
      spec.shard = ParseUint(key, value);
    } else if (key == "deadline") {
      spec.deadline_ms = static_cast<double>(ParseUint(key, value));
    } else if (key == "shard_sigma") {
      spec.shard_sigma = ParseUint(key, value);
    } else {
      throw ScriptError("unknown mine key '" + key + "'");
    }
  }
  return spec;
}

void PrintStats(const ServiceStats& s) {
  std::printf(
      "stats: submitted=%llu hits=%llu misses=%llu coalesced=%llu "
      "invalid=%llu completed=%llu rejected=%llu cancelled=%llu "
      "deadline_expired=%llu failed=%llu executions=%llu\n",
      (unsigned long long)s.submitted, (unsigned long long)s.hits,
      (unsigned long long)s.misses, (unsigned long long)s.coalesced,
      (unsigned long long)s.invalid, (unsigned long long)s.completed,
      (unsigned long long)s.rejected, (unsigned long long)s.cancelled,
      (unsigned long long)s.deadline_expired, (unsigned long long)s.failed,
      (unsigned long long)s.executions);
  std::printf(
      "cache: entries=%llu bytes=%llu evictions=%llu "
      "oversized_rejects=%llu depth=%zu\n",
      (unsigned long long)s.cache_entries, (unsigned long long)s.cache_bytes,
      (unsigned long long)s.cache_evictions,
      (unsigned long long)s.cache_oversized_rejects, s.queue_depth);
  std::printf(
      "latency: hit p50=%.3fms p95=%.3fms mean=%.3fms | "
      "mine p50=%.1fms p95=%.1fms mean=%.1fms\n",
      s.hit_p50_ms, s.hit_p95_ms, s.hit_mean_ms, s.mine_p50_ms, s.mine_p95_ms,
      s.mine_mean_ms);
  std::fflush(stdout);
}

/// The full registry snapshot, one indented `name value` line per sample —
/// the live stats surface behind the fixed-format summary above.
void PrintMetrics(const std::vector<obs::MetricSample>& samples) {
  std::printf("metrics: %zu samples\n", samples.size());
  for (const obs::MetricSample& sample : samples) {
    std::printf("  %s %.6g\n", sample.name.c_str(), sample.value);
  }
  std::fflush(stdout);
}

/// One submitted-but-unprinted query.
struct Outstanding {
  size_t index;
  std::string line;
  PendingResult result;
};

void PrintResult(const MiningService& service, const Outstanding& out,
                 size_t print_top) {
  if (!out.result.ok()) {
    std::printf("[%zu] %s -> ERROR %s: %s\n", out.index, out.line.c_str(),
                ServeErrorCodeName(out.result.error_code()),
                out.result.error_message().c_str());
    return;
  }
  const Response& r = out.result.Get();
  const char* source = r.cache_hit ? "hit" : (r.coalesced ? "coalesced"
                                                          : "miss");
  std::printf("[%zu] %s -> %zu patterns, %s, %.2f ms\n", out.index,
              out.line.c_str(), r.patterns().size(), source, r.latency_ms);
  if (print_top > 0) {
    const Dataset& dataset = service.shard(0);
    auto top = TopK(r.patterns(), print_top);
    for (const auto& [seq, freq] : top) {
      std::string names;
      for (ItemId rank : seq) {
        if (!names.empty()) names += ' ';
        names += dataset.NameOfRank(rank, r.run().used_flat_hierarchy);
      }
      std::printf("    %llu\t%s\n", (unsigned long long)freq, names.c_str());
    }
  }
  std::fflush(stdout);
}

int RunCommands(std::istream& in, MiningService& service, bool interactive,
                size_t print_top) {
  std::vector<Outstanding> outstanding;
  size_t next_index = 0;
  auto drain = [&] {
    for (const Outstanding& out : outstanding) {
      PrintResult(service, out, interactive ? print_top : 0);
    }
    outstanding.clear();
  };

  std::string line;
  if (interactive) std::printf("lash> "), std::fflush(stdout);
  while (std::getline(in, line)) {
    try {
      std::istringstream tokens(line);
      std::string command;
      if (tokens >> command && command[0] != '#') {
        if (command == "mine") {
          TaskSpec spec = ParseSpec(tokens);
          spec.trace = tools::NewRequestTrace();
          Outstanding out{next_index++, line, service.Submit(spec)};
          if (interactive) {
            PrintResult(service, out, print_top);
          } else {
            outstanding.push_back(std::move(out));
          }
        } else if (command == "wait") {
          drain();
        } else if (command == "stats") {
          drain();
          PrintStats(service.Stats());
          PrintMetrics(service.metrics().Snapshot());
        } else if (interactive && (command == "quit" || command == "exit")) {
          return 0;
        } else {
          throw ScriptError("unknown command '" + command + "'");
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lash_serve: %s\n", e.what());
      if (!interactive) return 2;  // Script mode is strict.
    }
    if (interactive) std::printf("lash> "), std::fflush(stdout);
  }
  drain();
  return 0;
}

/// The --connect command loop: the same script grammar served by a remote
/// lash_served. Every mine is a synchronous round trip (the wire protocol
/// pipelines per connection, but a script is sequential anyway), so `wait`
/// has nothing to drain.
int RunNetworkCommands(std::istream& in, net::NetClient& client,
                       bool interactive, size_t print_top,
                       Frequency default_shard_sigma) {
  size_t next_index = 0;
  std::string line;
  if (interactive) std::printf("lash> "), std::fflush(stdout);
  while (std::getline(in, line)) {
    try {
      std::istringstream tokens(line);
      std::string command;
      if (tokens >> command && command[0] != '#') {
        if (command == "mine") {
          TaskSpec spec = ParseSpec(tokens);
          // --shard-sigma is the session default; a per-line shard_sigma=
          // wins. 0 leaves the router's own default (the pigeonhole bound).
          if (spec.shard_sigma == 0) spec.shard_sigma = default_shard_sigma;
          // Minted here, at the edge: the client.mine root span owns the
          // round trip, and its context rides the mine request through the
          // router to every worker. Untraced runs send an inactive context.
          obs::Span root(&obs::Tracer::Global(), tools::NewRequestTrace(),
                         "client.mine");
          spec.trace = root.context();
          const size_t index = next_index++;
          try {
            const net::MineReply reply = client.Mine(spec);
            const char* source =
                reply.cache_hit ? "hit"
                                : (reply.coalesced ? "coalesced" : "miss");
            std::fprintf(stderr,
                         "[%zu] %s -> %zu patterns, %s, server %.2f ms, "
                         "round trip %.2f ms\n",
                         index, line.c_str(), reply.patterns.size(), source,
                         reply.server_ms, reply.round_trip_ms);
            const size_t limit =
                print_top == 0 ? reply.patterns.size()
                               : std::min(print_top, reply.patterns.size());
            for (size_t i = 0; i < limit; ++i) {
              std::string names;
              for (const std::string& item : reply.patterns[i].items) {
                if (!names.empty()) names += ' ';
                names += item;
              }
              std::printf("%llu\t%s\n",
                          (unsigned long long)reply.patterns[i].frequency,
                          names.c_str());
            }
            std::fflush(stdout);
          } catch (const ServeError& e) {
            std::fprintf(stderr, "[%zu] %s -> ERROR %s: %s\n", index,
                         line.c_str(), ServeErrorCodeName(e.code()), e.what());
            if (!interactive) return 2;
          }
        } else if (command == "wait") {
          // Synchronous client: nothing outstanding.
        } else if (command == "stats") {
          PrintStats(client.Stats());
          PrintMetrics(client.Metrics());
        } else if (interactive && (command == "quit" || command == "exit")) {
          return 0;
        } else {
          throw ScriptError("unknown command '" + command + "'");
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lash_serve: %s\n", e.what());
      if (!interactive) return 2;  // Script mode is strict.
    }
    if (interactive) std::printf("lash> "), std::fflush(stdout);
  }
  return 0;
}

int RealMain(const lash::tools::Args& args) {
  tools::MaybeOpenTraceFile(args);
  ServiceOptions options;
  options.executor_threads = args.GetInt("threads", 0);
  options.queue_capacity = args.GetInt("queue", 64);
  options.admission = args.Has("block") ? AdmissionPolicy::kBlock
                                        : AdmissionPolicy::kReject;
  options.cache_bytes = args.GetInt("cache-mb", 64) << 20;
  const size_t print_top = args.GetInt("print", 10);

  const bool repl = args.Has("repl");
  if (repl == args.Has("script")) {
    std::cerr << "lash_serve: pass exactly one of --script FILE or --repl\n";
    return 2;
  }

  if (args.Has("connect")) {
    const net::WorkerAddress address =
        net::ParseWorkerAddress(args.Require("connect"));
    net::ClientOptions client_options;
    client_options.io_timeout_ms =
        static_cast<int>(args.GetInt("io-timeout-ms", 0));
    net::NetClient client(address.host, address.port, client_options);
    const Frequency shard_sigma = args.GetInt("shard-sigma", 0);
    if (repl) {
      return RunNetworkCommands(std::cin, client, /*interactive=*/true,
                                print_top, shard_sigma);
    }
    const std::string script_path = args.Require("script");
    std::ifstream script(script_path);
    if (!script) {
      std::cerr << "lash_serve: cannot open script " << script_path << "\n";
      return 2;
    }
    return RunNetworkCommands(script, client, /*interactive=*/false,
                              print_top, shard_sigma);
  }

  // Load or generate the dataset before opening the script, so data errors
  // are reported first; exactly one source (text | snapshot | --gen, the
  // shared recipes of datagen/corpus_recipes.h) like every dataset tool.
  Dataset dataset = tools::LoadDatasetFromArgs(args, /*allow_gen=*/true);
  tools::VerifyIfMapped(dataset);
  tools::MaybeSaveSnapshot(args, dataset);
  std::fprintf(stderr,
               "serving dataset %llu: %zu sequences, %zu items "
               "(read %.1f ms, preprocess %.1f ms)\n",
               (unsigned long long)dataset.id(), dataset.NumSequences(),
               dataset.NumItems(), dataset.load_times().read_ms,
               dataset.load_times().preprocess_ms);

  MiningService service(dataset, options);
  if (repl) {
    return RunCommands(std::cin, service, /*interactive=*/true, print_top);
  }
  const std::string script_path = args.Require("script");
  std::ifstream script(script_path);
  if (!script) {
    std::cerr << "lash_serve: cannot open script " << script_path << "\n";
    return 2;
  }
  return RunCommands(script, service, /*interactive=*/false, print_top);
}

}  // namespace

int main(int argc, char** argv) {
  using lash::tools::Args;
  try {
    Args args(argc, argv, {{"sequences"},
                           {"hierarchy"},
                           {"snapshot"},
                           {"save-snapshot"},
                           {"mmap", false},
                           {"gen"},
                           {"sentences"},
                           {"lemmas"},
                           {"sessions"},
                           {"products"},
                           {"levels"},
                           {"seed"},
                           {"script"},
                           {"repl", false},
                           {"threads"},
                           {"queue"},
                           {"block", false},
                           {"cache-mb"},
                           {"print"},
                           {"connect"},
                           {"shard-sigma"},
                           {"io-timeout-ms"},
                           {"trace-out"}});
    if (args.Has("help")) {
      std::cout
          << "lash_serve (--sequences FILE --hierarchy FILE | --snapshot FILE"
             " | --gen nyt|amzn | --connect HOST:PORT) (--script FILE |"
             " --repl) [--threads N] [--queue N] [--block] [--cache-mb N]"
             " [--print K] [--io-timeout-ms N] [--shard-sigma N]"
             " [--trace-out FILE] [--save-snapshot FILE] [--mmap]\n"
             "script commands: mine key=value... | wait | stats\n"
             "--shard-sigma N (with --connect): default per-query router"
             " scatter threshold override; 0 = the router's pigeonhole"
             " default. Per line: mine ... shard_sigma=N\n";
      return 0;
    }
    return RealMain(args);
  } catch (const std::exception& e) {
    std::cerr << "lash_serve: " << e.what() << "\n";
    return 2;
  }
}
