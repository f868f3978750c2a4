// lash_served — the network front door of the serving layer: a TCP epoll
// event-loop server speaking the framed wire protocol of net/wire.h.
//
// Worker mode (default) serves a MiningService over snapshot-loaded shards:
//   lash_served (--snapshot FILE[,FILE...] [--mmap] |
//                --sequences FILE --hierarchy FILE | --gen nyt|amzn ...)
//               [--bind ADDR] [--port N] [--port-file FILE]
//               [--threads N] [--queue N] [--block] [--cache-mb N]
//   --snapshot takes a comma-separated list; each file becomes one shard
//   (TaskSpec::shard routes between them).
//
// Router mode scatters each query across shard workers and serves the
// merged answer through the same protocol. By default it runs the exact
// two-phase candidate/count protocol (phase-1 mine at the pigeonhole bound
// ⌈σ/k⌉, phase-2 exact recount of the union candidates; see net/router.h
// for the merge contract); --shard-sigma 1 is the one-phase σ′=1 path:
//   lash_served --router --workers HOST:PORT[,HOST:PORT...]
//               [--shard-sigma N]
//               [--bind ADDR] [--port N] [--port-file FILE]
//               [--threads N] [--io-timeout-ms N] [--slow-ms N]
//
// Both modes print "listening on ADDR:PORT" to stderr once the port is
// bound (and write the bare port to --port-file, for scripts that asked for
// an ephemeral --port 0), then run until SIGTERM/SIGINT, which triggers a
// graceful drain: no new connections, in-flight queries finish and flush.

#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/lash_api.h"
#include "net/router.h"
#include "net/server.h"
#include "net/service_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/mining_service.h"
#include "tools/arg_parse.h"
#include "tools/dataset_args.h"
#include "tools/obs_args.h"

namespace {

using namespace lash;

net::NetServer* g_server = nullptr;

void HandleSignal(int) {
  // Shutdown() is async-signal-safe: an atomic store plus an eventfd write.
  if (g_server != nullptr) g_server->Shutdown();
}

void InstallSignalHandlers() {
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) items.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

/// Binds, announces the port, runs to graceful shutdown.
int Serve(net::ServerOptions options, net::Backend* backend,
          const tools::Args& args) {
  net::NetServer server(std::move(options), backend);
  g_server = &server;
  InstallSignalHandlers();

  if (args.Has("port-file")) {
    const std::string path = args.Require("port-file");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "lash_served: cannot write port file " << path << "\n";
      return 2;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }
  std::fprintf(stderr, "listening on %s:%u\n",
               args.Get("bind", "127.0.0.1").c_str(), server.port());
  std::fflush(stderr);

  server.Run();
  g_server = nullptr;
  std::fprintf(stderr, "lash_served: drained, exiting\n");
  return 0;
}

int RealMain(const tools::Args& args) {
  // One process, one registry, one tracer: every component (service,
  // router, event loop) records into the Global registry, which is what
  // the stats/metrics RPCs expose.
  tools::MaybeOpenTraceFile(args);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();

  net::ServerOptions server_options;
  server_options.bind_address = args.Get("bind", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(args.GetInt("port", 0, 65535));
  server_options.metrics = &metrics;

  if (args.Has("router")) {
    std::vector<net::WorkerAddress> workers;
    for (const std::string& address : SplitCommaList(args.Require("workers"))) {
      workers.push_back(net::ParseWorkerAddress(address));
    }
    if (workers.empty()) {
      throw tools::ArgError("--workers needs at least one HOST:PORT");
    }
    net::RouterOptions options;
    // 0 keeps the default σ′, the pigeonhole bound ⌈σ/k⌉; 1 is the
    // one-phase baseline.
    options.shard_sigma = args.GetInt("shard-sigma", 0);
    options.scatter_threads = args.GetInt("threads", 0);
    options.client.io_timeout_ms =
        static_cast<int>(args.GetInt("io-timeout-ms", 0));
    options.metrics = &metrics;
    options.slow_query_ms = static_cast<double>(args.GetInt("slow-ms", 0));
    const size_t num_workers = workers.size();
    net::RouterBackend backend(std::move(workers), options);
    if (options.shard_sigma != 0) {
      std::fprintf(stderr, "routing across %zu workers (shard sigma %llu)\n",
                   num_workers, (unsigned long long)options.shard_sigma);
    } else {
      std::fprintf(stderr,
                   "routing across %zu workers (pigeonhole shard sigma)\n",
                   num_workers);
    }
    return Serve(std::move(server_options), &backend, args);
  }

  // Worker mode: load every shard before binding the port, so a script
  // that waits for the port file never races a half-loaded server.
  std::vector<std::unique_ptr<Dataset>> owned;
  if (args.Has("snapshot")) {
    const Dataset::LoadMode mode = args.Has("mmap") ? Dataset::LoadMode::kMmap
                                                    : Dataset::LoadMode::kCopy;
    for (const std::string& path : SplitCommaList(args.Require("snapshot"))) {
      owned.emplace_back(
          std::unique_ptr<Dataset>(new Dataset(Dataset::FromSnapshot(path,
                                                                     mode))));
      tools::VerifyIfMapped(*owned.back());
    }
    if (owned.empty()) throw tools::ArgError("--snapshot names no files");
  } else {
    owned.emplace_back(std::unique_ptr<Dataset>(
        new Dataset(tools::LoadDatasetFromArgs(args, /*allow_gen=*/true))));
  }
  std::vector<const Dataset*> shards;
  for (const auto& dataset : owned) {
    shards.push_back(dataset.get());
    std::fprintf(stderr, "shard %zu: dataset %llu, %zu sequences, %zu items\n",
                 shards.size() - 1, (unsigned long long)dataset->id(),
                 dataset->NumSequences(), dataset->NumItems());
  }

  serve::ServiceOptions service_options;
  service_options.executor_threads = args.GetInt("threads", 0);
  service_options.queue_capacity = args.GetInt("queue", 64);
  service_options.admission = args.Has("block")
                                  ? serve::AdmissionPolicy::kBlock
                                  : serve::AdmissionPolicy::kReject;
  service_options.cache_bytes = args.GetInt("cache-mb", 64) << 20;
  service_options.metrics = &metrics;
  service_options.slow_query_ms =
      static_cast<double>(args.GetInt("slow-ms", 0));
  net::ServiceBackend backend(std::move(shards), service_options);
  return Serve(std::move(server_options), &backend, args);
}

}  // namespace

int main(int argc, char** argv) {
  using lash::tools::Args;
  try {
    Args args(argc, argv, {{"snapshot"},
                           {"sequences"},
                           {"hierarchy"},
                           {"save-snapshot"},
                           {"mmap", false},
                           {"gen"},
                           {"sentences"},
                           {"lemmas"},
                           {"sessions"},
                           {"products"},
                           {"levels"},
                           {"seed"},
                           {"bind"},
                           {"port"},
                           {"port-file"},
                           {"threads"},
                           {"queue"},
                           {"block", false},
                           {"cache-mb"},
                           {"router", false},
                           {"workers"},
                           {"shard-sigma"},
                           {"io-timeout-ms"},
                           {"trace-out"},
                           {"slow-ms"}});
    if (args.Has("help")) {
      std::cout
          << "worker: lash_served (--snapshot FILE[,FILE...] [--mmap] | "
             "--sequences FILE --hierarchy FILE | --gen nyt|amzn) "
             "[--bind ADDR] [--port N] [--port-file FILE] [--threads N] "
             "[--queue N] [--block] [--cache-mb N] [--trace-out FILE] "
             "[--slow-ms N]\n"
             "router: lash_served --router --workers HOST:PORT[,...] "
             "[--shard-sigma N] [--bind ADDR] [--port N] "
             "[--port-file FILE] [--threads N] [--io-timeout-ms N] "
             "[--trace-out FILE] [--slow-ms N]\n";
      return 0;
    }
    return RealMain(args);
  } catch (const std::exception& e) {
    std::cerr << "lash_served: " << e.what() << "\n";
    return 2;
  }
}
