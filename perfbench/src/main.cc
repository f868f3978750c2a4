// perfbench — the repository benchmark: open-loop load on real lash_served
// processes, end-to-end latency/CPU/memory per workload, and (with
// --trace 1) per-layer numbers from timed calls into each layer.
//
//   perfbench --workload router-cold|hot-mix --seed N
//             --seconds S --trace 0|1 --served PATH --work-dir DIR
//             [--source-id TEXT]
//
// Prints a `report {...}` line with the run's context (host and build, the
// seed, a digest of the request list, offered rates, sample counts), then,
// as its last line, the result object {"correct", "attempted", "failed",
// "metrics"}. Exits 1 without a result when the run cannot be carried out.
// See perfbench/README.md for the workloads and metrics.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/lash_api.h"
#include "attribution.h"
#include "cluster.h"
#include "loadgen.h"
#include "net/client.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using lash::serve::TaskSpec;

constexpr int kSetupRuns = 21;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string served;
  std::string work_dir;
  std::string source_id = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--served") {
      args.served = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !have_seed ||
      args.seconds <= 0 || args.served.empty() || args.work_dir.empty()) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--served PATH --work-dir DIR [--source-id TEXT]");
  }
  return args;
}

/// What one reply said beyond pass/fail, for the per-layer numbers.
struct ReplyInfo {
  double server_ms = 0;
  double round_trip_ms = 0;
  double mine_ms = 0;
  bool cache_hit = false;
};

/// One lane's requests and their outcomes.
struct LaneResult {
  std::vector<RequestTiming> timings;
  std::vector<ReplyInfo> replies;
};

/// Drives one lane: request i is `specs[i]`, checked against `reference`.
LaneResult DriveLane(const std::vector<TaskSpec>& specs,
                     const std::vector<double>& due_ms,
                     std::vector<std::unique_ptr<lash::net::NetClient>>& clients,
                     const Reference& reference, double origin_ms,
                     std::mutex* log_mu) {
  LaneResult lane;
  lane.replies.resize(specs.size());
  // The reply each connection received last, checked after its timing.
  std::vector<lash::NamedPatternList> received(clients.size());
  auto send = [&](size_t connection, size_t i) {
    try {
      lash::net::MineReply reply = clients[connection]->Mine(specs[i]);
      lane.replies[i] = {reply.server_ms, reply.round_trip_ms, reply.run.mine_ms,
                         reply.cache_hit};
      received[connection] = std::move(reply.patterns);
      return true;
    } catch (const std::exception& e) {
      // Typed ServeErrors (refusals, deadlines, transport faults) and
      // malformed replies alike count as failed operations.
      std::lock_guard<std::mutex> lock(*log_mu);
      std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
      return false;
    }
  };
  auto check = [&](size_t connection, size_t i) {
    if (CanonicalHash(received[connection]) == reference.ExpectedHash(specs[i])) {
      return true;
    }
    std::lock_guard<std::mutex> lock(*log_mu);
    std::fprintf(stderr, "perfbench: reply mismatch (sigma=%llu)\n",
                 static_cast<unsigned long long>(specs[i].params.sigma));
    return false;
  };
  lane.timings = RunLane(due_ms, clients.size(), origin_ms, send, check);
  return lane;
}

/// Latencies of a lane, failures as +inf (they miss every latency limit).
std::vector<double> Latencies(const LaneResult& lane) {
  std::vector<double> out;
  for (const RequestTiming& t : lane.timings) {
    out.push_back(t.ok ? t.LatencyMs() : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// Sum of the named counter over the workers' metrics snapshots.
double SumMetric(const std::vector<std::vector<lash::obs::MetricSample>>& snapshots,
                 const std::string& name) {
  double total = 0;
  for (const auto& snapshot : snapshots) {
    for (const lash::obs::MetricSample& sample : snapshot) {
      if (sample.name == name) total += sample.value;
    }
  }
  return total;
}

std::vector<std::vector<lash::obs::MetricSample>> WorkerMetrics(const Cluster& cluster) {
  std::vector<std::vector<lash::obs::MetricSample>> out;
  for (const ServerProcess& worker : cluster.workers()) {
    lash::net::NetClient client("127.0.0.1", worker.port);
    out.push_back(client.Metrics());
  }
  return out;
}

std::string JsonNumber(double value) {
  // A failed request makes a percentile infinite; JSON has no infinity, so
  // it is written as a huge finite number (the run is marked incorrect).
  if (!std::isfinite(value)) value = 1e300;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"cold_p50_ms", "ms"},  {"cold_p90_ms", "ms"},      {"hit_p50_ms", "ms"},
    {"hit_p95_ms", "ms"},   {"cpu_ms_per_query", "ms"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"io.snapshot_load_ms", "ms"},     {"io.reply_encode_ms", "ms"},
    {"io.reply_decode_ms", "ms"},      {"io.reply_bytes", "bytes"},
    {"api.mine_ms", "ms"},             {"miner.patterns_per_query", "count"},
    {"mr.map_ms", "ms"},               {"mr.shuffle_ms", "ms"},
    {"mr.reduce_ms", "ms"},            {"mr.map_output_bytes", "bytes"},
    {"mr.phase_overlap_ms", "ms"},     {"serve.queue_wait_ms", "ms"},
    {"serve.hit_ms", "ms"},            {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"}, {"serve.count_ms", "ms"},
    {"serve.count_candidates", "count"}, {"net.wire_ms", "ms"},
    {"router.scatter_ms", "ms"},       {"router.phase1_ms", "ms"},
    {"router.count_phase_ms", "ms"},   {"router.count_wire_ms", "ms"},
    {"router.merge_ms", "ms"},         {"router.count_share", "ratio"},
    {"router.candidate_yield", "ratio"}, {"loadgen.lag_p99_ms", "ms"},
    {"error_rate", "ratio"},
};

std::string MetricsJson(const std::map<std::string, double>& values,
                        const MetricDef* defs, size_t n) {
  std::string out = "{";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += JsonString(defs[i].name) + ": {\"value\": " +
           JsonNumber(values.at(defs[i].name)) + ", \"unit\": " +
           JsonString(defs[i].unit) + "}";
  }
  return out + "}";
}

int Run(const Args& args) {
  const WorkloadConfig* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload +
                                " (router-cold, hot-mix)");
  }
  const CorpusFiles files =
      PrepareCorpus(workload->corpus, workload->shards, args.work_dir);
  const Plan plan = MakePlan(*workload, args.seed, args.seconds);

  // The expected answer of every spec any request or layer call will ask.
  const lash::Dataset union_dataset = lash::Dataset::FromSnapshot(files.full);
  std::vector<TaskSpec> all_specs = plan.cold;
  all_specs.insert(all_specs.end(), plan.popular.begin(), plan.popular.end());
  all_specs.insert(all_specs.end(), plan.attribution.begin(), plan.attribution.end());
  const Reference reference(union_dataset, all_specs);

  ClusterSpec cluster_spec;
  cluster_spec.served_binary = args.served;
  cluster_spec.work_dir = args.work_dir;
  cluster_spec.shard_snapshots = files.shards;
  cluster_spec.router = workload->shards > 1;

  // Set-up time, several times over; the last cluster serves the run.
  std::vector<double> setup_s;
  bool clean_exits = true;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetupRuns; ++i) {
    const double start = NowMs();
    cluster = std::make_unique<Cluster>(cluster_spec);
    setup_s.push_back((NowMs() - start) / 1000.0);
    if (i + 1 < kSetupRuns) clean_exits = cluster->Drain() && clean_exits;
  }

  // One client per connection, connected before the window opens.
  auto connect = [&](size_t n) {
    std::vector<std::unique_ptr<lash::net::NetClient>> clients;
    lash::net::ClientOptions options;
    options.io_timeout_ms = 60000;
    for (size_t c = 0; c < n; ++c) {
      clients.push_back(std::make_unique<lash::net::NetClient>(
          "127.0.0.1", cluster->front_port(), options));
      clients.back()->Metrics();
    }
    return clients;
  };
  auto cold_clients = connect(workload->cold_connections);
  auto hit_clients = connect(workload->hit_connections);

  // Warm the popular specs: a hit is only a hit once its entry exists.
  size_t warm_failures = 0;
  for (const TaskSpec& spec : plan.popular) {
    const lash::net::MineReply reply = hit_clients.front()->Mine(spec);
    if (CanonicalHash(reply.patterns) != reference.ExpectedHash(spec)) ++warm_failures;
  }

  std::vector<TaskSpec> hit_specs;
  for (size_t index : plan.hit_spec) hit_specs.push_back(plan.popular[index]);

  const auto metrics_before = WorkerMetrics(*cluster);
  std::mutex log_mu;
  const double origin = NowMs() + 20;
  const std::vector<int64_t> cpu_before = cluster->CpuTicks();
  LaneResult hit_lane, cold_lane;
  {
    // Joins on scope exit, also when the cold lane throws.
    std::jthread hit_thread([&] {
      hit_lane = DriveLane(hit_specs, plan.hit_due_ms, hit_clients, reference,
                           origin, &log_mu);
    });
    cold_lane = DriveLane(plan.cold, plan.cold_due_ms, cold_clients, reference,
                          origin, &log_mu);
  }
  const std::vector<int64_t> cpu_after = cluster->CpuTicks();
  const double peak_rss_mb = cluster->PeakRssMb();
  const auto metrics_after = WorkerMetrics(*cluster);

  size_t attempted = 0, failed = 0;
  std::vector<double> lags;
  for (const LaneResult* lane : {&cold_lane, &hit_lane}) {
    for (const RequestTiming& t : lane->timings) {
      ++attempted;
      if (!t.ok) ++failed;
      lags.push_back(t.LagMs());
    }
  }

  std::map<std::string, double> values;
  const std::vector<double> cold_latency = Latencies(cold_lane);
  const std::vector<double> hit_latency = Latencies(hit_lane);
  values["cold_p50_ms"] = Percentile(cold_latency, 50);
  values["cold_p90_ms"] = Percentile(cold_latency, 90);
  values["hit_p50_ms"] = Percentile(hit_latency, 50);
  values["hit_p95_ms"] = Percentile(hit_latency, 95);
  // Reported, not bounded: ~10 samples beyond it made it swing by 30-45%
  // between seeds on a 4-core host.
  values["hit_p99_ms"] = Percentile(hit_latency, 99);
  values["cpu_ms_per_query"] = CpuMsPerQuery(
      cpu_before, cpu_after, static_cast<double>(::sysconf(_SC_CLK_TCK)),
      attempted - failed);
  values["setup_s"] = Median(setup_s);
  values["peak_rss_mb"] = peak_rss_mb;

  // Per-layer numbers the load run already carries.
  std::vector<double> queue_wait, wire;
  for (const LaneResult* lane : {&cold_lane, &hit_lane}) {
    for (size_t i = 0; i < lane->timings.size(); ++i) {
      if (!lane->timings[i].ok) continue;
      const ReplyInfo& reply = lane->replies[i];
      wire.push_back(reply.round_trip_ms - reply.server_ms);
      if (lane == &cold_lane && !reply.cache_hit) {
        queue_wait.push_back(reply.server_ms - reply.mine_ms);
      }
    }
  }
  values["serve.queue_wait_ms"] = Median(queue_wait);
  values["net.wire_ms"] = Median(wire);
  const double submitted = SumMetric(metrics_after, "serve.requests.submitted") -
                           SumMetric(metrics_before, "serve.requests.submitted");
  const double hits = SumMetric(metrics_after, "serve.requests.hits") -
                      SumMetric(metrics_before, "serve.requests.hits");
  values["serve.cache_hit_ratio"] = submitted > 0 ? hits / submitted : 0;
  values["serve.cache_evictions"] =
      SumMetric(metrics_after, "serve.cache.evictions") -
      SumMetric(metrics_before, "serve.cache.evictions");
  values["loadgen.lag_p99_ms"] = Percentile(lags, 99);
  values["error_rate"] =
      static_cast<double>(failed) / static_cast<double>(attempted);

  size_t layer_mismatches = 0;
  if (args.trace) {
    // Layers with no router or count phase on this workload read 0.
    for (const char* name :
         {"router.scatter_ms", "router.phase1_ms", "router.count_phase_ms",
          "router.count_wire_ms", "router.merge_ms", "router.count_share",
          "router.candidate_yield", "serve.count_ms", "serve.count_candidates"}) {
      values[name] = 0;
    }
    if (workload->shards > 1) {
      const lash::Dataset shard0 = lash::Dataset::FromSnapshot(files.shards[0]);
      for (const auto& [name, value] :
           AttributeRouter(*cluster, shard0, plan, reference, &layer_mismatches)) {
        values[name] = value;
      }
    }
  }
  clean_exits = cluster->Drain() && clean_exits;
  cluster.reset();
  if (args.trace) {
    for (const auto& [name, value] : AttributeInProcess(files, union_dataset, plan)) {
      values[name] = value;
    }
  }

  const bool correct = failed == 0 && warm_failures == 0 &&
                       layer_mismatches == 0 && clean_exits;
  if (!clean_exits) std::fprintf(stderr, "perfbench: a server exited uncleanly\n");

  std::string report = "{\"workload\": " + JsonString(workload->name) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + JsonNumber(args.seconds) +
                       ", \"trace\": " + (args.trace ? "true" : "false");
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(plan.digest));
  report += ", \"spec_digest\": " + JsonString(digest) +
            ", \"offered_rate_per_s\": {\"cold\": " + JsonNumber(workload->cold_rate) +
            ", \"hit\": " + JsonNumber(workload->hit_rate) + "}" +
            ", \"samples\": {\"cold\": " + std::to_string(cold_latency.size()) +
            ", \"hit\": " + std::to_string(hit_latency.size()) + "}" +
            ", \"supported_percentile\": {\"cold\": " +
            JsonNumber(SupportedPercentile(cold_latency.size())) +
            ", \"hit\": " + JsonNumber(SupportedPercentile(hit_latency.size())) + "}" +
            ", \"host\": {\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
            ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
            ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
            ", \"source\": " + JsonString(args.source_id) +
            ", \"corpus\": " + JsonString(files.recipe) +
            ", \"sequences\": " + std::to_string(union_dataset.NumSequences()) +
            ", \"items\": " + std::to_string(union_dataset.NumItems()) +
            ", \"k\": " + std::to_string(workload->shards) + "}" +
            ", \"setup_s_runs\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    report += (i > 0 ? ", " : "") + JsonNumber(setup_s[i]);
  }
  report += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : values) {
    report += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  report += "}}";
  std::printf("report %s\n", report.c_str());

  const std::string metrics =
      args.trace ? MetricsJson(values, kPerLayer, std::size(kPerLayer))
                 : MetricsJson(values, kEndToEnd, std::size(kEndToEnd));
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
