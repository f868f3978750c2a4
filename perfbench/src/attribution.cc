#include "attribution.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "io/io_error.h"
#include "net/client.h"
#include "net/router.h"
#include "serve/mining_service.h"
#include "serve/support_count.h"
#include "stats.h"
#include "util/timer.h"

namespace perfbench {

using lash::NamedPatternList;
using lash::Stopwatch;
using lash::serve::TaskSpec;

namespace {

/// Runs `body(i)` for i in [0, n) on n threads and joins them. Returns how
/// many calls threw: a typed ServeError or a transport fault on one leg is
/// a failed layer call, not an abort of the run.
template <typename Body>
size_t ForEachInParallel(size_t n, Body body) {
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&body, &failures, i] {
      try {
        body(i);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: layer call failed: %s\n", e.what());
        ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return failures;
}

/// Median per-request value when request r costs `per_spec[spec_of[r]]`:
/// a per-spec measurement weighted by how often the run asked for it.
double WeightedMedian(const std::vector<double>& per_spec,
                      const std::vector<size_t>& spec_of) {
  std::vector<double> values;
  values.reserve(spec_of.size());
  for (size_t index : spec_of) values.push_back(per_spec[index]);
  return Median(std::move(values));
}

}  // namespace

LayerMetrics AttributeRouter(const Cluster& cluster,
                             const lash::Dataset& shard0, const Plan& plan,
                             const Reference& reference, size_t* mismatches) {
  const std::vector<ServerProcess>& workers = cluster.workers();
  const size_t k = workers.size();
  std::vector<lash::net::WorkerAddress> addresses;
  std::vector<std::unique_ptr<lash::net::NetClient>> clients;
  for (const ServerProcess& worker : workers) {
    addresses.push_back({"127.0.0.1", worker.port});
    clients.push_back(
        std::make_unique<lash::net::NetClient>("127.0.0.1", worker.port));
  }
  lash::net::RouterBackend router(addresses, lash::net::RouterOptions{});

  std::vector<double> scatter_ms, phase1_ms, count_phase_ms, count_wire_ms,
      merge_ms, count_share, yield, count_ms, candidates_n;
  for (const TaskSpec& spec : plan.attribution) {
    TaskSpec leg_spec = spec;
    leg_spec.params.sigma = (spec.params.sigma + k - 1) / k;
    leg_spec.miner = lash::MinerKind::kPsmIndex;

    // One execution of the two-phase protocol, replayed step by step. The
    // merge steps are those of RouterBackend::Scatter: union the phase-1
    // answers on NamedPatternKey and sort them into the candidate list;
    // then sum the shard counts, re-cut at σ and sort canonically.
    const Stopwatch replay;
    std::vector<lash::net::MineReply> mined(k);
    size_t leg_failures =
        ForEachInParallel(k, [&](size_t w) { mined[w] = clients[w]->Mine(leg_spec); });
    const Interval phase1{0, replay.ElapsedMs()};
    if (leg_failures > 0) {
      *mismatches += leg_failures;
      continue;
    }

    double slowest_mine = 0;
    std::unordered_map<std::string, std::vector<std::string>> union_set;
    for (lash::net::MineReply& reply : mined) {
      slowest_mine = std::max(slowest_mine, reply.round_trip_ms);
      for (lash::NamedPattern& pattern : reply.patterns) {
        union_set.emplace(lash::NamedPatternKey(pattern), std::move(pattern.items));
      }
    }
    lash::net::CountRequest request;
    request.gamma = spec.params.gamma;
    request.lambda = spec.params.lambda;
    for (auto& [key, items] : union_set) {
      request.candidates.push_back({std::move(items), 0});
    }
    lash::SortNamedPatterns(&request.candidates);
    const size_t n_candidates = request.candidates.size();

    std::vector<lash::net::CountReply> counted(k);
    const double count_start = replay.ElapsedMs();
    leg_failures = ForEachInParallel(k, [&](size_t w) {
      counted[w] = clients[w]->Count(request);
      if (counted[w].supports.size() != n_candidates) {
        throw std::runtime_error("count reply does not match its candidates");
      }
    });
    const Interval count_phase{count_start, replay.ElapsedMs()};
    if (leg_failures > 0) {
      *mismatches += leg_failures;
      continue;
    }

    std::vector<lash::Frequency> totals(n_candidates, 0);
    for (const lash::net::CountReply& reply : counted) {
      for (size_t i = 0; i < n_candidates; ++i) totals[i] += reply.supports[i];
    }
    NamedPatternList merged;
    for (size_t i = 0; i < n_candidates; ++i) {
      if (totals[i] < spec.params.sigma) continue;
      merged.push_back({request.candidates[i].items, totals[i]});
    }
    lash::SortNamedPatterns(&merged);
    const Interval whole{0, replay.ElapsedMs()};
    // The replayed legs are checked like any reply: their merge must be the
    // in-process answer.
    if (CanonicalHash(merged) != reference.ExpectedHash(spec)) {
      std::fprintf(stderr, "perfbench: replayed router legs mismatch (sigma=%llu)\n",
                   static_cast<unsigned long long>(spec.params.sigma));
      ++*mismatches;
    }

    const auto slowest = std::max_element(
        counted.begin(), counted.end(), [](const auto& a, const auto& b) {
          return a.round_trip_ms < b.round_trip_ms;
        });
    phase1_ms.push_back(slowest_mine);
    count_phase_ms.push_back(slowest->round_trip_ms);
    count_wire_ms.push_back(slowest->round_trip_ms - slowest->server_ms);
    // What the replay spent outside its two phases is the merge.
    merge_ms.push_back(SelfTimeMs(whole, {phase1, count_phase}));
    count_share.push_back((count_phase.end - count_phase.start) / whole.end);
    candidates_n.push_back(static_cast<double>(n_candidates));
    yield.push_back(n_candidates > 0 ? static_cast<double>(merged.size()) /
                                           static_cast<double>(n_candidates)
                                     : 0);

    const Stopwatch count_watch;
    lash::serve::CountSupports(shard0, request.candidates,
                               {spec.params.gamma, spec.params.lambda, false});
    count_ms.push_back(count_watch.ElapsedMs());

    try {
      const Stopwatch scatter_watch;
      const lash::net::MineResponse response = router.Scatter(spec);
      scatter_ms.push_back(scatter_watch.ElapsedMs());
      if (CanonicalHash(response.patterns) != reference.ExpectedHash(spec)) {
        std::fprintf(stderr, "perfbench: scatter mismatch (sigma=%llu)\n",
                     static_cast<unsigned long long>(spec.params.sigma));
        ++*mismatches;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: scatter failed: %s\n", e.what());
      ++*mismatches;
    }
  }
  return {{"router.scatter_ms", Median(scatter_ms)},
          {"router.phase1_ms", Median(phase1_ms)},
          {"router.count_phase_ms", Median(count_phase_ms)},
          {"router.count_wire_ms", Median(count_wire_ms)},
          {"router.merge_ms", Median(merge_ms)},
          {"router.count_share", Median(count_share)},
          {"router.candidate_yield", Median(yield)},
          {"serve.count_ms", Median(count_ms)},
          {"serve.count_candidates", Median(candidates_n)}};
}

LayerMetrics AttributeInProcess(const CorpusFiles& files,
                                const lash::Dataset& union_dataset,
                                const Plan& plan) {
  LayerMetrics out;

  std::vector<double> load_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& path : files.shards) {
      const Stopwatch watch;
      const lash::Dataset dataset = lash::Dataset::FromSnapshot(path);
      dataset.VerifyCorpus();
      load_ms.push_back(watch.ElapsedMs());
    }
  }
  out["io.snapshot_load_ms"] = Median(load_ms);

  // The hit path of the serving layer, and what naming, encoding and
  // decoding each popular reply costs, per popular spec.
  {
    lash::serve::MiningService service(union_dataset);
    const size_t n = plan.popular.size();
    std::vector<double> hit_ms(n), encode_ms(n), decode_ms(n), bytes(n);
    for (size_t s = 0; s < n; ++s) {
      const lash::serve::PendingResult warm_pending = service.Submit(plan.popular[s]);
      const lash::serve::Response& warm = warm_pending.Get();
      std::vector<double> hits, encodes, decodes;
      for (int rep = 0; rep < 15; ++rep) {
        const Stopwatch hit_watch;
        lash::serve::PendingResult pending = service.Submit(plan.popular[s]);
        pending.Get();
        hits.push_back(hit_watch.ElapsedMs());
      }
      std::string encoded;
      for (int rep = 0; rep < 3; ++rep) {
        const Stopwatch encode_watch;
        const NamedPatternList named = lash::NamePatterns(
            union_dataset, warm.patterns(), warm.run().used_flat_hierarchy);
        encoded.clear();
        lash::EncodeNamedPatterns(&encoded, named);
        encodes.push_back(encode_watch.ElapsedMs());

        const Stopwatch decode_watch;
        lash::ByteReader reader(encoded, "reply");
        lash::DecodeNamedPatterns(reader);
        decodes.push_back(decode_watch.ElapsedMs());
      }
      hit_ms[s] = Median(hits);
      encode_ms[s] = Median(encodes);
      decode_ms[s] = Median(decodes);
      bytes[s] = static_cast<double>(encoded.size());
    }
    out["serve.hit_ms"] = WeightedMedian(hit_ms, plan.hit_spec);
    out["io.reply_encode_ms"] = WeightedMedian(encode_ms, plan.hit_spec);
    out["io.reply_decode_ms"] = WeightedMedian(decode_ms, plan.hit_spec);
    out["io.reply_bytes"] = WeightedMedian(bytes, plan.hit_spec);
  }

  // The engine on a quiet host: MiningTask::Run per attribution spec, with
  // the MapReduce breakdown of the LASH ones.
  std::vector<double> mine_ms, patterns, map_ms, shuffle_ms, reduce_ms,
      map_bytes, overlap_ms;
  for (const TaskSpec& spec : plan.attribution) {
    lash::CollectSink sink;
    const lash::RunResult run =
        lash::serve::MakeTask(union_dataset, spec).Run(sink);
    mine_ms.push_back(run.mine_ms);
    patterns.push_back(static_cast<double>(run.patterns_mined));
    if (spec.algorithm == lash::Algorithm::kLash) {
      map_ms.push_back(run.job.times.map_ms);
      shuffle_ms.push_back(run.job.times.shuffle_ms);
      reduce_ms.push_back(run.job.times.reduce_ms);
      map_bytes.push_back(static_cast<double>(run.job.counters.map_output_bytes));
      overlap_ms.push_back(run.job.phase_overlap_ms);
    }
  }
  out["api.mine_ms"] = Median(mine_ms);
  out["miner.patterns_per_query"] = Median(patterns);
  out["mr.map_ms"] = Median(map_ms);
  out["mr.shuffle_ms"] = Median(shuffle_ms);
  out["mr.reduce_ms"] = Median(reduce_ms);
  out["mr.map_output_bytes"] = Median(map_bytes);
  out["mr.phase_overlap_ms"] = Median(overlap_ms);
  return out;
}

}  // namespace perfbench
