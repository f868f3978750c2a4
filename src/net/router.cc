#include "net/router.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "io/io_error.h"
#include "io/result_io.h"
#include "util/timer.h"

namespace lash::net {

using serve::ServeError;
using serve::ServeErrorCode;

RouterBackend::RouterBackend(std::vector<WorkerAddress> workers,
                             RouterOptions options)
    : options_(std::move(options)) {
  for (WorkerAddress& address : workers) {
    auto slot = std::make_unique<WorkerSlot>();
    slot->address = std::move(address);
    all_workers_.push_back(workers_.size());
    workers_.push_back(std::move(slot));
  }
  const size_t threads = options_.scatter_threads > 0
                             ? options_.scatter_threads
                             : std::max<size_t>(1, workers_.size());
  pool_ = std::make_unique<ThreadPool>(threads);
  if (options_.metrics != nullptr) {
    scatter_requests_ = options_.metrics->GetCounter("router.scatter.requests");
    scatter_worker_errors_ =
        options_.metrics->GetCounter("router.scatter.worker_errors");
    count_requests_ = options_.metrics->GetCounter("router.count.requests");
    count_candidates_ = options_.metrics->GetCounter("router.count.candidates");
    count_patterns_shipped_ =
        options_.metrics->GetCounter("router.count.patterns_shipped");
    count_pruned_ = options_.metrics->GetCounter("router.count.pruned");
    count_phase_ms_ = options_.metrics->GetHistogram("router.count.phase_ms");
  }
}

RouterBackend::~RouterBackend() { pool_->Wait(); }

void RouterBackend::Handle(std::string_view payload, Reply reply) {
  const MessageType type = PeekMessageType(payload);
  if (type == MessageType::kMetricsRequest) {
    reply.Send(EncodeMetricsResponse(options_.metrics != nullptr
                                         ? options_.metrics->Snapshot()
                                         : std::vector<obs::MetricSample>{}));
    return;
  }
  // Mines and stats both fan out to every worker — too slow for the event
  // loop, so the answer is computed on the pool.
  std::function<std::string()> answer;
  if (type == MessageType::kMineRequest) {
    answer = [this, spec = DecodeMineRequest(payload)] {
      return EncodeMineResponse(Scatter(spec));
    };
  } else if (type == MessageType::kStatsRequest) {
    answer = [this] { return EncodeStatsResponse(AggregateStats()); };
  } else {
    throw IoError(IoErrorKind::kMalformed, 0,
                  "router received a non-request message");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++inflight_;
  }
  pool_->Submit([this, answer = std::move(answer), reply] {
    std::string bytes;
    try {
      bytes = answer();
    } catch (const ServeError& e) {
      bytes = EncodeErrorResponse(e.code(), e.what());
    } catch (const std::exception& e) {
      bytes = EncodeErrorResponse(ServeErrorCode::kExecutionFailed, e.what());
    }
    reply.Send(std::move(bytes));
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
  });
}

size_t RouterBackend::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

Frequency RouterBackend::ResolveShardSigma(const serve::TaskSpec& spec) const {
  const Frequency sigma = spec.params.sigma;
  Frequency sigma_prime;
  if (spec.shard_sigma != 0) {
    sigma_prime = spec.shard_sigma;  // per-request override wins
  } else if (options_.shard_sigma != 0) {
    sigma_prime = options_.shard_sigma;
  } else {
    // The pigeonhole bound: supp(S) ≥ σ summed over k transaction
    // partitions forces supp(S) ≥ ⌈σ/k⌉ on at least one of them.
    const Frequency k = workers_.size();
    sigma_prime = (sigma + k - 1) / k;
  }
  return std::min(std::max<Frequency>(sigma_prime, 1), sigma);
}

void RouterBackend::FanOut(const char* span_name,
                          const obs::TraceContext& parent,
                          const obs::TraceContext& incoming,
                          const std::vector<size_t>& targets,
                          const std::function<void(Leg&)>& body) {
  std::vector<std::optional<ServeError>> failures(workers_.size());
  // ParallelFor participates from the calling thread, so a fan-out works
  // even when every pool worker is busy with other router requests.
  // Exceptions must not escape the body (pool contract: they would kill
  // the process).
  pool_->ParallelFor(targets.size(), [&](size_t i) {
    const size_t w = targets[i];
    WorkerSlot& slot = *workers_[w];
    std::lock_guard<std::mutex> lock(slot.mu);
    try {
      if (!slot.client) {
        slot.client = std::make_unique<NetClient>(
            slot.address.host, slot.address.port, options_.client);
      }
      obs::Span span(&obs::Tracer::Global(), parent, span_name);
      span.Tag("worker", slot.address.host + ":" +
                             std::to_string(slot.address.port));
      Leg leg{w, *slot.client, span, span.active() ? span.context() : incoming};
      body(leg);
    } catch (const ServeError& e) {
      failures[w] = e;
    } catch (const std::exception& e) {
      failures[w].emplace(ServeErrorCode::kExecutionFailed, e.what());
    }
  });
  for (size_t w = 0; w < workers_.size(); ++w) {
    if (!failures[w]) continue;
    if (scatter_worker_errors_ != nullptr) scatter_worker_errors_->Add();
    const WorkerAddress& address = workers_[w]->address;
    throw ServeError(failures[w]->code(),
                     "worker " + address.host + ":" +
                         std::to_string(address.port) + ": " +
                         failures[w]->what());
  }
}

MineResponse RouterBackend::Scatter(const serve::TaskSpec& spec) {
  if (workers_.empty()) {
    throw ServeError(ServeErrorCode::kExecutionFailed,
                     "router has no workers");
  }
  if (spec.shard != 0) {
    throw ServeError(ServeErrorCode::kInvalidTask,
                     "the router serves one logical shard; "
                     "shard routing happens behind it");
  }
  if (spec.filter != PatternFilter::kNone) {
    throw ServeError(
        ServeErrorCode::kInvalidTask,
        "closed/maximal filters do not distribute over the cross-shard "
        "merge; filter on the client or mine a single worker");
  }

  if (scatter_requests_ != nullptr) scatter_requests_->Add();
  const Stopwatch total_watch;
  const Frequency sigma_prime = ResolveShardSigma(spec);
  // The router's subtree of the request trace: router.scatter spans the
  // whole fan-out+merge, one router.leg per phase-1 worker (its span id
  // becomes the worker-side parent), one router.count per phase-2 leg,
  // router.merge the reduction.
  obs::Span scatter_span(&obs::Tracer::Global(), spec.trace, "router.scatter");
  scatter_span.Tag("workers", static_cast<double>(workers_.size()));
  scatter_span.Tag("shard_sigma", static_cast<double>(sigma_prime));

  // The count phase's shape: union candidates, candidate-shard counts
  // shipped, and candidates dropped by the upper bound. They stay 0 until
  // the count phase has run.
  size_t candidates = 0, counted = 0, pruned = 0;
  double count_ms = 0;

  // One stderr line when a slow scatter resolves, mirroring the service's
  // slow-query log.
  const auto maybe_log_slow = [&](const char* outcome) {
    if (options_.slow_query_ms <= 0) return;
    const double latency_ms = total_watch.ElapsedMs();
    if (latency_ms < options_.slow_query_ms) return;
    std::fprintf(stderr,
                 "[lash.slow] outcome=%s latency_ms=%.3f threshold_ms=%.3f "
                 "shard_sigma=%llu candidates=%zu counted=%zu pruned=%zu "
                 "count_ms=%.3f trace=%s\n",
                 outcome, latency_ms, options_.slow_query_ms,
                 static_cast<unsigned long long>(sigma_prime), candidates,
                 counted, pruned, count_ms,
                 spec.trace.active() ? spec.trace.trace_id.Hex().c_str()
                                     : "-");
  };

  // Phase 1: scatter the mine at σ′ and un-truncated (top-k re-cut after
  // the merge). The per-request shard_sigma override is consumed here — it
  // is router-level routing state, so the worker legs carry shard_sigma 0
  // and the worker's answer stays cacheable under its own canonical key.
  serve::TaskSpec shard_spec = spec;
  shard_spec.params.sigma = sigma_prime;
  shard_spec.top_k = 0;
  shard_spec.shard_sigma = 0;

  std::optional<Stopwatch> count_watch;  // Started by the count phase.
  const auto end_count_phase = [&] {
    count_ms = count_watch->ElapsedMs();
    if (count_phase_ms_ != nullptr) count_phase_ms_->Record(count_ms);
  };
  // One leg per target worker under the scatter span. A failed leg fails
  // the whole query; the scatter span and the slow-query log record that
  // first.
  const auto fan_out = [&](const char* span_name,
                           const std::vector<size_t>& targets,
                           const std::function<void(Leg&)>& body) {
    try {
      FanOut(span_name, scatter_span.context(), spec.trace, targets, body);
    } catch (const ServeError&) {
      if (count_watch) end_count_phase();
      scatter_span.Tag("outcome", "worker_error");
      maybe_log_slow("worker_error");
      throw;
    }
  };

  std::vector<MineReply> replies(workers_.size());
  fan_out("router.leg", all_workers_, [&](Leg& leg) {
    serve::TaskSpec leg_spec = shard_spec;
    leg_spec.trace = leg.trace;  // The leg span parents serve.request.
    replies[leg.worker] = leg.client.Mine(leg_spec);
  });

  // Union of the phase-1 answers keyed on the canonical item-name bytes
  // (the same encoded-key-bytes identity the shuffle's ByteCombiner merges
  // on), each with its partial sum and the workers that reported it. At
  // σ′=1 the summed frequencies are already exact; above it a worker's
  // reported support is exact and a silent worker holds fewer than σ′.
  struct Merged {
    std::vector<std::string> items;
    Frequency frequency = 0;
    std::vector<uint32_t> reporters;  ///< Ascending worker indices.
  };
  std::unordered_map<std::string, Merged> merged;
  for (uint32_t w = 0; w < replies.size(); ++w) {
    for (NamedPattern& pattern : replies[w].patterns) {
      Merged& slot = merged[NamedPatternKey(pattern)];
      if (slot.items.empty()) slot.items = std::move(pattern.items);
      slot.frequency += pattern.frequency;
      if (slot.reporters.empty() || slot.reporters.back() != w) {
        slot.reporters.push_back(w);
      }
    }
  }

  // Phase 2: count each candidate only on the workers that did not report
  // it, and only while it can still reach σ. Skipped when phase 1 is
  // already exact — σ′=1 makes every pattern visible everywhere, and a
  // single worker's mined supports are the union supports.
  const bool count_phase =
      sigma_prime > 1 && workers_.size() > 1 && !merged.empty();
  std::vector<Merged*> kept;  // The candidates still in play, sorted.
  if (count_phase) {
    std::vector<Merged*> order;
    order.reserve(merged.size());
    for (auto& [key, entry] : merged) order.push_back(&entry);
    // Lexicographic, so every worker's list is deterministic.
    std::sort(order.begin(), order.end(), [](const Merged* a, const Merged* b) {
      return a->items < b->items;
    });
    candidates = order.size();

    // Upper-bound pruning: a candidate reported by the set R with partial
    // sum s has union support at most s + (k − |R|)(σ′ − 1). It is sound
    // only when every phase-1 answer is complete; an emit cap that fired
    // may have left a worker silent about a pattern it holds σ′ times.
    const bool complete = std::none_of(
        replies.begin(), replies.end(),
        [](const MineReply& reply) { return reply.run.aborted; });
    const Frequency k = workers_.size();
    // Worker w's request and, index-aligned with its candidates, the
    // entries its supports add to.
    std::vector<CountRequest> requests(workers_.size());
    std::vector<std::vector<Merged*>> slots(workers_.size());
    for (Merged* entry : order) {
      const Frequency silent = k - entry->reporters.size();
      if (complete &&
          entry->frequency + silent * (sigma_prime - 1) < spec.params.sigma) {
        ++pruned;
        continue;
      }
      kept.push_back(entry);
      size_t next = 0;  // Walks the ascending reporter list.
      for (uint32_t w = 0; w < workers_.size(); ++w) {
        if (next < entry->reporters.size() && entry->reporters[next] == w) {
          ++next;
          continue;
        }
        requests[w].candidates.push_back(NamedPattern{entry->items, 0});
        slots[w].push_back(entry);
      }
    }
    std::vector<size_t> targets;
    for (size_t w = 0; w < requests.size(); ++w) {
      CountRequest& request = requests[w];
      if (request.candidates.empty()) continue;
      targets.push_back(w);
      counted += request.candidates.size();
      request.shard = 0;
      request.deadline_ms = spec.deadline_ms;
      // The same canonicalization as the cache key: MG-FSM always mines
      // the flat rank space, so its supports must be counted there too.
      request.flat = spec.flat || spec.algorithm == Algorithm::kMgFsm;
      request.gamma = spec.params.gamma;
      request.lambda = spec.params.lambda;
    }

    if (count_requests_ != nullptr) count_requests_->Add(targets.size());
    if (count_candidates_ != nullptr) count_candidates_->Add(candidates);
    if (count_patterns_shipped_ != nullptr) count_patterns_shipped_->Add(counted);
    if (count_pruned_ != nullptr) count_pruned_->Add(pruned);

    if (!targets.empty()) {
      count_watch.emplace();
      std::vector<CountReply> count_replies(workers_.size());
      fan_out("router.count", targets, [&](Leg& leg) {
        CountRequest& request = requests[leg.worker];
        leg.span.Tag("candidates",
                     static_cast<double>(request.candidates.size()));
        request.trace = leg.trace;
        CountReply reply = leg.client.Count(request);
        if (reply.supports.size() != request.candidates.size()) {
          throw ServeError(ServeErrorCode::kExecutionFailed,
                           "count reply carries " +
                               std::to_string(reply.supports.size()) +
                               " supports for " +
                               std::to_string(request.candidates.size()) +
                               " candidates");
        }
        count_replies[leg.worker] = std::move(reply);
      });
      end_count_phase();
      // The exact totals: each partial sum plus the silent workers' counts.
      for (const size_t w : targets) {
        for (size_t i = 0; i < slots[w].size(); ++i) {
          slots[w][i]->frequency += count_replies[w].supports[i];
        }
      }
    }
  }

  obs::Span merge_span(&obs::Tracer::Global(), scatter_span.context(),
                       "router.merge");

  // Re-apply the caller's σ to the exact union supports, re-sort into the
  // canonical wire order, and re-cut top-k.
  MineResponse response;
  const auto emit = [&](Merged& entry) {
    if (entry.frequency < spec.params.sigma) return;
    response.patterns.push_back(
        NamedPattern{std::move(entry.items), entry.frequency});
  };
  if (count_phase) {
    for (Merged* entry : kept) emit(*entry);
  } else {
    for (auto& [key, entry] : merged) emit(entry);
  }
  SortNamedPatterns(&response.patterns);
  if (spec.top_k > 0 && response.patterns.size() > spec.top_k) {
    response.patterns.resize(spec.top_k);
  }

  // The merged RunResult: accounting sums across workers, wall-clock fields
  // take the max (the scatter ran them concurrently), aborted ORs.
  bool first = true;
  RunResult& run = response.run;
  double server_ms = 0;
  for (const MineReply& reply : replies) {
    server_ms = std::max(server_ms, reply.server_ms);
    response.cache_hit = response.cache_hit || reply.cache_hit;
    response.coalesced = response.coalesced || reply.coalesced;
    if (first) {
      run = reply.run;
      first = false;
      continue;
    }
    run.aborted = run.aborted || reply.run.aborted;
    run.miner_stats.Merge(reply.run.miner_stats);
    run.gsp_stats.extended_items += reply.run.gsp_stats.extended_items;
    run.gsp_stats.candidates += reply.run.gsp_stats.candidates;
    run.gsp_stats.database_scans =
        std::max(run.gsp_stats.database_scans,
                 reply.run.gsp_stats.database_scans);
    run.partition_shape.Merge(reply.run.partition_shape);
    run.job.times.map_ms = std::max(run.job.times.map_ms,
                                    reply.run.job.times.map_ms);
    run.job.times.shuffle_ms = std::max(run.job.times.shuffle_ms,
                                        reply.run.job.times.shuffle_ms);
    run.job.times.reduce_ms = std::max(run.job.times.reduce_ms,
                                       reply.run.job.times.reduce_ms);
    run.job.counters.Merge(reply.run.job.counters);
    run.mine_ms = std::max(run.mine_ms, reply.run.mine_ms);
    run.filter_ms = std::max(run.filter_ms, reply.run.filter_ms);
    run.total_ms = std::max(run.total_ms, reply.run.total_ms);
    run.patterns_mined += reply.run.patterns_mined;
  }
  // Pattern accounting of the *merged* answer, not the scatter's σ′
  // over-mining: what this response actually contains.
  run.patterns_emitted = response.patterns.size();
  response.server_ms = server_ms;
  merge_span.Tag("patterns", static_cast<double>(response.patterns.size()));
  merge_span.End();
  scatter_span.Tag("outcome", "ok");
  if (count_phase) {
    scatter_span.Tag("candidates", static_cast<double>(candidates));
    scatter_span.Tag("counted", static_cast<double>(counted));
    scatter_span.Tag("pruned", static_cast<double>(pruned));
    scatter_span.Tag("count_ms", count_ms);
  }
  scatter_span.End();
  maybe_log_slow("ok");
  return response;
}

serve::ServiceStats RouterBackend::AggregateStats() {
  std::vector<serve::ServiceStats> per_worker(workers_.size());
  // No request context: the legs' spans are inert.
  FanOut("router.stats", obs::TraceContext{}, obs::TraceContext{},
         all_workers_, [&](Leg& leg) { per_worker[leg.worker] = leg.client.Stats(); });
  serve::ServiceStats total;
  for (const serve::ServiceStats& stats : per_worker) {
    total.submitted += stats.submitted;
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.coalesced += stats.coalesced;
    total.invalid += stats.invalid;
    total.completed += stats.completed;
    total.rejected += stats.rejected;
    total.cancelled += stats.cancelled;
    total.deadline_expired += stats.deadline_expired;
    total.failed += stats.failed;
    total.executions += stats.executions;
    total.cache_entries += stats.cache_entries;
    total.cache_bytes += stats.cache_bytes;
    total.cache_evictions += stats.cache_evictions;
    total.cache_oversized_rejects += stats.cache_oversized_rejects;
    total.queue_depth += stats.queue_depth;
    // Latencies are non-negative, so the max over workers starts from 0.
    total.hit_p50_ms = std::max(total.hit_p50_ms, stats.hit_p50_ms);
    total.hit_p95_ms = std::max(total.hit_p95_ms, stats.hit_p95_ms);
    total.hit_mean_ms = std::max(total.hit_mean_ms, stats.hit_mean_ms);
    total.mine_p50_ms = std::max(total.mine_p50_ms, stats.mine_p50_ms);
    total.mine_p95_ms = std::max(total.mine_p95_ms, stats.mine_p95_ms);
    total.mine_mean_ms = std::max(total.mine_mean_ms, stats.mine_mean_ms);
  }
  return total;
}

}  // namespace lash::net
