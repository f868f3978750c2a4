#ifndef LASH_NET_ROUTER_H_
#define LASH_NET_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace lash::net {

struct RouterOptions {
  /// Default phase-1 scatter threshold σ′. 0 picks the pigeonhole bound
  /// σ′ = max(1, ⌈σ/k⌉) for k workers: any pattern whose union support
  /// reaches σ must reach σ′ on at least one shard, so the union of
  /// per-shard results is a *complete* candidate set while each shard
  /// ships only its σ′-frequent patterns; phase 2 counts each union
  /// candidate (kCountRequest) only on the workers that did not report it
  /// and only while it can still reach σ, adds those counts to the reported
  /// supports, and re-cuts at σ. A nonzero value overrides the
  /// bound (clamped to [1, σ]): 1 is the one-phase baseline — every pattern
  /// visible everywhere, so the count phase is skipped — and a value above
  /// the bound trades completeness for shard-side work. A per-request
  /// `TaskSpec::shard_sigma` overrides this per query.
  Frequency shard_sigma = 0;
  /// Per-worker client knobs (timeouts, retries).
  ClientOptions client;
  /// Threads answering concurrent router requests (0 = worker count).
  size_t scatter_threads = 0;
  /// Registry for the router.scatter.* / router.count.* instruments; also
  /// what the router answers a kMetricsRequest from. Null disables both
  /// (the metrics RPC then returns an empty snapshot).
  obs::MetricsRegistry* metrics = nullptr;
  /// Slow-query log threshold in milliseconds; 0 disables. A scatter whose
  /// total latency reaches the threshold logs one stderr line (outcome,
  /// latency, phase shape, candidates/counted/pruned and count time, trace
  /// id when present).
  double slow_query_ms = 0;
};

/// The router backend: serves the same wire protocol as a worker, but
/// answers each mine request by scattering it across the shard workers and
/// merging their pattern streams.
///
/// Merge contract (ROADMAP "Network tier"): shards partition the corpus by
/// *transactions*, so a pattern's union support is the plain sum of its
/// per-shard supports — summation keyed on the canonical item-name bytes is
/// an associative, commutative reduction, and merging workers in any
/// grouping or order yields the same multiset (router trees compose).
/// Exactness needs every σ-frequent pattern visible, and a union-frequent
/// pattern can sit below σ on every individual shard. One scatter mode,
/// parameterized by σ′ (RouterOptions::shard_sigma):
///
///   * At the default pigeonhole bound σ′ = max(1, ⌈σ/k⌉) — if supp(S) ≥ σ
///     over k shards, some shard holds ≥ ⌈σ/k⌉ of it — the union of the
///     phase-1 answers is a complete candidate set. A shard that reported a
///     candidate gave its exact local support; a silent one holds fewer
///     than σ′. So a candidate with partial sum s from the reporting set R
///     is dropped uncounted when s + (k − |R|)(σ′ − 1) < σ (upper-bound
///     pruning), and is otherwise counted exactly (kCountRequest) on the
///     shards outside R only (missing-only counting). Each shard gets its
///     own sorted candidate list; a shard with an empty list gets no count
///     leg. When a phase-1 answer is incomplete (`run.aborted`: a
///     naive/seminaive emit cap fired) the bound does not hold, so nothing
///     is pruned and every missing count is taken.
///   * At σ′=1 every pattern is visible, so the summed phase-1 supports
///     are exact and the count phase is skipped. Exact but pays the σ′=1
///     tax in shard mining and pattern shipping (the measured baseline).
///
/// Either way top-k is deferred: workers mine un-truncated, the router
/// re-sorts the merged stream (canonical wire order) and re-cuts.
/// Closed/maximal filters do not distribute over this merge (they need the
/// union corpus's pattern lattice) and are rejected as invalid_task.
class RouterBackend : public Backend {
 public:
  RouterBackend(std::vector<WorkerAddress> workers, RouterOptions options);
  ~RouterBackend() override;

  void Handle(std::string_view payload, Reply reply) override;
  size_t InFlight() const override;

  /// Scatters one spec across all workers and merges (the Handle body,
  /// callable in-process; bench_net uses this directly). A spec carrying an
  /// active trace context opens a router.scatter span under it, one
  /// router.leg span per worker (whose context travels to that worker as
  /// the parent in the leg's kMineRequest), one router.count span per count
  /// leg the two-phase count sends (tagged with that leg's `candidates`),
  /// and a router.merge span over the reduction — the cross-process halves
  /// of one merged trace tree.
  MineResponse Scatter(const serve::TaskSpec& spec);

  /// Sums the workers' counters (latency percentiles take the max — a
  /// cross-worker percentile cannot be reconstructed from percentiles).
  serve::ServiceStats AggregateStats();

 private:
  struct WorkerSlot {
    WorkerAddress address;
    std::mutex mu;  ///< One outstanding request per pooled connection.
    std::unique_ptr<NetClient> client;
  };

  /// What one fan-out leg's body receives.
  struct Leg {
    size_t worker;      ///< Index into workers_.
    NetClient& client;  ///< The worker's pooled connection.
    obs::Span& span;    ///< The leg span (inert when nothing records).
    /// The context to send: the leg span's own, or — when this process
    /// records nowhere — the incoming one forwarded untouched, so a
    /// tracing worker behind a non-tracing router still joins the trace.
    obs::TraceContext trace;
  };

  /// Runs `body` once per worker index in `targets`, in parallel. Each leg
  /// holds its worker's slot, connects lazily, and opens a `span_name` span
  /// under `parent` (tagged with the worker's address); a worker outside
  /// `targets` gets neither a leg nor a span. After every leg has finished,
  /// the first failed leg is rethrown as ServeError "worker host:port: …"
  /// with the worker's code (kExecutionFailed for anything untyped), and
  /// router.scatter.worker_errors is counted: one missing shard makes
  /// every merged sum wrong, so no partial answer is ever returned.
  void FanOut(const char* span_name, const obs::TraceContext& parent,
              const obs::TraceContext& incoming,
              const std::vector<size_t>& targets,
              const std::function<void(Leg&)>& body);

  std::vector<std::unique_ptr<WorkerSlot>> workers_;
  std::vector<size_t> all_workers_;  ///< 0..k−1: the targets of a full fan-out.
  RouterOptions options_;

  /// Resolves the effective phase-1 σ′ for `spec` (request override, then
  /// the option, then the mode default), clamped to [1, σ].
  Frequency ResolveShardSigma(const serve::TaskSpec& spec) const;

  /// Null when no registry was given.
  obs::Counter* scatter_requests_ = nullptr;
  obs::Counter* scatter_worker_errors_ = nullptr;
  obs::Counter* count_requests_ = nullptr;
  obs::Counter* count_candidates_ = nullptr;
  obs::Counter* count_patterns_shipped_ = nullptr;
  obs::Counter* count_pruned_ = nullptr;
  obs::LatencyHistogram* count_phase_ms_ = nullptr;

  mutable std::mutex mu_;
  size_t inflight_ = 0;

  /// Runs Handle bodies off the event loop; declared last so it drains
  /// before the worker slots die.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace lash::net

#endif  // LASH_NET_ROUTER_H_
