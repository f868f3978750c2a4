#ifndef LASH_SERVE_TASK_SPEC_H_
#define LASH_SERVE_TASK_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "api/lash_api.h"
#include "obs/trace.h"

namespace lash::serve {

/// One serving request, as plain data: everything MiningTask exposes plus
/// the serving-only knobs (shard routing, deadline). Being a value type —
/// unlike MiningTask, which borrows its Dataset — a TaskSpec can sit in a
/// queue, be compared for coalescing, and be encoded into a cache key
/// before any dataset is touched.
struct TaskSpec {
  /// Which Dataset shard of the service answers this request.
  size_t shard = 0;

  Algorithm algorithm = Algorithm::kSequential;
  GsmParams params;
  /// Optional knobs mirror MiningTask's set-tracking: an engaged optional is
  /// an explicit WithMiner/WithRewrite/WithCombiner call (and is validated
  /// against the algorithm exactly like one); nullopt leaves the default.
  std::optional<MinerKind> miner;
  std::optional<RewriteLevel> rewrite;
  std::optional<bool> combiner;
  size_t threads = 0;
  JobConfig job_config;
  BaselineLimits limits;
  bool flat = false;
  PatternFilter filter = PatternFilter::kNone;
  size_t top_k = 0;

  /// Per-request deadline in milliseconds from Submit (0 = none). Checked
  /// between pipeline stages (admission, dequeue, delivery), not preemptive.
  double deadline_ms = 0;

  /// Per-request override of the router's phase-1 scatter threshold σ′
  /// (0 = the router's default: the pigeonhole bound ⌈σ/k⌉, see
  /// net/router.h). Only the router reads it — workers and the in-process
  /// service ignore it — and like deadline/shard it travels in the
  /// kMineRequest body *outside* the cache-key bytes, so it is deliberately
  /// EXCLUDED from EncodeCacheKey: how a router gathers candidates must not
  /// change what a worker's answer hits or coalesces with.
  Frequency shard_sigma = 0;

  /// Request trace context (obs/trace.h): inactive by default, stamped at
  /// the edge, carried across the wire in every kMineRequest. Like the
  /// execution-shape knobs, deliberately EXCLUDED from EncodeCacheKey —
  /// tracing a request must not change what it hits or coalesces with.
  obs::TraceContext trace{};
};

/// Builds the facade task for `spec` over `dataset` (shard routing already
/// resolved by the caller). The returned task borrows `dataset`.
MiningTask MakeTask(const Dataset& dataset, const TaskSpec& spec);

/// Canonical cache-key bytes of (dataset, spec).
///
/// Contract (see ROADMAP "Serving layer"): the key covers exactly the knobs
/// that select *what is computed or measured* — dataset id, algorithm,
/// σ/γ/λ, flat, filter, top-k, the explicit miner/rewrite/combiner choices
/// (presence included: "default" and "explicitly the default" encode
/// differently only when that distinction can change validation), and the
/// baseline emit cap for the algorithms it can abort. Pure execution-shape
/// knobs — threads, map/reduce task counts, shuffle mode, deadline, the
/// trace context — are
/// deliberately excluded, so equivalent queries coalesce and hit across
/// different execution shapes; a hit returns the RunResult of the execution
/// that populated the entry. The encoding is canonical: two specs map to
/// the same bytes iff they are equivalent under this contract, so FNV over
/// the bytes is a sound shard/grouping hash (same property the packed
/// shuffle relies on).
std::string EncodeCacheKey(uint64_t dataset_id, const TaskSpec& spec);

/// Inverse of EncodeCacheKey: decodes the canonical key bytes back into the
/// knobs they cover. `dataset_id`, if non-null, receives the encoded dataset
/// id. The wire protocol (net/wire.h) reuses the cache-key bytes as its
/// TaskSpec encoding, so this is the server-side request decoder.
///
/// Exactly the covered knobs round-trip: execution-shape fields (threads,
/// job config, deadline, shard, shard_sigma, trace) are not part of the key
/// and come back at their defaults. Decoding is canonicalizing-stable:
/// EncodeCacheKey(DecodeTaskSpec(key)) == key for every key EncodeCacheKey
/// can produce (tested byte-for-byte). Malformed input throws the typed
/// IoError of io/io_error.h: kBadVersion for an unknown key version,
/// kTruncated when the key ends inside a field, kMalformed for out-of-range
/// enum bytes or trailing garbage.
TaskSpec DecodeTaskSpec(std::string_view key, uint64_t* dataset_id = nullptr);

}  // namespace lash::serve

#endif  // LASH_SERVE_TASK_SPEC_H_
