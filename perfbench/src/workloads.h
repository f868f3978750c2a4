#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The workloads: which corpus and cluster shape each runs, the seeded
// request plan (cold specs, popular hit specs, arrival schedules), and the
// in-process reference answers every reply is checked against.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/lash_api.h"
#include "io/result_io.h"
#include "serve/task_spec.h"

namespace perfbench {

enum class Corpus { kNyt, kAmzn };

struct WorkloadConfig {
  const char* name;
  Corpus corpus;
  /// 1: one worker over the full snapshot. k > 1: a router over k
  /// round-robin shard workers.
  size_t shards;
  /// Offered load per second of the cold and hit lanes.
  double cold_rate;
  double hit_rate;
  /// Connections (= sender threads) per lane; they sum to at most nproc.
  size_t cold_connections;
  size_t hit_connections;
};

/// The workload named `name`, or nullptr.
const WorkloadConfig* FindWorkload(const std::string& name);

/// Snapshot files of one corpus: the full corpus (what the reference mines
/// and what a single worker serves) and its round-robin shards.
struct CorpusFiles {
  std::string full;
  std::vector<std::string> shards;
  std::string recipe;  ///< Human-readable recipe, for the report.
};

/// Generates the corpus through datagen/corpus_recipes.h and writes its
/// snapshots under `data_dir`, unless an earlier run already did (the
/// corpus does not depend on the seed).
CorpusFiles PrepareCorpus(Corpus corpus, size_t shards,
                          const std::string& data_dir);

/// The requests of one run, all derived from the seed.
struct Plan {
  std::vector<lash::serve::TaskSpec> cold;     ///< Distinct; each misses.
  std::vector<lash::serve::TaskSpec> popular;  ///< By popularity rank.
  std::vector<size_t> hit_spec;  ///< Per hit request: index into popular.
  std::vector<double> cold_due_ms;
  std::vector<double> hit_due_ms;
  /// Further distinct cold specs, never sent by the lanes: the traced run
  /// times its layer calls on these so no cache has seen them.
  std::vector<lash::serve::TaskSpec> attribution;
  uint64_t digest = 0;  ///< FNV over the request sequence's spec keys.
};

Plan MakePlan(const WorkloadConfig& workload, uint64_t seed, double seconds);

/// FNV-1a of the canonical EncodeNamedPatterns bytes of `patterns`.
uint64_t CanonicalHash(const lash::NamedPatternList& patterns);

/// Expected answers, mined in process over the union corpus. One mine per
/// (γ, λ) at the smallest σ any spec asks for: the σ-answer is exactly the
/// patterns with support >= σ, which in canonical order (descending
/// frequency first) is a prefix of the smallest-σ answer.
class Reference {
 public:
  Reference(const lash::Dataset& union_dataset,
            const std::vector<lash::serve::TaskSpec>& specs);

  /// Hash of the canonical answer of `spec` (which must be one of the specs
  /// given to the constructor).
  uint64_t ExpectedHash(const lash::serve::TaskSpec& spec) const;

 private:
  /// Cache-key bytes of a spec -> hash of its canonical answer.
  std::unordered_map<std::string, uint64_t> hashes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
