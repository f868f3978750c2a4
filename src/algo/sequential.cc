#include "algo/sequential.h"

#include <utility>

#include "core/rewrite.h"

namespace lash {

PatternMap MineSequential(const PreprocessResult& pre, const GsmParams& params,
                          MinerKind miner, MinerStats* stats,
                          size_t num_threads) {
  LashOptions options;
  options.miner = miner;
  AlgoResult result =
      RunLash(pre, params, SequentialJobConfig(num_threads), options);
  if (stats != nullptr) stats->Merge(result.miner_stats);
  return std::move(result.patterns);
}

JobConfig SequentialJobConfig(size_t num_threads) {
  JobConfig config;
  if (num_threads > 0) config.num_threads = num_threads;
  return config;
}

std::vector<std::vector<uint32_t>> BuildPivotIndex(const PreprocessResult& pre,
                                                   ItemId num_frequent) {
  const Hierarchy& h = pre.hierarchy;
  std::vector<std::vector<uint32_t>> transactions_of_pivot(num_frequent + 1);
  std::vector<uint32_t> seen(num_frequent + 1, 0);
  uint32_t epoch = 0;
  for (uint32_t tid = 0; tid < pre.database.size(); ++tid) {
    ++epoch;
    for (ItemId w : pre.database[tid]) {
      for (ItemId a : h.AncestorSpan(w)) {
        if (a > num_frequent) continue;
        if (seen[a] == epoch) break;  // Whole chain above already seen.
        seen[a] = epoch;
        transactions_of_pivot[a].push_back(tid);
      }
    }
  }
  return transactions_of_pivot;
}

Partition BuildPivotPartition(const PreprocessResult& pre,
                              const Rewriter& rewriter, ItemId pivot,
                              const std::vector<uint32_t>& tids) {
  PatternMap aggregated;
  for (uint32_t tid : tids) {
    Sequence rewritten = rewriter.Rewrite(pre.database[tid], pivot);
    if (!rewritten.empty()) ++aggregated[rewritten];
  }
  Partition partition;
  for (auto& [seq, weight] : aggregated) {
    partition.Add(seq, weight);
  }
  return partition;
}

}  // namespace lash
