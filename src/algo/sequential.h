#ifndef LASH_ALGO_SEQUENTIAL_H_
#define LASH_ALGO_SEQUENTIAL_H_

#include <cstddef>
#include <vector>

#include "algo/lash.h"
#include "core/flist.h"
#include "core/params.h"
#include "miner/miner.h"
#include "util/hash.h"

namespace lash {

/// Single-node GSM for library users who just want the algorithm (what the
/// paper calls running the "customized GSM algorithm" directly, Sec. 5):
/// RunLash on SequentialJobConfig(num_threads) with `miner` as the local
/// miner and the other LashOptions at their defaults, so both entry points
/// share one partition builder. The output does not depend on the thread
/// count (0 = the hardware concurrency).
///
/// `pre` must come from Preprocess()/PreprocessWithJob(). Returns patterns
/// in rank-id space with their frequencies; `stats`, if non-null,
/// accumulates the local miners' search-space accounting. Invalid inputs
/// throw std::invalid_argument on the calling thread.
PatternMap MineSequential(const PreprocessResult& pre, const GsmParams& params,
                          MinerKind miner = MinerKind::kPsmIndex,
                          MinerStats* stats = nullptr, size_t num_threads = 0);

/// The job shape MineSequential runs: default task counts, and
/// `num_threads` workers (0 = the hardware concurrency).
JobConfig SequentialJobConfig(size_t num_threads);

class Rewriter;

/// The per-pivot reference partition builder (this and the next function):
/// tests and benches check RunLash's fused partitions against it, and time
/// the local miners on its partitions. Production code does not call it.
///
/// One pass over the data builds the pivot -> transactions index: for every
/// frequent pivot w, the tids whose transaction contains w or a descendant
/// (the frequent part of G1(T) per transaction, Sec. 3.3).
std::vector<std::vector<uint32_t>> BuildPivotIndex(const PreprocessResult& pre,
                                                   ItemId num_frequent);

/// Builds the aggregated partition P_w of one pivot: rewrites the relevant
/// transactions and merges identical rewrites with weights (Sec. 4.4).
/// Returns an empty partition if no rewrite survives.
Partition BuildPivotPartition(const PreprocessResult& pre,
                              const Rewriter& rewriter, ItemId pivot,
                              const std::vector<uint32_t>& tids);

}  // namespace lash

#endif  // LASH_ALGO_SEQUENTIAL_H_
