#include "algo/lash.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <utility>

#include "core/rewrite.h"
#include "util/varint.h"

namespace lash {

namespace {

// Collects G1(T) restricted to frequent items into `*pivots` (cleared):
// walk each item's ancestor chain, dedup via sort (chains are short).
void CollectFrequentPivots(SequenceView t, const Hierarchy& h,
                           ItemId num_frequent, Sequence* pivots) {
  pivots->clear();
  for (ItemId w : t) {
    for (ItemId a : h.AncestorSpan(w)) {
      if (a <= num_frequent) pivots->push_back(a);
      // Ancestors of an already-seen item repeat; the sort+unique below
      // removes them.
    }
  }
  std::sort(pivots->begin(), pivots->end());
  pivots->erase(std::unique(pivots->begin(), pivots->end()), pivots->end());
}

// The packed-spill LASH driver. Per worker thread: one ScratchRewriter,
// reusable pivot/rewrite/key buffers (so the map phase performs no
// steady-state heap allocation), one local miner and one output map. Per
// reduce task: partitions accumulate in a flat vector (slot index per
// pivot) and reduce_finish mines them pivot-sorted, in parallel over pivots
// on the job's own pool.
AlgoResult RunLashPacked(const PreprocessResult& pre, const GsmParams& params,
                         const JobConfig& config, const LashOptions& options) {
  const Hierarchy& h = pre.hierarchy;
  const ItemId num_frequent = static_cast<ItemId>(pre.NumFrequent(params.sigma));
  const size_t num_red = std::max<size_t>(1, config.num_reduce_tasks);
  const size_t num_threads = std::max<size_t>(1, config.num_threads);

  // Per-worker state, indexed by ThreadPool::CurrentIndex(). Map tasks and
  // the mining ParallelFor bodies always run on pool workers, and a worker
  // runs one of them at a time, so the slots are race-free.
  struct WorkerState {
    std::unique_ptr<ScratchRewriter> rewriter;
    Sequence pivots;
    Sequence rewritten;
    Sequence key;
    std::unique_ptr<LocalMiner> miner;
    PatternMap output;
    MinerStats stats;
  };
  std::vector<WorkerState> workers(num_threads);
  // Worker 0's rewriter and miner are built here on the calling thread, so
  // invalid inputs (an unknown miner kind, a hierarchy that is not
  // rank-monotone) throw to the caller; inside a pool task the exception
  // would terminate the process. The other workers build theirs lazily
  // from the same, now validated, arguments.
  workers[0].rewriter =
      std::make_unique<ScratchRewriter>(&h, params.gamma, params.lambda);
  workers[0].miner = MakeLocalMiner(options.miner, &h, params);

  // Per reduce task: flat partitions (one slot per pivot seen) plus a
  // slot directory. With the packed shuffle keys arrive grouped by
  // (hash, bytes), not by pivot, so the directory does the routing; the
  // pivot-sorted order is established once in reduce_finish.
  struct ReduceState {
    std::vector<ItemId> pivots;
    std::vector<Partition> partitions;
    std::unordered_map<ItemId, uint32_t> slot_of_pivot;
  };
  std::vector<ReduceState> reduce_state(num_red);
  std::vector<PartitionShape> shapes(num_red);

  AlgoResult result;
  // Intermediate key: [pivot, rewritten sequence...]. The partitioner routes
  // by pivot so that a reduce task sees every sequence of its pivots. The
  // input is the flat corpus: map tasks stream SequenceViews out of one
  // contiguous arena.
  using Job = MapReduceJob<SequenceView, Sequence, Frequency, SequenceHash>;
  Job job(
      // Map = partitioning phase (Alg. 1 lines 1-5).
      [&](SequenceView t, const Job::EmitFn& emit) {
        WorkerState& scratch = workers[ThreadPool::CurrentIndex()];
        if (!scratch.rewriter) {
          scratch.rewriter = std::make_unique<ScratchRewriter>(
              &h, params.gamma, params.lambda);
        }
        if (options.rewrite == RewriteLevel::kFull) {
          // Occurrence-driven fused loop: every pivot's key in one chain
          // walk, each pivot rewriting only the bounded neighborhood of
          // its occurrences (run walk for gamma == 0, merged
          // (lambda-1)*(gamma+1) windows with the interval DP otherwise).
          scratch.rewriter->RewriteAllPivots(
              t, num_frequent, [&](const Sequence& key) { emit(key, 1); });
          return;
        }
        CollectFrequentPivots(t, h, num_frequent, &scratch.pivots);
        // P_w(T) = T is pivot-independent; copy once, not per pivot.
        if (options.rewrite == RewriteLevel::kNone) {
          scratch.rewritten.assign(t.begin(), t.end());
        }
        for (ItemId w : scratch.pivots) {
          switch (options.rewrite) {
            case RewriteLevel::kNone:
              break;
            case RewriteLevel::kGeneralizeOnly:
              scratch.rewriter->Generalize(t, w, &scratch.rewritten);
              break;
            case RewriteLevel::kFull:
              if (!scratch.rewriter->Rewrite(t, w, &scratch.rewritten)) {
                continue;
              }
              break;
          }
          if (scratch.rewritten.empty()) continue;
          scratch.key.clear();
          scratch.key.reserve(scratch.rewritten.size() + 1);
          scratch.key.push_back(w);
          scratch.key.insert(scratch.key.end(), scratch.rewritten.begin(),
                             scratch.rewritten.end());
          emit(scratch.key, 1);
        }
      },
      // Reduce = aggregation of identical rewrites (Sec. 4.4); mining runs
      // in the reduce-finish hook once the partition is complete.
      [&](size_t rtask, const Sequence& key, std::vector<Frequency>& values) {
        Frequency total = 0;
        for (Frequency v : values) total += v;
        ReduceState& state = reduce_state[rtask];
        const ItemId pivot = key[0];
        auto [it, inserted] = state.slot_of_pivot.try_emplace(
            pivot, static_cast<uint32_t>(state.pivots.size()));
        if (inserted) {
          state.pivots.push_back(pivot);
          state.partitions.emplace_back();
        }
        state.partitions[it->second].Add(
            SequenceView(key.data() + 1, key.size() - 1), total);
      },
      // Legacy-path byte accounting; unused when the packed spill is active
      // (real buffer bytes are counted instead) but kept in sync with the
      // codec so a fallback reports identical MAP_OUTPUT_BYTES.
      [](const Sequence& key, const Frequency& value) {
        return Varint32Size(key[0]) +
               EncodedRewrittenSpanSize(key.data() + 1, key.size() - 1) +
               Varint64Size(value);
      });
  if (options.use_combiner) {
    job.set_combiner(
        [](Frequency* acc, Frequency&& incoming) { *acc += incoming; });
  }
  job.set_partitioner([](const Sequence& key) {
    return static_cast<size_t>(key[0]);
  });
  // Spill codec: varint pivot + blank-run-compressed rewritten sequence +
  // varint weight — the exact byte format the paper's MAP_OUTPUT_BYTES
  // simulation assumed, now actually materialized.
  Job::SpillCodec codec;
  codec.encode_key = [](std::string* out, const Sequence& key) {
    PutVarint32(out, key[0]);
    EncodeRewrittenSpan(out, key.data() + 1, key.size() - 1);
  };
  codec.decode_key = [](const std::string& data, size_t* pos, Sequence* key) {
    uint32_t pivot = 0;
    if (!GetVarint32(data, pos, &pivot)) return false;
    key->clear();
    key->push_back(pivot);
    return DecodeRewrittenSpanAppend(data, pos, key);
  };
  codec.encode_value = [](std::string* out, const Frequency& value) {
    PutVarint64(out, value);
  };
  codec.decode_value = [](const std::string& data, size_t* pos,
                          Frequency* value) {
    return GetVarint64(data, pos, value);
  };
  codec.skip_key = [](const std::string& data, size_t* pos) {
    uint32_t pivot = 0;
    return GetVarint32(data, pos, &pivot) && SkipRewrittenSpan(data, pos);
  };
  job.set_spill_codec(std::move(codec));

  job.set_reduce_finish([&](size_t rtask, ThreadPool* pool) {
    // Mining phase (Alg. 1 lines 7-11), parallel over pivots. Pivot
    // outputs are disjoint (every pattern names its pivot as max item), so
    // the per-worker maps merge to the same result in any order.
    ReduceState& state = reduce_state[rtask];
    const size_t n = state.pivots.size();
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return state.pivots[a] < state.pivots[b];
    });
    for (const Partition& partition : state.partitions) {
      shapes[rtask].partitions += 1;
      shapes[rtask].total_sequences += partition.size();
      shapes[rtask].max_partition =
          std::max<uint64_t>(shapes[rtask].max_partition, partition.size());
    }
    pool->ParallelFor(n, [&](size_t i) {
      WorkerState& ws = workers[ThreadPool::CurrentIndex()];
      if (!ws.miner) ws.miner = MakeLocalMiner(options.miner, &h, params);
      const uint32_t slot = order[i];
      PatternMap mined = ws.miner->Mine(state.partitions[slot],
                                        state.pivots[slot], &ws.stats);
      ws.output.merge(mined);
      // A mined partition is never read again; free it now instead of
      // holding the whole reduce task's partitions until the loop ends.
      state.partitions[slot] = Partition{};
    });
    state = ReduceState{};
  });

  result.job = job.Run(pre.database, config);
  for (WorkerState& ws : workers) {
    result.patterns.merge(ws.output);
    result.miner_stats.Merge(ws.stats);
  }
  for (const PartitionShape& s : shapes) result.partition_shape.Merge(s);
  return result;
}

// The pre-PR2 driver, verbatim: per-emit key allocation, simulated
// MAP_OUTPUT_BYTES, std::map partitions, serial mining per reduce task.
// It is the before-baseline of bench_shuffle (selected via
// JobConfig::shuffle == ShuffleMode::kLegacyHash); do not optimize it.
// `db` is the rank-space corpus materialized back into the owning
// vector-of-vectors form the seed driver ran on (one heap vector per
// transaction), so the map phase measures exactly its original costs.
// Reduce-side partition storage and the local miners are deliberately the
// *shared production* CSR code on both paths (identical on the packed side
// too), so the packed-vs-legacy comparison isolates the shuffle machinery
// itself rather than mixing in partition-storage differences.
AlgoResult RunLashLegacy(const Database& db, const PreprocessResult& pre,
                         const GsmParams& params, const JobConfig& config,
                         const LashOptions& options) {
  const Hierarchy& h = pre.hierarchy;
  const ItemId num_frequent = static_cast<ItemId>(pre.NumFrequent(params.sigma));
  const size_t num_red = std::max<size_t>(1, config.num_reduce_tasks);
  Rewriter rewriter(&h, params.gamma, params.lambda);

  AlgoResult result;
  // Per reduce task: partitions under construction, outputs, miner stats.
  std::vector<std::map<ItemId, Partition>> partitions(num_red);
  std::vector<PatternMap> outputs(num_red);
  std::vector<MinerStats> stats(num_red);
  std::vector<PartitionShape> shapes(num_red);

  using Job = MapReduceJob<Sequence, Sequence, Frequency, SequenceHash>;
  Job job(
      [&](const Sequence& t, const Job::EmitFn& emit) {
        Sequence pivots;
        for (ItemId w : t) {
          for (ItemId a : h.AncestorSpan(w)) {
            if (a <= num_frequent) pivots.push_back(a);
          }
        }
        std::sort(pivots.begin(), pivots.end());
        pivots.erase(std::unique(pivots.begin(), pivots.end()), pivots.end());
        Sequence key;
        for (ItemId w : pivots) {
          Sequence rewritten;
          switch (options.rewrite) {
            case RewriteLevel::kNone:
              rewritten = t;
              break;
            case RewriteLevel::kGeneralizeOnly:
              rewritten = rewriter.Generalize(t, w);
              break;
            case RewriteLevel::kFull:
              rewritten = rewriter.Rewrite(t, w);
              break;
          }
          if (rewritten.empty()) continue;
          key.clear();
          key.reserve(rewritten.size() + 1);
          key.push_back(w);
          key.insert(key.end(), rewritten.begin(), rewritten.end());
          emit(key, 1);
        }
      },
      [&](size_t rtask, const Sequence& key, std::vector<Frequency>& values) {
        Frequency total = 0;
        for (Frequency v : values) total += v;
        partitions[rtask][key[0]].Add(
            SequenceView(key.data() + 1, key.size() - 1), total);
      },
      // MAP_OUTPUT_BYTES: pivot + blank-run-compressed sequence + weight.
      [](const Sequence& key, const Frequency& value) {
        Sequence sequence(key.begin() + 1, key.end());
        return Varint32Size(key[0]) + EncodedRewrittenSequenceSize(sequence) +
               Varint64Size(value);
      });
  if (options.use_combiner) {
    job.set_combiner(
        [](Frequency* acc, Frequency&& incoming) { *acc += incoming; });
  }
  job.set_partitioner([](const Sequence& key) {
    return static_cast<size_t>(key[0]);
  });
  job.set_reduce_finish([&](size_t rtask, ThreadPool*) {
    // Mining phase (Alg. 1 lines 7-11): one local miner per task.
    auto miner = MakeLocalMiner(options.miner, &h, params);
    for (auto& [pivot, partition] : partitions[rtask]) {
      shapes[rtask].partitions += 1;
      shapes[rtask].total_sequences += partition.size();
      shapes[rtask].max_partition =
          std::max<uint64_t>(shapes[rtask].max_partition, partition.size());
      PatternMap mined = miner->Mine(partition, pivot, &stats[rtask]);
      outputs[rtask].merge(mined);
    }
    partitions[rtask].clear();
  });

  result.job = job.Run(db, config);
  for (PatternMap& part : outputs) result.patterns.merge(part);
  for (const MinerStats& s : stats) result.miner_stats.Merge(s);
  for (const PartitionShape& s : shapes) result.partition_shape.Merge(s);
  return result;
}

}  // namespace

AlgoResult RunLash(const PreprocessResult& pre, const GsmParams& params,
                   const JobConfig& config, const LashOptions& options) {
  params.Validate();
  if (config.shuffle == ShuffleMode::kLegacyHash) {
    // The legacy driver builds its miners inside pool tasks, where an
    // exception would terminate the process: build one here first, so an
    // unknown miner kind throws to the caller.
    MakeLocalMiner(options.miner, &pre.hierarchy, params);
    // Materialize the owning-vectors corpus the seed driver ran on. This
    // happens before the job starts, so the reported phase times measure
    // the legacy path itself, not the conversion.
    Database legacy_db = pre.database.Materialize();
    return RunLashLegacy(legacy_db, pre, params, config, options);
  }
  return RunLashPacked(pre, params, config, options);
}

}  // namespace lash
