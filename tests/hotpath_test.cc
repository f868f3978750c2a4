// Differential and property tests for the optimized mining hot path:
// every local miner against the naive enumeration oracle across randomized
// hierarchical databases and parameter sweeps, the fused partitions against
// the per-pivot reference builder, parallel vs. serial mining, and the
// EventRegrouper that replaced PSM's per-insert embedding dedup.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "algo/lash.h"
#include "algo/sequential.h"
#include "core/rewrite.h"
#include "miner/enumerate.h"
#include "miner/miner.h"
#include "miner/psm.h"
#include "miner/psm_legacy.h"
#include "test_util.h"
#include "util/rng.h"

namespace lash {
namespace {

// Hierarchy shapes the sweep covers: flat (no generalization), a single
// deep chain (max-depth ancestor walks), and random forests of varying
// root probability (mixed depth).
Hierarchy MakeHierarchy(int shape, size_t n, Rng* rng) {
  switch (shape) {
    case 0:
      return Hierarchy::Flat(n);
    case 1: {  // One chain: 1 <- 2 <- ... <- n.
      std::vector<ItemId> parent(n + 1, kInvalidItem);
      for (ItemId w = 2; w <= n; ++w) parent[w] = w - 1;
      return Hierarchy(std::move(parent));
    }
    case 2:
      return testing::RandomRankHierarchy(n, 0.5, rng);
    default:
      return testing::RandomRankHierarchy(n, 0.15, rng);  // Deep forest.
  }
}

// A random raw partition (blanks included) with aggregation weights.
Partition RandomPartition(size_t num_sequences, size_t max_length,
                          size_t num_items, Rng* rng) {
  Partition partition;
  for (size_t i = 0; i < num_sequences; ++i) {
    Sequence t;
    size_t len = 2 + rng->Uniform(max_length - 1);
    for (size_t j = 0; j < len; ++j) {
      t.push_back(rng->Bernoulli(0.15)
                      ? kBlank
                      : static_cast<ItemId>(1 + rng->Uniform(num_items)));
    }
    partition.Add(std::move(t), 1 + rng->Uniform(3));
  }
  return partition;
}

TEST(HotPathTest, AllPartitionMinersAgreeWithNaive) {
  Rng rng(31337);
  int checked = 0;
  for (int shape = 0; shape < 4; ++shape) {
    for (uint32_t gamma : {0u, 1u, 2u}) {
      for (uint32_t lambda : {2u, 3u, 5u}) {
        const size_t n = 6 + rng.Uniform(6);
        Hierarchy h = MakeHierarchy(shape, n, &rng);
        GsmParams params{.sigma = 1 + rng.Uniform(3),
                         .gamma = gamma,
                         .lambda = lambda};
        Partition partition = RandomPartition(12, 7, n, &rng);
        const ItemId pivot = static_cast<ItemId>(1 + rng.Uniform(n));
        PatternMap expected =
            MinePartitionByEnumeration(partition, h, params, pivot);

        for (MinerKind kind : {MinerKind::kBfs, MinerKind::kDfs,
                               MinerKind::kPsm, MinerKind::kPsmIndex}) {
          auto miner = MakeLocalMiner(kind, &h, params);
          PatternMap mined = partition.size() == 0
                                 ? PatternMap{}
                                 : miner->Mine(partition, pivot, nullptr);
          ASSERT_EQ(testing::Sorted(mined), testing::Sorted(expected))
              << miner->name() << " shape=" << shape << " gamma=" << gamma
              << " lambda=" << lambda << " pivot=" << pivot;
        }
        const LegacyPartition legacy_partition =
            MaterializeLegacyPartition(partition);
        for (bool use_index : {false, true}) {
          LegacyPsmMiner legacy(&h, params, use_index);
          PatternMap mined = legacy.Mine(legacy_partition, pivot, nullptr);
          ASSERT_EQ(testing::Sorted(mined), testing::Sorted(expected))
              << legacy.name() << " shape=" << shape;
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 4 * 3 * 3);
}

TEST(HotPathTest, FullPipelineSweepAgreesWithEnumeration) {
  Rng rng(271828);
  for (int shape = 0; shape < 4; ++shape) {
    for (int trial = 0; trial < 3; ++trial) {
      const size_t n = 5 + rng.Uniform(6);
      Hierarchy h = MakeHierarchy(shape, n, &rng);
      Database db = testing::RandomDatabase(15, 8, n, &rng);
      PreprocessResult pre = Preprocess(db, h);
      GsmParams params{.sigma = 1 + rng.Uniform(3),
                       .gamma = static_cast<uint32_t>(rng.Uniform(3)),
                       .lambda = static_cast<uint32_t>(2 + rng.Uniform(4))};
      PatternMap expected =
          MineByEnumeration(pre.database, pre.hierarchy, params);
      for (MinerKind kind : {MinerKind::kBfs, MinerKind::kDfs,
                             MinerKind::kPsm, MinerKind::kPsmIndex}) {
        PatternMap mined =
            MineSequential(pre, params, kind, nullptr, /*num_threads=*/1);
        ASSERT_EQ(testing::Sorted(mined), testing::Sorted(expected))
            << "shape=" << shape << " trial=" << trial
            << " kind=" << static_cast<int>(kind);
      }

      // The fused partitions the sequential run aggregates must have the
      // shape of the per-pivot reference builder's.
      const ItemId num_frequent =
          static_cast<ItemId>(pre.NumFrequent(params.sigma));
      Rewriter rewriter(&pre.hierarchy, params.gamma, params.lambda);
      auto tids = BuildPivotIndex(pre, num_frequent);
      PartitionShape reference;
      for (ItemId pivot = 1; pivot <= num_frequent; ++pivot) {
        Partition partition =
            BuildPivotPartition(pre, rewriter, pivot, tids[pivot]);
        if (partition.size() == 0) continue;
        reference.Merge(
            PartitionShape{1, partition.size(), partition.size()});
      }
      auto fields = [](const PartitionShape& s) {
        return std::tuple(s.partitions, s.total_sequences, s.max_partition);
      };
      for (size_t threads : {1u, 4u}) {
        EXPECT_EQ(fields(RunLash(pre, params, SequentialJobConfig(threads))
                             .partition_shape),
                  fields(reference))
            << "shape=" << shape << " trial=" << trial
            << " threads=" << threads;
      }
    }
  }
}

TEST(HotPathTest, ParallelMiningMatchesSerial) {
  Rng rng(1234);
  for (int trial = 0; trial < 5; ++trial) {
    const size_t n = 8 + rng.Uniform(8);
    Hierarchy h = testing::RandomRankHierarchy(n, 0.3, &rng);
    Database db = testing::RandomDatabase(40, 10, n, &rng);
    PreprocessResult pre = Preprocess(db, h);
    GsmParams params{.sigma = 2, .gamma = 1, .lambda = 4};
    MinerStats serial_stats, parallel_stats;
    PatternMap serial = MineSequential(pre, params, MinerKind::kPsmIndex,
                                       &serial_stats, /*num_threads=*/1);
    PatternMap parallel = MineSequential(pre, params, MinerKind::kPsmIndex,
                                         &parallel_stats, /*num_threads=*/4);
    ASSERT_EQ(testing::Sorted(serial), testing::Sorted(parallel))
        << "trial " << trial;
    // Search-space accounting must not depend on the thread count either.
    EXPECT_EQ(serial_stats.candidates, parallel_stats.candidates);
    EXPECT_EQ(serial_stats.outputs, parallel_stats.outputs);
  }
}

TEST(HotPathTest, WorkerExceptionsPropagateToCaller) {
  testing::PaperExample ex;
  GsmParams params{.sigma = 2, .gamma = 1, .lambda = 3};
  // An unknown miner kind makes every worker's MakeLocalMiner throw; the
  // exception must surface on the calling thread, not kill the process.
  EXPECT_THROW(MineSequential(ex.pre, params, static_cast<MinerKind>(99),
                              nullptr, /*num_threads=*/4),
               std::invalid_argument);
  JobConfig config;
  config.num_threads = 4;
  LashOptions options;
  options.miner = static_cast<MinerKind>(99);
  EXPECT_THROW(RunLash(ex.pre, params, config, options),
               std::invalid_argument);
  config.shuffle = ShuffleMode::kLegacyHash;
  EXPECT_THROW(RunLash(ex.pre, params, config, options),
               std::invalid_argument);
}

TEST(HotPathTest, ParallelDefaultThreadsMatchesSerialOnPaperExample) {
  testing::PaperExample ex;
  GsmParams params{.sigma = 2, .gamma = 1, .lambda = 3};
  PatternMap serial = MineSequential(ex.pre, params, MinerKind::kPsmIndex,
                                     nullptr, /*num_threads=*/1);
  PatternMap parallel = MineSequential(ex.pre, params, MinerKind::kPsmIndex,
                                       nullptr, /*num_threads=*/0);
  EXPECT_EQ(testing::Sorted(serial), testing::Sorted(parallel));
  EXPECT_EQ(testing::Sorted(serial), testing::Sorted(ex.ExpectedOutput()));
}

// ---- EventRegrouper: the dedup that replaced AddEmbedding's O(n²) scan ----

using psm_internal::EventGroup;
using psm_internal::EventRegrouper;
using psm_internal::ExpansionEvent;
using psm_internal::PostingCursor;
using psm_internal::SortUniqueEvents;

// The compacting form of the grouping contract: regroups events[from..]
// with RegroupPacked, decodes every group's postings back into the event
// buffer (truncated to `from` first), and appends each group with an
// event-index range. Returns the new end of the buffer.
size_t Regroup(EventRegrouper* regrouper, std::vector<ExpansionEvent>* events,
               size_t from, const std::vector<Frequency>& weights,
               std::vector<EventGroup>* groups) {
  std::string packed;
  std::vector<EventGroup> packed_groups;
  regrouper->RegroupPacked(*events, from, weights, &packed, &packed_groups);
  events->resize(from);
  for (const EventGroup& group : packed_groups) {
    const size_t begin = events->size();
    PostingCursor cursor(group.begin);
    uint32_t tid = 0;
    Embedding emb{0, 0};
    while (cursor.Next(packed, group.end, &tid, &emb)) {
      events->push_back({group.item, tid, emb});
    }
    groups->push_back({group.item, begin, events->size(), group.weight});
  }
  return events->size();
}

// Generates an event stream the way PSM does: postings scanned in
// nondecreasing tid order, each emitting events for random items with
// duplicates and out-of-order embeddings within a (item, tid) run.
std::vector<ExpansionEvent> RandomEventStream(size_t num_tids,
                                              size_t num_items, Rng* rng) {
  std::vector<ExpansionEvent> events;
  for (uint32_t tid = 0; tid < num_tids; ++tid) {
    if (rng->Bernoulli(0.3)) continue;  // Not every tid supports the node.
    size_t bursts = 1 + rng->Uniform(4);
    for (size_t b = 0; b < bursts; ++b) {
      ItemId item = static_cast<ItemId>(1 + rng->Uniform(num_items));
      size_t copies = 1 + rng->Uniform(3);  // Duplicates on purpose.
      uint32_t start = rng->Uniform(6);
      uint32_t end = start + rng->Uniform(4);
      for (size_t c = 0; c < copies; ++c) {
        events.push_back({item, tid, Embedding{start, end}});
      }
    }
  }
  return events;
}

TEST(EventRegrouperTest, MatchesSortUniqueReference) {
  Rng rng(555);
  EventRegrouper regrouper;
  for (int trial = 0; trial < 50; ++trial) {
    const size_t num_items = 1 + rng.Uniform(10);
    std::vector<Frequency> weights;
    for (size_t i = 0; i < 20; ++i) weights.push_back(1 + rng.Uniform(5));

    // A nonempty prefix plays the part of the parent levels of the arena:
    // regrouping must leave it untouched and group only the tail.
    std::vector<ExpansionEvent> prefix =
        RandomEventStream(3, num_items, &rng);
    size_t from = prefix.size();
    std::vector<ExpansionEvent> tail =
        RandomEventStream(weights.size(), num_items, &rng);

    std::vector<ExpansionEvent> expected = prefix;
    expected.insert(expected.end(), tail.begin(), tail.end());
    SortUniqueEvents(&expected, from);

    std::vector<ExpansionEvent> actual = prefix;
    actual.insert(actual.end(), tail.begin(), tail.end());
    std::vector<EventGroup> groups;
    regrouper.Prepare(num_items + 1);
    size_t new_end = Regroup(&regrouper, &actual, from, weights, &groups);

    ASSERT_EQ(actual, expected) << "trial " << trial;
    ASSERT_EQ(new_end, expected.size());

    // The group directory must tile [from, new_end) in ascending item
    // order and carry the weighted document frequency of each group.
    size_t pos = from;
    for (size_t g = 0; g < groups.size(); ++g) {
      ASSERT_EQ(groups[g].begin, pos);
      ASSERT_GT(groups[g].end, groups[g].begin);
      if (g > 0) ASSERT_LT(groups[g - 1].item, groups[g].item);
      Frequency weight = 0;
      uint32_t last_tid = UINT32_MAX;
      for (size_t i = groups[g].begin; i < groups[g].end; ++i) {
        ASSERT_EQ(actual[i].item, groups[g].item);
        if (actual[i].tid != last_tid) {
          weight += weights[actual[i].tid];
          last_tid = actual[i].tid;
        }
      }
      ASSERT_EQ(groups[g].weight, weight) << "trial " << trial;
      pos = groups[g].end;
    }
    ASSERT_EQ(pos, new_end);
  }
}

TEST(EventRegrouperTest, EmptyTailProducesNoGroups) {
  EventRegrouper regrouper;
  regrouper.Prepare(10);
  std::vector<ExpansionEvent> events = {{1, 0, Embedding{0, 0}}};
  std::vector<EventGroup> groups;
  std::vector<Frequency> weights(4, 1);
  EXPECT_EQ(Regroup(&regrouper, &events, 1, weights, &groups), 1u);
  EXPECT_TRUE(groups.empty());
  EXPECT_EQ(events.size(), 1u);
}

TEST(EventRegrouperTest, DeduplicatesAdjacentAndDistantDuplicates) {
  // Two embeddings of one transaction expand to the same (start, j) pair
  // through different windows — the case the old AddEmbedding dedup scanned
  // linearly for.
  EventRegrouper regrouper;
  regrouper.Prepare(5);
  std::vector<Frequency> weights = {2, 3};
  std::vector<ExpansionEvent> events = {
      {2, 0, Embedding{0, 3}},
      {2, 0, Embedding{0, 2}},
      {2, 0, Embedding{0, 3}},  // Duplicate, out of order.
      {2, 1, Embedding{0, 3}},  // Same embedding, different tid: kept.
  };
  std::vector<EventGroup> groups;
  size_t end = Regroup(&regrouper, &events, 0, weights, &groups);
  ASSERT_EQ(end, 3u);
  EXPECT_EQ(events[0].emb, (Embedding{0, 2}));
  EXPECT_EQ(events[1].emb, (Embedding{0, 3}));
  EXPECT_EQ(events[2].tid, 1u);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].weight, 5u);  // Both transactions support item 2.
}

}  // namespace
}  // namespace lash
