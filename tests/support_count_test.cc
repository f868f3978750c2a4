// Tests for serve/support_count.h: the worker-side exact recount behind the
// router's two-phase candidate/count protocol.
//
// The load-bearing property is the differential: for ANY (σ, γ, λ, flat)
// the support CountSupports reports for a mined pattern must equal the
// frequency mining reported — otherwise the router's phase-2 re-cut at σ
// would diverge from single-corpus mining and the exactness contract dies.
// A second differential pits the one-pass kernel against a per-candidate
// Matches scan kept here as the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/match.h"

#include "api/lash_api.h"
#include "io/result_io.h"
#include "serve/mining_service.h"
#include "serve/support_count.h"
#include "serve/task_spec.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace lash {
namespace {

using serve::CountQuery;
using serve::CountSupports;
using serve::SupportCounter;
using serve::TaskSpec;

/// The reference kernel: each candidate resolved on its own and matched
/// against every transaction.
std::vector<Frequency> ReferenceSupports(const Dataset& dataset,
                                         const NamedPatternList& candidates,
                                         const CountQuery& query) {
  const PreprocessResult& pre =
      query.flat ? dataset.flat_preprocessed() : dataset.preprocessed();
  std::vector<Frequency> supports(candidates.size(), 0);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const NamedPattern& candidate = candidates[c];
    if (candidate.items.empty() || candidate.items.size() > query.lambda) {
      continue;
    }
    Sequence ranks;
    for (const std::string& name : candidate.items) {
      ranks.push_back(dataset.RankOfName(name, query.flat));
    }
    if (std::count(ranks.begin(), ranks.end(), kInvalidItem) > 0) continue;
    for (size_t t = 0; t < pre.database.size(); ++t) {
      if (Matches(ranks, pre.database[t], pre.hierarchy, query.gamma)) {
        ++supports[c];
      }
    }
  }
  return supports;
}

class SupportCountTest : public ::testing::Test {
 protected:
  SupportCountTest() : dataset_(Dataset::FromMemory(ex_.raw_db, ex_.vocab)) {}

  testing::PaperExample ex_;
  Dataset dataset_;
};

TEST_F(SupportCountTest, CountingMatchesMiningAcrossTheGrid) {
  // Every mined pattern, recounted, must report its mined frequency — over
  // a grid wide enough to cover γ-gapped matching, length cut-offs, both
  // hierarchy modes, and σ=1 (where every occurring pattern surfaces).
  // Some flat/tight-γ cells legitimately mine nothing; the grid as a whole
  // must not, or the differential proved nothing.
  size_t total_patterns = 0;
  for (const Frequency sigma : {Frequency{1}, Frequency{2}, Frequency{3}}) {
    for (const uint32_t gamma : {0u, 1u, 2u}) {
      for (const uint32_t lambda : {2u, 3u, 5u}) {
        for (const bool flat : {false, true}) {
          TaskSpec spec;
          spec.algorithm = Algorithm::kSequential;
          spec.params = {.sigma = sigma, .gamma = gamma, .lambda = lambda};
          spec.flat = flat;
          serve::MiningService service(dataset_);
          // Get() returns into the pending result's state: keep it alive.
          const serve::PendingResult pending = service.Submit(spec);
          const serve::Response& response = pending.Get();
          const NamedPatternList mined =
              NamePatterns(dataset_, response.patterns(),
                           response.run().used_flat_hierarchy);
          total_patterns += mined.size();
          const CountQuery query{gamma, lambda,
                                 response.run().used_flat_hierarchy};
          const std::vector<Frequency> counted =
              CountSupports(dataset_, mined, query);
          ASSERT_EQ(counted.size(), mined.size());
          for (size_t i = 0; i < mined.size(); ++i) {
            EXPECT_EQ(counted[i], mined[i].frequency)
                << "pattern " << i << " at sigma=" << sigma
                << " gamma=" << gamma << " lambda=" << lambda
                << " flat=" << flat;
          }
        }
      }
    }
  }
  EXPECT_GT(total_patterns, 0u);
}

TEST_F(SupportCountTest, PaperExampleSpotChecks) {
  // Anchors beyond the self-referential differential: the paper's σ=2 γ=1
  // λ=3 answer is known, so counting its patterns is counting ground truth.
  const CountQuery query{/*gamma=*/1, /*lambda=*/3, /*flat=*/false};
  const NamedPatternList expected =
      NamePatterns(dataset_, ex_.ExpectedOutput(), /*flat=*/false);
  const std::vector<Frequency> counted =
      CountSupports(dataset_, expected, query);
  ASSERT_EQ(counted.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(counted[i], expected[i].frequency) << "pattern " << i;
  }
}

TEST_F(SupportCountTest, DegenerateCandidatesCountZero) {
  const CountQuery query{/*gamma=*/1, /*lambda=*/3, /*flat=*/false};
  const NamedPatternList candidates = {
      {{"no-such-item"}, 0},          // unknown vocabulary name
      {{"a", "no-such-item"}, 0},     // one unknown item poisons the whole
      {{}, 0},                        // empty pattern
      {{"a", "B", "a", "B"}, 0},      // length 4 > λ=3
      {{"a", "B"}, 0},                // a real one, as the control
  };
  const std::vector<Frequency> counted =
      CountSupports(dataset_, candidates, query);
  ASSERT_EQ(counted.size(), candidates.size());
  EXPECT_EQ(counted[0], 0u);
  EXPECT_EQ(counted[1], 0u);
  EXPECT_EQ(counted[2], 0u);
  EXPECT_EQ(counted[3], 0u);
  EXPECT_EQ(counted[4], 3u);  // {a, B} has support 3 in the paper corpus.
}

TEST_F(SupportCountTest, ReportedFrequencyOnCandidatesIsIgnored) {
  // Phase-1 candidates arrive carrying partial per-shard sums; counting
  // must answer from the data alone.
  const CountQuery query{/*gamma=*/1, /*lambda=*/3, /*flat=*/false};
  const NamedPatternList candidates = {{{"a", "B"}, 999}};
  const std::vector<Frequency> counted =
      CountSupports(dataset_, candidates, query);
  ASSERT_EQ(counted.size(), 1u);
  EXPECT_EQ(counted[0], 3u);
}

TEST(SupportCounterTest, OnePassKernelMatchesPerCandidateReference) {
  // Random forests and corpora; candidates mix generalized subsequences of
  // real transactions (mostly matching) with random item strings, unknown
  // names, over-λ and empty patterns, and duplicates — flat and
  // hierarchical, γ 0–2. Every count must equal the reference's, and any
  // split of the corpus into blocks must sum to the same supports.
  Rng rng(2501);
  size_t positive = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Vocabulary vocab;
    const size_t num_items = 8 + rng.Uniform(40);
    std::vector<std::string> names;
    for (size_t i = 0; i < num_items; ++i) {
      names.push_back("i" + std::to_string(i));
      if (i > 0 && rng.Bernoulli(0.7)) {
        vocab.AddItemWithParent(names[i], names[rng.Uniform(i)]);
      } else {
        vocab.AddItem(names[i]);
      }
    }
    Database db(60 + rng.Uniform(200));
    for (Sequence& t : db) {
      const size_t len = rng.Uniform(10);  // Empty transactions included.
      for (size_t i = 0; i < len; ++i) {
        t.push_back(vocab.Lookup(names[rng.Uniform(num_items)]));
      }
    }
    const Dataset dataset = Dataset::FromMemory(db, vocab);

    for (const bool flat : {false, true}) {
      for (const uint32_t gamma : {0u, 1u, 2u}) {
        const uint32_t lambda = 2 + static_cast<uint32_t>(rng.Uniform(3));
        NamedPatternList candidates;
        for (int c = 0; c < 150; ++c) {
          NamedPattern candidate;
          const uint64_t kind = rng.Uniform(10);
          if (kind < 5) {
            // A (γ-gapped) subsequence of a transaction, each item
            // generalized to a random ancestor when mining hierarchically.
            const Sequence& t = db[rng.Uniform(db.size())];
            size_t pos = t.empty() ? 0 : rng.Uniform(t.size());
            const size_t len = 1 + rng.Uniform(lambda);
            for (size_t i = 0; i < len && pos < t.size(); ++i) {
              ItemId item = t[pos];
              while (!flat && vocab.Parent(item) != kInvalidItem &&
                     rng.Bernoulli(0.4)) {
                item = vocab.Parent(item);
              }
              candidate.items.emplace_back(vocab.Name(item));
              pos += 1 + rng.Uniform(gamma + 2);
            }
          } else if (kind < 8) {
            const size_t len = rng.Uniform(lambda + 2);  // Empty, over-λ.
            for (size_t i = 0; i < len; ++i) {
              candidate.items.push_back(names[rng.Uniform(num_items)]);
            }
          } else if (kind < 9) {
            candidate.items = {names[rng.Uniform(num_items)], "no-such-item"};
          } else if (!candidates.empty()) {
            candidate = candidates[rng.Uniform(candidates.size())];
          }
          candidate.frequency = rng.Uniform(5);  // Must be ignored.
          candidates.push_back(std::move(candidate));
        }

        const CountQuery query{gamma, lambda, flat};
        const std::vector<Frequency> expected =
            ReferenceSupports(dataset, candidates, query);
        ASSERT_EQ(CountSupports(dataset, candidates, query), expected)
            << "trial " << trial << " flat=" << flat << " gamma=" << gamma;
        positive += std::count_if(expected.begin(), expected.end(),
                                  [](Frequency f) { return f > 0; });

        const SupportCounter counter(dataset, candidates, query);
        ASSERT_EQ(counter.num_candidates(), candidates.size());
        std::vector<Frequency> summed(candidates.size(), 0);
        size_t begin = 0;
        while (begin < counter.num_transactions()) {
          const size_t end = std::min(counter.num_transactions(),
                                      begin + 1 + rng.Uniform(40));
          std::vector<Frequency> block(candidates.size(), 0);
          counter.CountRange(begin, end, block.data());
          for (size_t c = 0; c < block.size(); ++c) summed[c] += block[c];
          begin = end;
        }
        ASSERT_EQ(summed, expected)
            << "blocks, trial " << trial << " flat=" << flat
            << " gamma=" << gamma;
      }
    }
  }
  // The differential saw real matches, not only zeros.
  EXPECT_GT(positive, 1000u);
}

TEST(SupportCounterTest, ConcurrentBlocksSumToTheWholeCount) {
  // The count RPC's shape: one shared, const counter, with pool threads
  // each counting a block into a support array of its own.
  Rng rng(77);
  const size_t num_items = 30;
  const Hierarchy hierarchy = testing::RandomRankHierarchy(num_items, 0.3, &rng);
  Vocabulary vocab;
  std::vector<std::string> names;
  for (ItemId w = 1; w <= num_items; ++w) {
    names.push_back("i" + std::to_string(w));
    const ItemId parent = hierarchy.Parent(w);
    if (parent == kInvalidItem) {
      vocab.AddItem(names.back());
    } else {
      vocab.AddItemWithParent(names.back(), names[parent - 1]);
    }
  }
  const Dataset dataset = Dataset::FromMemory(
      testing::RandomDatabase(2000, 8, num_items, &rng), vocab);
  NamedPatternList candidates;
  for (int c = 0; c < 300; ++c) {
    NamedPattern candidate;
    const size_t len = 1 + rng.Uniform(3);
    for (size_t i = 0; i < len; ++i) {
      candidate.items.push_back(names[rng.Uniform(num_items)]);
    }
    candidates.push_back(std::move(candidate));
  }
  const CountQuery query{/*gamma=*/1, /*lambda=*/3, /*flat=*/false};
  const std::vector<Frequency> whole =
      CountSupports(dataset, candidates, query);

  const SupportCounter counter(dataset, candidates, query);
  const size_t blocks = 16;
  const size_t n = counter.num_transactions();
  std::vector<std::vector<Frequency>> block_supports(
      blocks, std::vector<Frequency>(candidates.size(), 0));
  ThreadPool pool(4);
  pool.ParallelFor(blocks, [&](size_t b) {
    counter.CountRange(n * b / blocks, n * (b + 1) / blocks,
                       block_supports[b].data());
  });
  std::vector<Frequency> summed(candidates.size(), 0);
  for (const std::vector<Frequency>& block : block_supports) {
    for (size_t c = 0; c < block.size(); ++c) summed[c] += block[c];
  }
  EXPECT_EQ(summed, whole);
  EXPECT_GT(std::count_if(whole.begin(), whole.end(),
                          [](Frequency f) { return f > 0; }),
            100);
}

}  // namespace
}  // namespace lash
