// Tests of the public facade (api/lash_api.h): parity of MiningTask output
// against the direct algo/* pipeline for all six algorithms, streaming-sink
// vs materialized equality, TopKSink tie-determinism, up-front validation,
// and the Dataset loading/decoding helpers.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "algo/gsp.h"
#include "algo/mgfsm.h"
#include "algo/naive_gsm.h"
#include "algo/seminaive_gsm.h"
#include "algo/sequential.h"
#include "api/lash_api.h"
#include "datagen/text_gen.h"
#include "io/text_io.h"
#include "stats/filters.h"
#include "stats/output_stats.h"
#include "test_util.h"

namespace lash {
namespace {

JobConfig TestConfig() {
  JobConfig config;
  config.num_threads = 2;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 4;
  return config;
}

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kSequential, Algorithm::kLash, Algorithm::kMgFsm,
    Algorithm::kGsp,        Algorithm::kNaive, Algorithm::kSemiNaive,
};

/// Mines `algorithm` with the pre-facade entry points, in the same rank
/// space the facade uses (hierarchical, or flat for MG-FSM).
PatternMap DirectMine(const Database& raw_db, const Hierarchy& raw_h,
                      size_t num_raw_items, const GsmParams& params,
                      Algorithm algorithm) {
  JobConfig config = TestConfig();
  if (algorithm == Algorithm::kMgFsm) {
    PreprocessResult flat_pre = PreprocessFlat(raw_db, num_raw_items, config);
    return RunMgFsm(flat_pre, params, config).patterns;
  }
  PreprocessResult pre = Preprocess(raw_db, raw_h);
  switch (algorithm) {
    case Algorithm::kSequential:
      return MineSequential(pre, params);
    case Algorithm::kLash:
      return RunLash(pre, params, config).patterns;
    case Algorithm::kGsp:
      return RunGspExtended(pre, params);
    case Algorithm::kNaive:
      return RunNaiveGsm(pre, params, config).patterns;
    case Algorithm::kSemiNaive:
      return RunSemiNaiveGsm(pre, params, config).patterns;
    case Algorithm::kMgFsm:
      break;  // Handled above.
  }
  return {};
}

class ApiPaperTest : public ::testing::Test {
 protected:
  ApiPaperTest() : dataset_(Dataset::FromMemory(ex_.raw_db, ex_.vocab)) {}

  MiningTask Task(Algorithm algorithm) {
    MiningTask task(dataset_);
    task.WithAlgorithm(algorithm).WithParams(params_).WithJobConfig(
        TestConfig());
    return task;
  }

  testing::PaperExample ex_;
  Dataset dataset_;
  GsmParams params_{.sigma = 2, .gamma = 1, .lambda = 3};
};

TEST_F(ApiPaperTest, FacadeMatchesDirectPipelineForAllSixAlgorithms) {
  for (Algorithm algorithm : kAllAlgorithms) {
    RunResult result;
    PatternMap facade = Task(algorithm).Mine(&result);
    PatternMap direct = DirectMine(ex_.raw_db, ex_.raw_hierarchy,
                                   ex_.vocab.NumItems(), params_, algorithm);
    EXPECT_EQ(testing::Sorted(facade), testing::Sorted(direct))
        << AlgorithmName(algorithm);
    EXPECT_EQ(result.algorithm, algorithm);
    EXPECT_EQ(result.patterns_mined, facade.size());
    EXPECT_EQ(result.patterns_emitted, facade.size());
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.used_flat_hierarchy, algorithm == Algorithm::kMgFsm);
  }
}

TEST_F(ApiPaperTest, HierarchicalAlgorithmsReproduceSection2) {
  for (Algorithm algorithm :
       {Algorithm::kSequential, Algorithm::kLash, Algorithm::kGsp,
        Algorithm::kNaive, Algorithm::kSemiNaive}) {
    PatternMap facade = Task(algorithm).Mine();
    EXPECT_EQ(testing::Sorted(facade), testing::Sorted(ex_.ExpectedOutput()))
        << AlgorithmName(algorithm);
  }
}

TEST_F(ApiPaperTest, RunResultCarriesPerAlgorithmStats) {
  RunResult lash;
  Task(Algorithm::kLash).Mine(&lash);
  EXPECT_GT(lash.miner_stats.candidates, 0u);
  EXPECT_GT(lash.partition_shape.partitions, 0u);
  EXPECT_GT(lash.job.counters.map_output_records, 0u);
  EXPECT_GT(lash.total_ms, 0.0);

  RunResult gsp;
  Task(Algorithm::kGsp).Mine(&gsp);
  EXPECT_GT(gsp.gsp_stats.candidates, 0u);
  EXPECT_GT(gsp.gsp_stats.database_scans, 0u);

  RunResult sequential;
  Task(Algorithm::kSequential).Mine(&sequential);
  EXPECT_GT(sequential.miner_stats.candidates, 0u);
  // Sequential runs the LASH driver, so it reports the job and the shape.
  EXPECT_GT(sequential.partition_shape.partitions, 0u);
  EXPECT_GT(sequential.job.counters.map_output_records, 0u);
}

TEST_F(ApiPaperTest, CollectSinkEqualsMaterializedMine) {
  CollectSink sink;
  MiningTask task = Task(Algorithm::kSequential);
  task.Run(sink);
  EXPECT_EQ(testing::Sorted(sink.patterns()), testing::Sorted(task.Mine()));
}

TEST_F(ApiPaperTest, TextWriterSinkMatchesWritePatterns) {
  MiningTask task = Task(Algorithm::kSequential);
  std::ostringstream streamed;
  TextWriterSink sink(streamed);
  task.Run(sink);

  PatternMap map = task.Mine();
  std::ostringstream materialized;
  WritePatterns(materialized, map,
                [&](ItemId rank) { return dataset_.NameOfRank(rank); });
  EXPECT_EQ(streamed.str(), materialized.str());
  EXPECT_FALSE(streamed.str().empty());
}

TEST_F(ApiPaperTest, UnsortedTextWriterSinkEmitsSameLineSet) {
  MiningTask task = Task(Algorithm::kSequential);
  std::ostringstream sorted_out, unsorted_out;
  TextWriterSink sorted_sink(sorted_out);
  TextWriterSink unsorted_sink(unsorted_out, /*sorted=*/false);
  task.Run(sorted_sink);
  task.Run(unsorted_sink);

  auto lines = [](const std::string& text) {
    std::multiset<std::string> set;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) set.insert(line);
    return set;
  };
  EXPECT_EQ(lines(sorted_out.str()), lines(unsorted_out.str()));
}

TEST_F(ApiPaperTest, TopKSinkMatchesTopKIncludingTies) {
  // The paper example has nine frequency-2 patterns, so every k in 1..10
  // cuts through a tie; the bounded heap must break them exactly like the
  // materialized TopK() (lexicographic on the rank sequence).
  MiningTask task = Task(Algorithm::kSequential);
  PatternMap map = task.Mine();
  for (size_t k : {size_t{1}, size_t{2}, size_t{5}, size_t{9}, size_t{10},
                   size_t{100}}) {
    TopKSink sink(k);
    task.Run(sink);
    EXPECT_EQ(sink.Sorted(), TopK(map, k)) << "k=" << k;
  }
}

TEST_F(ApiPaperTest, TaskTopKEmitsMostFrequentFirst) {
  MiningTask task = Task(Algorithm::kSequential);
  PatternMap map = task.Mine();

  class RecordingSink : public PatternSink {
   public:
    void OnPattern(const PatternView& pattern) override {
      order.emplace_back(pattern.ranks(), pattern.frequency());
    }
    std::vector<std::pair<Sequence, Frequency>> order;
  } sink;
  RunResult result = task.WithTopK(3).Run(sink);
  EXPECT_EQ(sink.order, TopK(map, 3));
  EXPECT_EQ(result.patterns_emitted, 3u);
  EXPECT_EQ(result.patterns_mined, map.size());
}

TEST_F(ApiPaperTest, FiltersMatchDirectFilterCalls) {
  MiningTask task = Task(Algorithm::kSequential);
  PatternMap unfiltered = task.Mine();

  PatternMap closed = task.WithFilter(PatternFilter::kClosed).Mine();
  EXPECT_EQ(testing::Sorted(closed),
            testing::Sorted(FilterClosed(unfiltered, ex_.pre.hierarchy)));

  PatternMap maximal = task.WithFilter(PatternFilter::kMaximal).Mine();
  EXPECT_EQ(testing::Sorted(maximal),
            testing::Sorted(FilterMaximal(unfiltered, ex_.pre.hierarchy)));
}

TEST_F(ApiPaperTest, FlatMiningMatchesManualFlatPipeline) {
  PatternMap facade_flat =
      Task(Algorithm::kSequential).WithFlatHierarchy().Mine();

  PreprocessResult flat_pre = Preprocess(
      ex_.raw_db, Hierarchy::Flat(ex_.vocab.NumItems()));
  PatternMap direct_flat = MineSequential(flat_pre, params_);
  EXPECT_EQ(testing::Sorted(facade_flat), testing::Sorted(direct_flat));

  // FlatToHierarchicalRanks reproduces the manual remap of lash_stats.
  std::vector<ItemId> flat_to_gsm(flat_pre.raw_of_rank.size(), kInvalidItem);
  for (size_t r = 1; r < flat_pre.raw_of_rank.size(); ++r) {
    flat_to_gsm[r] = ex_.pre.rank_of_raw[flat_pre.raw_of_rank[r]];
  }
  EXPECT_EQ(testing::Sorted(dataset_.FlatToHierarchicalRanks(facade_flat)),
            testing::Sorted(RemapPatterns(direct_flat, flat_to_gsm)));
}

TEST_F(ApiPaperTest, DatasetIsReusableAcrossQueries) {
  // One preprocessing, many (σ, γ, λ): raising sigma can only shrink the
  // output, and the σ=3 output is contained in the σ=2 output.
  PatternMap sigma2 = Task(Algorithm::kSequential).Mine();
  PatternMap sigma3 = Task(Algorithm::kSequential).WithSigma(3).Mine();
  EXPECT_LT(sigma3.size(), sigma2.size());
  for (const auto& [s, freq] : sigma3) {
    auto it = sigma2.find(s);
    ASSERT_NE(it, sigma2.end());
    EXPECT_EQ(it->second, freq);
  }
}

TEST_F(ApiPaperTest, ValidationCollectsEveryProblemUpFront) {
  MiningTask task(dataset_);
  task.WithSigma(0).WithLambda(1);
  std::vector<std::string> problems = task.Validate();
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_NE(problems[0].find("sigma"), std::string::npos);
  EXPECT_NE(problems[1].find("lambda"), std::string::npos);

  CollectSink sink;
  try {
    task.Run(sink);
    FAIL() << "Run must throw ApiError on invalid configuration";
  } catch (const ApiError& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("sigma"), std::string::npos);
    EXPECT_NE(message.find("lambda"), std::string::npos);
  }
  EXPECT_TRUE(sink.patterns().empty());

  // A zeroed JobConfig is caught for distributed algorithms only.
  MiningTask distributed(dataset_);
  distributed.WithParams(params_).WithJobConfig(JobConfig{.num_map_tasks = 0});
  EXPECT_TRUE(distributed.Validate().empty());
  distributed.WithAlgorithm(Algorithm::kLash);
  EXPECT_EQ(distributed.Validate().size(), 1u);
}

TEST_F(ApiPaperTest, ExplicitMinerOnMinerlessAlgorithmIsRejected) {
  // MG-FSM hard-codes BFS and GSP has no local miner: silently ignoring an
  // explicitly chosen miner would misreport what was benchmarked.
  for (Algorithm algorithm :
       {Algorithm::kMgFsm, Algorithm::kGsp, Algorithm::kNaive,
        Algorithm::kSemiNaive}) {
    MiningTask task = Task(algorithm);
    EXPECT_TRUE(task.Validate().empty()) << AlgorithmName(algorithm);
    task.WithMiner(MinerKind::kPsmIndex);
    EXPECT_EQ(task.Validate().size(), 1u) << AlgorithmName(algorithm);
  }
  EXPECT_TRUE(
      Task(Algorithm::kLash).WithMiner(MinerKind::kPsm).Validate().empty());
  // An out-of-range miner kind is named up front, not thrown mid-run.
  for (Algorithm algorithm : {Algorithm::kSequential, Algorithm::kLash}) {
    std::vector<std::string> problems =
        Task(algorithm).WithMiner(static_cast<MinerKind>(99)).Validate();
    ASSERT_EQ(problems.size(), 1u) << AlgorithmName(algorithm);
    EXPECT_NE(problems[0].find("unknown miner kind 99"), std::string::npos);
  }

  // The same contract holds for the LASH-only rewrite/combiner knobs.
  EXPECT_EQ(Task(Algorithm::kSequential)
                .WithRewrite(RewriteLevel::kNone)
                .WithCombiner(false)
                .Validate()
                .size(),
            2u);
  EXPECT_TRUE(Task(Algorithm::kLash)
                  .WithRewrite(RewriteLevel::kNone)
                  .WithCombiner(false)
                  .Validate()
                  .empty());
}

TEST_F(ApiPaperTest, CollectSinkSubclassStillSeesEveryPattern) {
  // The CollectSink fast path is exact-type only: a subclass overriding
  // OnPattern must observe the full stream.
  class CountingCollectSink : public CollectSink {
   public:
    void OnPattern(const PatternView& pattern) override {
      ++seen;
      CollectSink::OnPattern(pattern);
    }
    size_t seen = 0;
  } sink;
  MiningTask task = Task(Algorithm::kSequential);
  task.Run(sink);
  EXPECT_EQ(sink.seen, task.Mine().size());
  EXPECT_EQ(testing::Sorted(sink.patterns()), testing::Sorted(task.Mine()));
}

TEST_F(ApiPaperTest, PatternViewDecodesRanksLazily) {
  Sequence ranks = ex_.RankSeq({"b1", "D"});
  PatternView view(ranks, 2, &dataset_.vocabulary(), &dataset_.preprocessed());
  EXPECT_EQ(view.ranks(), ranks);
  EXPECT_EQ(view.frequency(), 2u);
  EXPECT_EQ(view.length(), 2u);
  EXPECT_EQ(view.names(), (std::vector<std::string>{"b1", "D"}));
  EXPECT_EQ(view.ToString(), "b1 D");
  EXPECT_EQ(view.raw_ids(),
            (Sequence{ex_.vocab.Lookup("b1"), ex_.vocab.Lookup("D")}));
}

TEST_F(ApiPaperTest, NameAndRankHelpersRoundTrip) {
  for (const char* name : {"a", "B", "b1", "c", "D"}) {
    ItemId rank = dataset_.RankOfName(name);
    EXPECT_EQ(rank, ex_.Rank(name)) << name;
    EXPECT_EQ(dataset_.NameOfRank(rank), name);
  }
  EXPECT_EQ(dataset_.RankOfName("no_such_item"), kInvalidItem);
  // Feeding that kInvalidItem back is a readable error, not an OOB read.
  EXPECT_THROW(dataset_.NameOfRank(kInvalidItem), ApiError);
  EXPECT_THROW(dataset_.NameOfRank(static_cast<ItemId>(
                   dataset_.NumItems() + 1)),
               ApiError);
}

TEST_F(ApiPaperTest, ParseHelpersAcceptAllSpellingsAndRejectTypos) {
  EXPECT_EQ(ParseAlgorithm("LASH"), Algorithm::kLash);
  EXPECT_EQ(ParseAlgorithm("mg-fsm"), Algorithm::kMgFsm);
  EXPECT_EQ(ParseAlgorithm("semi-naive"), Algorithm::kSemiNaive);
  for (Algorithm algorithm : kAllAlgorithms) {
    EXPECT_EQ(ParseAlgorithm(AlgorithmName(algorithm)), algorithm);
  }
  EXPECT_THROW(ParseAlgorithm("lsah"), ApiError);
  EXPECT_EQ(ParsePatternFilter("Closed"), PatternFilter::kClosed);
  EXPECT_THROW(ParsePatternFilter("close"), ApiError);
}

TEST(ApiDatasetTest, FromStreamsMatchesInMemoryOutputByName) {
  // Round-trip the paper example through the text formats. The interning
  // order (hierarchy file first) differs from the in-memory insertion
  // order, so rank ids may differ — the *named* output must not.
  testing::PaperExample ex;
  std::ostringstream db_text, h_text;
  WriteDatabase(db_text, ex.raw_db, ex.vocab);
  WriteHierarchy(h_text, ex.vocab);

  std::istringstream db_in(db_text.str()), h_in(h_text.str());
  Dataset dataset = Dataset::FromStreams(db_in, h_in);
  EXPECT_EQ(dataset.NumSequences(), ex.raw_db.size());
  EXPECT_EQ(dataset.NumItems(), ex.vocab.NumItems());

  MiningTask task(dataset);
  task.WithSigma(2).WithGamma(1).WithLambda(3);
  PatternMap mined = task.Mine();

  auto named = [](const Dataset& d, const PatternMap& patterns) {
    std::map<std::vector<std::string>, Frequency> out;
    for (const auto& [s, freq] : patterns) {
      std::vector<std::string> names;
      for (ItemId rank : s) names.push_back(d.NameOfRank(rank));
      out.emplace(std::move(names), freq);
    }
    return out;
  };
  Dataset in_memory = Dataset::FromMemory(ex.raw_db, ex.vocab);
  MiningTask reference(in_memory);
  reference.WithSigma(2).WithGamma(1).WithLambda(3);
  EXPECT_EQ(named(dataset, mined), named(in_memory, reference.Mine()));
}

TEST(ApiDatasetTest, FlatPreprocessingIsThreadSafeUnderConcurrentTasks) {
  // Serving-layer regression: one shared Dataset must survive a mixed
  // flat/hierarchical workload where the very first flat queries race to
  // build the lazy flat preprocessing (guarded by std::call_once).
  testing::PaperExample ex;
  Dataset reference = Dataset::FromMemory(ex.raw_db, ex.vocab);
  GsmParams params{.sigma = 2, .gamma = 1, .lambda = 3};
  PatternMap expect_hier = MiningTask(reference).WithParams(params).Mine();
  PatternMap expect_flat =
      MiningTask(reference).WithParams(params).WithFlatHierarchy().Mine();

  // A fresh dataset whose flat preprocessing has not been built yet.
  Dataset dataset = Dataset::FromMemory(ex.raw_db, ex.vocab);
  constexpr size_t kThreads = 8;
  std::vector<const PreprocessResult*> flat_ptr(kThreads, nullptr);
  std::vector<PatternMap> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MiningTask task(dataset);
      task.WithParams(params);
      if (t % 2 == 1) task.WithFlatHierarchy();
      results[t] = task.Mine();
      flat_ptr[t] = &dataset.flat_preprocessed();
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    // Exactly one flat preprocessing was built and everyone shares it.
    EXPECT_EQ(flat_ptr[t], flat_ptr[0]);
    EXPECT_EQ(testing::Sorted(results[t]),
              testing::Sorted(t % 2 == 1 ? expect_flat : expect_hier))
        << "thread " << t;
  }
}

TEST(ApiDatasetTest, DatasetIdsAreUniqueAndStable) {
  testing::PaperExample ex;
  Dataset a = Dataset::FromMemory(ex.raw_db, ex.vocab);
  Dataset b = Dataset::FromMemory(ex.raw_db, ex.vocab);
  EXPECT_NE(a.id(), 0u);  // 0 is reserved (never assigned).
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.id(), a.id());
}

TEST(ApiDatasetTest, FromFilesErrorsNameTheMissingFile) {
  try {
    Dataset::FromFiles("/nonexistent/seq.txt", "/nonexistent/hier.tsv");
    FAIL() << "FromFiles must throw on unopenable input";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/hier.tsv"),
              std::string::npos);
  }
}

// Facade parity on a generated corpus, for all six algorithms.
TEST(ApiGeneratedTest, FacadeMatchesDirectPipelineOnGeneratedCorpus) {
  TextGenConfig gen;
  gen.num_sentences = 300;
  gen.avg_sentence_length = 8.0;
  gen.num_lemmas = 120;
  gen.seed = 11;
  GeneratedText data = GenerateText(gen);
  size_t num_raw_items = data.vocabulary.NumItems();
  Dataset dataset =
      Dataset::FromMemory(data.database, std::move(data.vocabulary),
                          Hierarchy(data.hierarchy));

  // Sigma low enough that even the flat MG-FSM baseline (no hierarchy to
  // lift support) finds patterns on this small Zipf corpus.
  GsmParams params{.sigma = 3, .gamma = 0, .lambda = 3};
  for (Algorithm algorithm : kAllAlgorithms) {
    MiningTask task(dataset);
    task.WithAlgorithm(algorithm).WithParams(params).WithJobConfig(
        TestConfig());
    RunResult result;
    PatternMap facade = task.Mine(&result);
    PatternMap direct = DirectMine(data.database, data.hierarchy,
                                   num_raw_items, params, algorithm);
    EXPECT_EQ(testing::Sorted(facade), testing::Sorted(direct))
        << AlgorithmName(algorithm);
    EXPECT_GT(facade.size(), 0u) << AlgorithmName(algorithm);
    EXPECT_FALSE(result.aborted);
  }
}

}  // namespace
}  // namespace lash
