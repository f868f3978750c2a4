// Tests for serve/support_count.h: the worker-side exact recount behind the
// router's two-phase candidate/count protocol.
//
// The load-bearing property is the differential: for ANY (σ, γ, λ, flat)
// the support CountSupports reports for a mined pattern must equal the
// frequency mining reported — otherwise the router's phase-2 re-cut at σ
// would diverge from single-corpus mining and the exactness contract dies.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/lash_api.h"
#include "io/result_io.h"
#include "serve/mining_service.h"
#include "serve/support_count.h"
#include "serve/task_spec.h"
#include "test_util.h"

namespace lash {
namespace {

using serve::CountQuery;
using serve::CountSupports;
using serve::TaskSpec;

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

}  // namespace
}  // namespace lash
