#include "workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "datagen/corpus_recipes.h"
#include "io/snapshot.h"
#include "loadgen.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

using lash::Algorithm;
using lash::Frequency;
using lash::serve::TaskSpec;

namespace {

// Rates are set so that the four cores run at roughly half load: queueing
// stays a visible but bounded share of latency, and no backlog grows over a
// run.
constexpr WorkloadConfig kWorkloads[] = {
    {"router-cold", Corpus::kAmzn, 4, 4.0, 34.0, 2, 2},
    {"hot-mix", Corpus::kNyt, 1, 3.0, 34.0, 2, 2},
};

/// The cold σ band of each corpus: log-uniform over it, like the paper's
/// σ sweeps, and wide enough that every run draws distinct specs.
struct SigmaBand {
  double lo, hi;
};
SigmaBand ColdBand(Corpus corpus) {
  return corpus == Corpus::kNyt ? SigmaBand{300, 3000} : SigmaBand{60, 240};
}

TaskSpec MakeSpec(Algorithm algorithm, Frequency sigma, uint32_t gamma,
                  uint32_t lambda) {
  TaskSpec spec;
  spec.algorithm = algorithm;
  spec.params = {.sigma = sigma, .gamma = gamma, .lambda = lambda};
  return spec;
}

/// The popular (repeated) specs, most popular first. On NYT (hot-mix) their
/// replies span two orders of magnitude in size, smallest the most
/// requested, so the hit path's naming/encoding/wire cost is exercised
/// across that range. On AMZN (router-cold) they are three small replies:
/// a router hit still pays the count phase, so its hits stay light.
std::vector<TaskSpec> PopularSpecs(Corpus corpus) {
  const Algorithm seq = Algorithm::kSequential, lash = Algorithm::kLash;
  if (corpus == Corpus::kNyt) {
    return {MakeSpec(seq, 3000, 1, 3),  MakeSpec(lash, 1000, 0, 4),
            MakeSpec(seq, 400, 0, 5),   MakeSpec(lash, 160, 0, 4),
            MakeSpec(seq, 80, 0, 5),    MakeSpec(lash, 40, 0, 4),
            MakeSpec(seq, 40, 1, 3),    MakeSpec(lash, 20, 0, 5)};
  }
  return {MakeSpec(seq, 300, 0, 3), MakeSpec(lash, 250, 1, 4),
          MakeSpec(seq, 200, 1, 5)};
}

/// Independent seeds for the plan's random streams (splitmix64).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string Key(const TaskSpec& spec) {
  return lash::serve::EncodeCacheKey(0, spec);
}

/// Distinct cold specs covering every (algorithm, γ, λ) cell equally. In
/// each cell the σ values are systematic samples of the log-σ band — evenly
/// spaced with a seeded offset — so every seed draws new specs but nearly
/// the same mix of cheap and expensive queries; the order is shuffled.
std::vector<TaskSpec> ColdSpecs(Corpus corpus, uint64_t seed, size_t count,
                                std::set<std::string>* used) {
  const SigmaBand band = ColdBand(corpus);
  const double log_lo = std::log(band.lo), log_hi = std::log(band.hi);
  constexpr size_t kCells = 12;
  const size_t per_cell = (count + kCells - 1) / kCells;
  lash::Rng rng(seed);
  std::vector<TaskSpec> specs;
  for (Algorithm algorithm : {Algorithm::kSequential, Algorithm::kLash}) {
    for (uint32_t gamma : {0u, 1u}) {
      for (uint32_t lambda : {3u, 4u, 5u}) {
        const double offset = rng.NextDouble();
        for (size_t j = 0; j < per_cell; ++j) {
          const double u = (static_cast<double>(j) + offset) / per_cell;
          auto sigma =
              static_cast<Frequency>(std::exp(log_lo + u * (log_hi - log_lo)));
          // Step past σ values another spec (or a popular one) already has.
          while (!used->insert(Key(MakeSpec(algorithm, sigma, gamma, lambda))).second) {
            ++sigma;
          }
          specs.push_back(MakeSpec(algorithm, sigma, gamma, lambda));
        }
      }
    }
  }
  for (size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[rng.Uniform(i)]);
  }
  specs.resize(count);
  return specs;
}

bool FileExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

CorpusFiles PrepareCorpus(Corpus corpus, size_t shards,
                          const std::string& data_dir) {
  CorpusFiles files;
  std::string tag;
  lash::AmznRecipe amzn;
  amzn.sessions = 5000;
  if (corpus == Corpus::kNyt) {
    const lash::NytRecipe recipe;
    tag = "nyt-CLP-" + std::to_string(recipe.sentences) + "s-" +
          std::to_string(recipe.lemmas) + "l-seed" + std::to_string(recipe.seed);
    files.recipe = "NytRecipe{} (" + std::to_string(recipe.sentences) +
                   " sentences, CLP hierarchy)";
  } else {
    tag = "amzn-h" + std::to_string(amzn.levels) + "-" +
          std::to_string(amzn.sessions) + "s-" +
          std::to_string(amzn.products) + "p-seed" + std::to_string(amzn.seed);
    files.recipe = "AmznRecipe{sessions=5000} (" +
                   std::to_string(amzn.levels) + "-level hierarchy)";
  }
  tag += "-v" + std::to_string(lash::kSnapshotVersion);
  files.full = data_dir + "/" + tag + ".snap";
  for (size_t s = 0; shards > 1 && s < shards; ++s) {
    files.shards.push_back(files.full + ".k" + std::to_string(shards) +
                           ".shard" + std::to_string(s));
  }
  bool complete = FileExists(files.full);
  for (const std::string& path : files.shards) complete = complete && FileExists(path);
  if (!complete) {
    // Dataset::Save renames a finished file into place, so an interrupted
    // run never leaves a truncated snapshot under the final name.
    auto save = [&](lash::Database db, lash::Vocabulary vocab,
                    lash::Hierarchy hierarchy) {
      // The same round-robin transaction split lash_gen --shards writes.
      for (size_t s = 0; s < files.shards.size(); ++s) {
        lash::Database shard_db;
        for (size_t i = s; i < db.size(); i += shards) shard_db.push_back(db[i]);
        lash::Dataset::FromMemory(std::move(shard_db), vocab).Save(files.shards[s]);
      }
      lash::Dataset::FromMemory(std::move(db), std::move(vocab), std::move(hierarchy))
          .Save(files.full);
    };
    if (corpus == Corpus::kNyt) {
      lash::GeneratedText data = lash::MakeNytCorpus({});
      save(std::move(data.database), std::move(data.vocabulary),
           std::move(data.hierarchy));
    } else {
      lash::GeneratedProducts data = lash::MakeAmznCorpus(amzn);
      save(std::move(data.database), std::move(data.vocabulary),
           std::move(data.hierarchy));
    }
  }
  if (files.shards.empty()) files.shards.push_back(files.full);
  return files;
}

Plan MakePlan(const WorkloadConfig& workload, uint64_t seed, double seconds) {
  Plan plan;
  plan.popular = PopularSpecs(workload.corpus);
  std::set<std::string> used;
  for (const TaskSpec& spec : plan.popular) used.insert(Key(spec));

  const auto cold_count =
      static_cast<size_t>(std::lround(workload.cold_rate * seconds));
  const auto hit_count =
      static_cast<size_t>(std::lround(workload.hit_rate * seconds));
  // The attribution specs are further distinct cold specs, three per
  // engine, so the LASH ones give the MapReduce breakdown.
  constexpr size_t kAttributionPerEngine = 3;
  plan.cold = ColdSpecs(workload.corpus, SubSeed(seed, 0), cold_count, &used);
  const std::vector<TaskSpec> extra =
      ColdSpecs(workload.corpus, SubSeed(seed, 4), 24, &used);
  size_t lash_specs = 0, sequential_specs = 0;
  for (const TaskSpec& spec : extra) {
    size_t& taken =
        spec.algorithm == Algorithm::kLash ? lash_specs : sequential_specs;
    if (taken == kAttributionPerEngine) continue;
    ++taken;
    plan.attribution.push_back(spec);
  }

  // Each popular spec appears its Zipf(1.5) share of the hits (largest
  // remainders round), in a seeded order: independent draws would let the
  // count of the few huge replies, which set hit_p99, swing by ±15%. With
  // an exponent of 1 the huge replies held the worker's event loop so often
  // that hit_p50 sat on the knee between delayed and undelayed small hits.
  std::vector<double> share(plan.popular.size());
  double total = 0;
  for (size_t i = 0; i < share.size(); ++i) {
    total += share[i] = std::pow(static_cast<double>(i + 1), -1.5);
  }
  std::vector<std::pair<double, size_t>> remainders;
  for (size_t i = 0; i < share.size(); ++i) {
    const double exact = share[i] / total * static_cast<double>(hit_count);
    plan.hit_spec.insert(plan.hit_spec.end(), static_cast<size_t>(exact), i);
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (size_t r = 0; plan.hit_spec.size() < hit_count; ++r) {
    plan.hit_spec.push_back(remainders[r].second);
  }
  lash::Rng hit_rng(SubSeed(seed, 1));
  for (size_t i = plan.hit_spec.size(); i > 1; --i) {
    std::swap(plan.hit_spec[i - 1], plan.hit_spec[hit_rng.Uniform(i)]);
  }

  plan.cold_due_ms = JitteredArrivals(SubSeed(seed, 2), cold_count, seconds);
  plan.hit_due_ms = JitteredArrivals(SubSeed(seed, 3), hit_count, seconds);

  lash::FnvStream digest;
  for (const TaskSpec& spec : plan.cold) {
    const std::string key = Key(spec);
    digest.Update(key.data(), key.size());
  }
  for (size_t index : plan.hit_spec) {
    const std::string key = Key(plan.popular[index]);
    digest.Update(key.data(), key.size());
  }
  plan.digest = digest.Digest();
  return plan;
}

uint64_t CanonicalHash(const lash::NamedPatternList& patterns) {
  std::string bytes;
  lash::EncodeNamedPatterns(&bytes, patterns);
  return lash::FnvHashBytes(bytes.data(), bytes.size());
}

Reference::Reference(const lash::Dataset& union_dataset,
                     const std::vector<TaskSpec>& specs) {
  std::map<std::pair<uint32_t, uint32_t>, Frequency> min_sigma;
  for (const TaskSpec& spec : specs) {
    const auto group = std::make_pair(spec.params.gamma, spec.params.lambda);
    auto it = min_sigma.find(group);
    if (it == min_sigma.end() || spec.params.sigma < it->second) {
      min_sigma[group] = spec.params.sigma;
    }
  }
  for (const auto& [group, sigma] : min_sigma) {
    const lash::PatternMap mined =
        lash::MiningTask(union_dataset)
            .WithParams({.sigma = sigma, .gamma = group.first, .lambda = group.second})
            .Mine();
    lash::NamedPatternList named =
        lash::NamePatterns(union_dataset, mined, /*flat=*/false);
    for (const TaskSpec& spec : specs) {
      if (std::make_pair(spec.params.gamma, spec.params.lambda) != group) continue;
      const auto end = std::partition_point(
          named.begin(), named.end(), [&](const lash::NamedPattern& p) {
            return p.frequency >= spec.params.sigma;
          });
      const lash::NamedPatternList answer(named.begin(), end);
      hashes_[Key(spec)] = CanonicalHash(answer);
    }
  }
}

uint64_t Reference::ExpectedHash(const TaskSpec& spec) const {
  return hashes_.at(Key(spec));
}

}  // namespace perfbench
