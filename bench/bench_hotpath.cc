// bench_hotpath — the perf gate for the mining hot path.
//
// Times the optimized PSM / PSM+Index miners against the preserved
// pre-optimization implementation (LegacyPsmMiner) on the NYT-like
// deep-hierarchy corpus and the AMZN-like product sessions, asserts exact
// PatternMap parity (including against the naive enumeration miner), times
// MineSequential at 1 vs. all threads, and writes the results as
// machine-readable JSON (BENCH_hotpath.json by default).
//
// Usage: bench_hotpath [--smoke] [--out FILE]
//   --smoke  small inputs (CI); naive parity covers every partition.
//   --out    output JSON path (default BENCH_hotpath.json).
//
// Exit code is non-zero if any parity check fails; the speedup numbers are
// reported, not gated, so a loaded machine cannot turn the bench red.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/sequential.h"
#include "core/rewrite.h"
#include "datagen/corpus_recipes.h"
#include "miner/miner.h"
#include "miner/psm.h"
#include "miner/psm_legacy.h"
#include "util/timer.h"

namespace lash {
namespace {

struct MinerResult {
  double ms = 0;
  size_t patterns = 0;
  PatternMap output;
};

struct WorkloadReport {
  std::string name;
  GsmParams params;
  size_t sequences = 0;
  size_t partitions = 0;
  size_t naive_checked_partitions = 0;
  bool naive_match = true;
  bool parity = true;
  std::map<std::string, MinerResult> miners;  // Keyed by miner name.
  double speedup_psm = 0;
  double speedup_psm_index = 0;
};

struct ParallelReport {
  std::string workload;
  size_t threads = 0;
  double serial_ms = 0;
  double parallel_ms = 0;
  bool match = true;
};

// The per-pivot partitions of a preprocessed database, materialized once so
// every miner times the same mining work (partitioning excluded). The new
// miners read the CSR-backed production Partition; the preserved legacy
// miners read the seed's owning vector-of-vectors form, materialized here
// outside any timed region, so each implementation is measured on exactly
// the storage layout it shipped with.
struct Partitions {
  std::vector<ItemId> pivots;
  std::vector<Partition> partitions;
  std::vector<LegacyPartition> legacy;
  size_t total_sequences = 0;
};

Partitions BuildPartitions(const PreprocessResult& pre,
                           const GsmParams& params) {
  // Uses the per-pivot reference builder; its partitions equal the ones the
  // fused production path aggregates (hotpath_test checks their shape).
  Partitions out;
  const ItemId num_frequent = static_cast<ItemId>(pre.NumFrequent(params.sigma));
  Rewriter rewriter(&pre.hierarchy, params.gamma, params.lambda);
  std::vector<std::vector<uint32_t>> tids_of_pivot =
      BuildPivotIndex(pre, num_frequent);
  for (ItemId pivot = 1; pivot <= num_frequent; ++pivot) {
    Partition partition =
        BuildPivotPartition(pre, rewriter, pivot, tids_of_pivot[pivot]);
    if (partition.size() == 0) continue;
    out.total_sequences += partition.size();
    out.pivots.push_back(pivot);
    out.legacy.push_back(MaterializeLegacyPartition(partition));
    out.partitions.push_back(std::move(partition));
  }
  return out;
}

MinerResult TimeMiner(LocalMiner& miner, const Partitions& parts) {
  MinerResult result;
  Stopwatch clock;
  for (size_t i = 0; i < parts.partitions.size(); ++i) {
    PatternMap mined =
        miner.Mine(parts.partitions[i], parts.pivots[i], /*stats=*/nullptr);
    result.output.merge(mined);
  }
  result.ms = clock.ElapsedMs();
  result.patterns = result.output.size();
  return result;
}

MinerResult TimeLegacyMiner(LegacyPsmMiner& miner, const Partitions& parts) {
  MinerResult result;
  Stopwatch clock;
  for (size_t i = 0; i < parts.legacy.size(); ++i) {
    PatternMap mined =
        miner.Mine(parts.legacy[i], parts.pivots[i], /*stats=*/nullptr);
    result.output.merge(mined);
  }
  result.ms = clock.ElapsedMs();
  result.patterns = result.output.size();
  return result;
}

bool SameOutput(const PatternMap& a, const PatternMap& b) {
  return SortedPatterns(a) == SortedPatterns(b);
}

WorkloadReport RunWorkload(const std::string& name,
                           const PreprocessResult& pre, const GsmParams& params,
                           size_t naive_partition_cap) {
  WorkloadReport report;
  report.name = name;
  report.params = params;
  report.sequences = pre.database.size();

  Partitions parts = BuildPartitions(pre, params);
  report.partitions = parts.partitions.size();

  LegacyPsmMiner legacy_psm(&pre.hierarchy, params, /*use_index=*/false);
  LegacyPsmMiner legacy_idx(&pre.hierarchy, params, /*use_index=*/true);
  PsmMiner psm(&pre.hierarchy, params, /*use_index=*/false);
  PsmMiner psm_idx(&pre.hierarchy, params, /*use_index=*/true);

  report.miners[legacy_psm.name()] = TimeLegacyMiner(legacy_psm, parts);
  report.miners[legacy_idx.name()] = TimeLegacyMiner(legacy_idx, parts);
  report.miners[psm.name()] = TimeMiner(psm, parts);
  report.miners[psm_idx.name()] = TimeMiner(psm_idx, parts);

  const PatternMap& reference = report.miners["PSM"].output;
  for (const auto& [mname, mresult] : report.miners) {
    if (!SameOutput(mresult.output, reference)) {
      std::fprintf(stderr, "PARITY FAILURE: %s disagrees with PSM on %s\n",
                   mname.c_str(), name.c_str());
      report.parity = false;
    }
  }

  // Naive-miner parity, partition by partition, on every partition up to
  // the cap (the naive miner is exponential; the cap keeps the check
  // tractable on the full-size corpus — coverage is reported, not hidden).
  auto naive = MakeLocalMiner(MinerKind::kNaive, &pre.hierarchy, params);
  PsmMiner checker(&pre.hierarchy, params, /*use_index=*/true);
  for (size_t i = 0; i < parts.partitions.size(); ++i) {
    if (parts.partitions[i].size() > naive_partition_cap) continue;
    ++report.naive_checked_partitions;
    PatternMap expected =
        naive->Mine(parts.partitions[i], parts.pivots[i], nullptr);
    PatternMap got = checker.Mine(parts.partitions[i], parts.pivots[i], nullptr);
    if (!SameOutput(expected, got)) {
      std::fprintf(stderr,
                   "PARITY FAILURE: PSM+Index disagrees with Naive on %s "
                   "pivot %u\n",
                   name.c_str(), parts.pivots[i]);
      report.naive_match = false;
    }
  }

  report.speedup_psm =
      report.miners["PSM-legacy"].ms / std::max(report.miners["PSM"].ms, 1e-9);
  report.speedup_psm_index = report.miners["PSM+Index-legacy"].ms /
                             std::max(report.miners["PSM+Index"].ms, 1e-9);

  std::printf("%-10s %6zu partitions  %8zu patterns\n", name.c_str(),
              report.partitions, report.miners["PSM"].patterns);
  for (const auto& [mname, mresult] : report.miners) {
    std::printf("  %-18s %10.1f ms\n", mname.c_str(), mresult.ms);
  }
  std::printf("  speedup: PSM %.2fx, PSM+Index %.2fx; naive parity on %zu "
              "partitions: %s\n",
              report.speedup_psm, report.speedup_psm_index,
              report.naive_checked_partitions,
              report.naive_match ? "ok" : "FAILED");
  std::fflush(stdout);
  return report;
}

ParallelReport RunParallel(const std::string& workload,
                           const PreprocessResult& pre,
                           const GsmParams& params) {
  ParallelReport report;
  report.workload = workload;
  report.threads = std::max<size_t>(1, std::thread::hardware_concurrency());

  Stopwatch clock;
  PatternMap serial = MineSequential(pre, params, MinerKind::kPsmIndex,
                                     /*stats=*/nullptr, /*num_threads=*/1);
  report.serial_ms = clock.ElapsedMs();

  clock.Restart();
  PatternMap parallel = MineSequential(pre, params, MinerKind::kPsmIndex,
                                       /*stats=*/nullptr, /*num_threads=*/0);
  report.parallel_ms = clock.ElapsedMs();

  report.match = SameOutput(serial, parallel);
  std::printf("parallel   %zu threads: serial %.1f ms, parallel %.1f ms "
              "(%.2fx), outputs %s\n",
              report.threads, report.serial_ms, report.parallel_ms,
              report.serial_ms / std::max(report.parallel_ms, 1e-9),
              report.match ? "identical" : "DIFFER");
  std::fflush(stdout);
  return report;
}

bool WriteJson(const std::string& path,
               const std::vector<WorkloadReport>& workloads,
               const ParallelReport& parallel, bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"hotpath\",\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadReport& w = workloads[i];
    std::fprintf(f,
                 "    {\n      \"name\": \"%s\",\n      \"sigma\": %" PRIu64
                 ",\n      \"gamma\": %u,\n      \"lambda\": %u,\n"
                 "      \"sequences\": %zu,\n      \"partitions\": %zu,\n",
                 w.name.c_str(), w.params.sigma, w.params.gamma,
                 w.params.lambda, w.sequences, w.partitions);
    std::fprintf(f, "      \"miners\": {\n");
    size_t k = 0;
    for (const auto& [mname, mresult] : w.miners) {
      std::fprintf(f, "        \"%s\": {\"ms\": %.3f, \"patterns\": %zu}%s\n",
                   mname.c_str(), mresult.ms, mresult.patterns,
                   ++k < w.miners.size() ? "," : "");
    }
    std::fprintf(f, "      },\n");
    std::fprintf(f,
                 "      \"speedup_psm\": %.3f,\n"
                 "      \"speedup_psm_index\": %.3f,\n"
                 "      \"naive_checked_partitions\": %zu,\n"
                 "      \"naive_match\": %s,\n      \"parity\": %s\n    }%s\n",
                 w.speedup_psm, w.speedup_psm_index,
                 w.naive_checked_partitions, w.naive_match ? "true" : "false",
                 w.parity ? "true" : "false",
                 i + 1 < workloads.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"parallel\": {\"workload\": \"%s\", \"threads\": %zu, "
               "\"serial_ms\": %.3f, \"parallel_ms\": %.3f, \"match\": %s}\n",
               parallel.workload.c_str(), parallel.threads, parallel.serial_ms,
               parallel.parallel_ms, parallel.match ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  // NYT-like corpus recipe (datagen/corpus_recipes.h) over the deepest
  // hierarchy (word→case→lemma→POS): every token carries a 4-item ancestor
  // chain, the worst case for the pointer-walking baseline. This gate
  // downsizes the full recipe to 8k sentences (the legacy miners are slow).
  NytRecipe nyt_recipe;
  nyt_recipe.sentences = smoke ? 1500 : 8000;
  if (smoke) nyt_recipe.lemmas = 800;
  GeneratedText text = MakeNytCorpus(nyt_recipe);
  PreprocessResult nyt = Preprocess(text.database, text.hierarchy);

  // AMZN-like sessions with a deep category tree.
  AmznRecipe amzn_recipe;
  if (smoke) {
    amzn_recipe.sessions = 3000;
    amzn_recipe.products = 1500;
  }
  GeneratedProducts products = MakeAmznCorpus(amzn_recipe);
  PreprocessResult amzn = Preprocess(products.database, products.hierarchy);

  GsmParams nyt_params{.sigma = smoke ? Frequency{8} : Frequency{40},
                       .gamma = 1,
                       .lambda = 5};
  GsmParams amzn_params{.sigma = smoke ? Frequency{6} : Frequency{20},
                        .gamma = 0,
                        .lambda = 5};
  const size_t naive_cap = smoke ? SIZE_MAX : 150;

  std::vector<WorkloadReport> workloads;
  workloads.push_back(RunWorkload("nyt-clp", nyt, nyt_params, naive_cap));
  workloads.push_back(RunWorkload("amzn-h8", amzn, amzn_params, naive_cap));
  ParallelReport parallel = RunParallel("nyt-clp", nyt, nyt_params);

  bool ok = WriteJson(out, workloads, parallel, smoke);
  ok = ok && parallel.match;
  for (const WorkloadReport& w : workloads) ok = ok && w.parity && w.naive_match;
  if (!ok) {
    std::fprintf(stderr, "bench_hotpath: PARITY CHECKS FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lash

int main(int argc, char** argv) { return lash::Main(argc, argv); }
