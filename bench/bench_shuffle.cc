// bench_shuffle — the perf gate for the LASH shuffle/partitioning hot path.
//
// Times the complete LASH job (map + shuffle + reduce wall clock) with the
// byte-packed spill + sort-based grouping shuffle (ShuffleMode::kPackedSpill,
// the default) against the preserved pre-PR2 path (ShuffleMode::kLegacyHash:
// per-pair heap spill, unordered_map grouping, std::map partitions, serial
// partition mining) on the full-size NYT-like and AMZN-like generated
// corpora. Asserts:
//   * pattern parity of both paths against each other and against the
//     per-pivot reference builder (BuildPivotIndex + BuildPivotPartition)
//     mined by a LocalMiner (JSON field `sequential_match`),
//   * MAP_OUTPUT_BYTES parity: the packed path counts real encoded buffer
//     bytes; the legacy path simulates the same varint accounting — equal
//     option sets must produce identical byte counts,
// and writes the results as machine-readable JSON (BENCH_shuffle.json),
// including the pipelined shuffle's overlap breakdown: per-partition
// ready/start/grouped/reduced timestamps, the map barrier, and the
// phase_overlap_ms summary (wall time during which >= 2 phases ran
// concurrently — 0 by construction on a single-thread pool). On a host
// with >= 2 hardware threads the pipelined path must overlap its phases in
// at least one repetition (JSON field `phase_overlap_ok`).
//
// Usage: bench_shuffle [--smoke] [--reps N] [--out FILE] [--only SUBSTR]
//   --smoke  small inputs (CI parity gate); implies --reps 1.
//   --reps   repetitions per path; the fastest total is reported (default 3).
//   --out    output JSON path (default BENCH_shuffle.json).
//   --only   run only workloads whose name contains SUBSTR.
//
// Exit code is non-zero if any parity check or the overlap gate fails; the
// speedup numbers are reported, not gated, so a loaded machine cannot turn
// the bench red.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "algo/lash.h"
#include "algo/sequential.h"
#include "core/rewrite.h"
#include "datagen/corpus_recipes.h"
#include "util/timer.h"

namespace lash {
namespace {

struct PathResult {
  PhaseTimes times;
  uint64_t bytes = 0;
  uint64_t records = 0;
  uint64_t groups = 0;
  size_t patterns = 0;
  // Pipelined-shuffle overlap breakdown (packed path only; legacy keeps the
  // strict barrier and reports pipelined=false with an empty timeline).
  bool pipelined = false;
  double map_barrier_ms = 0;
  double phase_overlap_ms = 0;
  bool overlapped = false;  ///< Some repetition overlapped its phases.
  std::vector<PartitionTimeline> partition_timeline;
  PatternMap output;
};

struct WorkloadReport {
  std::string name;
  GsmParams params;
  bool combiner = true;
  size_t sequences = 0;
  PathResult legacy;
  PathResult packed;
  double speedup_total = 0;
  double speedup_map = 0;
  bool parity = true;
  bool sequential_match = true;
  bool bytes_match = true;
  bool phase_overlap_ok = true;
};

// The per-pivot reference builder mined by a PSM+Index LocalMiner. It shares
// neither the fused rewrite nor the shuffle with the packed driver.
PatternMap MinePerPivotReference(const PreprocessResult& pre,
                                 const GsmParams& params) {
  const ItemId num_frequent = static_cast<ItemId>(pre.NumFrequent(params.sigma));
  Rewriter rewriter(&pre.hierarchy, params.gamma, params.lambda);
  auto miner = MakeLocalMiner(MinerKind::kPsmIndex, &pre.hierarchy, params);
  auto tids = BuildPivotIndex(pre, num_frequent);
  PatternMap output;
  for (ItemId pivot = 1; pivot <= num_frequent; ++pivot) {
    Partition partition =
        BuildPivotPartition(pre, rewriter, pivot, tids[pivot]);
    if (partition.size() == 0) continue;
    PatternMap mined = miner->Mine(partition, pivot, /*stats=*/nullptr);
    output.merge(mined);
  }
  return output;
}

// Runs one repetition of a path and folds it into `out`: the fastest
// total is reported (damps scheduler noise), counters come from the first
// rep (identical across reps), and pattern stability is asserted.
void RunRep(PathResult* out, const PreprocessResult& pre,
            const GsmParams& params, ShuffleMode mode, bool combiner,
            int rep) {
  JobConfig config;
  config.num_map_tasks = 16;
  config.num_reduce_tasks = 16;
  config.shuffle = mode;
  LashOptions options;
  options.use_combiner = combiner;
  AlgoResult result = RunLash(pre, params, config, options);
  out->overlapped = out->overlapped || result.job.phase_overlap_ms > 0;
  if (rep > 0 &&
      SortedPatterns(result.patterns) != SortedPatterns(out->output)) {
    std::fprintf(stderr, "PARITY FAILURE: unstable output across reps\n");
    out->output.clear();  // Poison the parity checks downstream.
  }
  if (rep == 0 || result.job.times.TotalMs() < out->times.TotalMs()) {
    // The overlap breakdown travels with the rep whose times are
    // reported, so the timeline is consistent with map/shuffle/reduce.
    out->times = result.job.times;
    out->pipelined = result.job.pipelined;
    out->map_barrier_ms = result.job.map_barrier_ms;
    out->phase_overlap_ms = result.job.phase_overlap_ms;
    out->partition_timeline = std::move(result.job.partition_timeline);
  }
  if (rep == 0) {
    out->bytes = result.job.counters.map_output_bytes;
    out->records = result.job.counters.map_output_records;
    out->groups = result.job.counters.reduce_input_groups;
    out->patterns = result.patterns.size();
    out->output = std::move(result.patterns);
  }
}

WorkloadReport RunWorkload(const std::string& name,
                           const PreprocessResult& pre, const GsmParams& params,
                           bool combiner, int reps) {
  WorkloadReport report;
  report.name = name;
  report.params = params;
  report.combiner = combiner;
  report.sequences = pre.database.size();

  // Interleave legacy and packed repetitions so slow machine drift (CPU
  // frequency, page cache) biases both paths alike instead of whichever
  // path happened to run in the slow window.
  for (int rep = 0; rep < reps; ++rep) {
    RunRep(&report.legacy, pre, params, ShuffleMode::kLegacyHash, combiner,
           rep);
    RunRep(&report.packed, pre, params, ShuffleMode::kPackedSpill, combiner,
           rep);
  }

  report.speedup_total =
      report.legacy.times.TotalMs() /
      std::max(report.packed.times.TotalMs(), 1e-9);
  // Map-phase speedup in isolation: this is where the rewrite work lives,
  // so it attributes the fused-rewrite win even on workloads whose total
  // is dominated by the shared reduce-side mining.
  report.speedup_map =
      report.legacy.times.map_ms / std::max(report.packed.times.map_ms, 1e-9);

  if (SortedPatterns(report.legacy.output) !=
      SortedPatterns(report.packed.output)) {
    std::fprintf(stderr, "PARITY FAILURE: packed vs legacy on %s\n",
                 name.c_str());
    report.parity = false;
  }
  if (SortedPatterns(report.packed.output) !=
      SortedPatterns(MinePerPivotReference(pre, params))) {
    std::fprintf(stderr,
                 "PARITY FAILURE: packed vs per-pivot reference on %s\n",
                 name.c_str());
    report.sequential_match = false;
  }
  // The packed path measures its buffers; the legacy path simulates the
  // same varint format per record. Same options => identical records =>
  // identical bytes, or one of the accountings is wrong.
  if (report.legacy.bytes != report.packed.bytes) {
    std::fprintf(stderr,
                 "BYTE ACCOUNTING FAILURE on %s: legacy=%" PRIu64
                 " packed=%" PRIu64 "\n",
                 name.c_str(), report.legacy.bytes, report.packed.bytes);
    report.bytes_match = false;
  }

  auto print_path = [](const char* label, const PathResult& p) {
    std::printf(
        "  %-8s map=%8.1fms shuffle=%8.1fms reduce=%8.1fms total=%8.1fms "
        "bytes=%.2fMB records=%" PRIu64 " groups=%" PRIu64 "\n",
        label, p.times.map_ms, p.times.shuffle_ms, p.times.reduce_ms,
        p.times.TotalMs(), static_cast<double>(p.bytes) / 1e6, p.records,
        p.groups);
  };
  std::printf("%-10s %zu sequences, combiner=%s, %zu patterns\n", name.c_str(),
              report.sequences, combiner ? "on" : "off",
              report.packed.patterns);
  print_path("legacy", report.legacy);
  print_path("packed", report.packed);
  if (report.packed.pipelined) {
    std::printf("  pipelined: map_barrier=%8.1fms phase_overlap=%8.1fms\n",
                report.packed.map_barrier_ms, report.packed.phase_overlap_ms);
  }
  // The pipelined shuffle exists to overlap map, grouping and reduce; with
  // two or more hardware threads, a run that never overlapped means the
  // pipeline degenerated to the barrier.
  if (std::thread::hardware_concurrency() >= 2 && !report.packed.overlapped) {
    std::fprintf(stderr, "OVERLAP FAILURE: no phase overlap on %s\n",
                 name.c_str());
    report.phase_overlap_ok = false;
  }
  std::printf(
      "  speedup: %.2fx total, %.2fx map; parity %s, bytes %s, overlap %s\n",
      report.speedup_total, report.speedup_map,
      report.parity && report.sequential_match ? "ok" : "FAILED",
      report.bytes_match ? "ok" : "FAILED",
      report.phase_overlap_ok ? "ok" : "FAILED");
  std::fflush(stdout);
  return report;
}

void WriteJsonPath(std::FILE* f, const char* label, const PathResult& p,
                   const char* trailing) {
  std::fprintf(f,
               "      \"%s\": {\"map_ms\": %.3f, \"shuffle_ms\": %.3f, "
               "\"reduce_ms\": %.3f, \"total_ms\": %.3f, \"bytes\": %" PRIu64
               ", \"records\": %" PRIu64 ", \"groups\": %" PRIu64
               ", \"patterns\": %zu,\n"
               "        \"pipelined\": %s, \"map_barrier_ms\": %.3f, "
               "\"phase_overlap_ms\": %.3f",
               label, p.times.map_ms, p.times.shuffle_ms, p.times.reduce_ms,
               p.times.TotalMs(), p.bytes, p.records, p.groups, p.patterns,
               p.pipelined ? "true" : "false", p.map_barrier_ms,
               p.phase_overlap_ms);
  if (p.partition_timeline.empty()) {
    std::fprintf(f, "}%s\n", trailing);
    return;
  }
  // Per-partition ready -> grouping-start -> grouped -> reduced stamps (ms
  // since job start), in partition order. `ready` is when the last map task
  // sealed the partition's spill; `start` is when a worker picked it up.
  std::fprintf(f, ",\n        \"partitions\": [\n");
  for (size_t i = 0; i < p.partition_timeline.size(); ++i) {
    const PartitionTimeline& t = p.partition_timeline[i];
    std::fprintf(f,
                 "          {\"ready_ms\": %.3f, \"start_ms\": %.3f, "
                 "\"grouped_ms\": %.3f, \"reduced_ms\": %.3f}%s\n",
                 t.ready_ms, t.start_ms, t.grouped_ms, t.reduced_ms,
                 i + 1 < p.partition_timeline.size() ? "," : "");
  }
  std::fprintf(f, "        ]}%s\n", trailing);
}

bool WriteJson(const std::string& path,
               const std::vector<WorkloadReport>& workloads, bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"shuffle\",\n  \"smoke\": %s,\n"
               "  \"nproc\": %u,\n",
               smoke ? "true" : "false", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadReport& w = workloads[i];
    std::fprintf(f,
                 "    {\n      \"name\": \"%s\",\n      \"sigma\": %" PRIu64
                 ",\n      \"gamma\": %u,\n      \"lambda\": %u,\n"
                 "      \"combiner\": %s,\n      \"sequences\": %zu,\n",
                 w.name.c_str(), w.params.sigma, w.params.gamma,
                 w.params.lambda, w.combiner ? "true" : "false", w.sequences);
    WriteJsonPath(f, "legacy", w.legacy, ",");
    WriteJsonPath(f, "packed", w.packed, ",");
    std::fprintf(f,
                 "      \"speedup_total\": %.3f,\n"
                 "      \"speedup_map\": %.3f,\n"
                 "      \"parity\": %s,\n"
                 "      \"sequential_match\": %s,\n"
                 "      \"bytes_match\": %s,\n"
                 "      \"phase_overlap_ok\": %s\n    }%s\n",
                 w.speedup_total, w.speedup_map,
                 w.parity ? "true" : "false",
                 w.sequential_match ? "true" : "false",
                 w.bytes_match ? "true" : "false",
                 w.phase_overlap_ok ? "true" : "false",
                 i + 1 < workloads.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  int reps = 0;
  std::string out = "BENCH_shuffle.json";
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--reps N] [--out FILE] "
                   "[--only SUBSTR]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps <= 0) reps = smoke ? 1 : 3;

  // The full-size NYT-like corpus recipe (datagen/corpus_recipes.h) over
  // the deepest hierarchy; gamma = 0 matches the paper's NYT n-gram
  // experiments (Sec. 6.2) and every bench_fig4* NYT series.
  NytRecipe nyt_recipe;
  if (smoke) {
    nyt_recipe.sentences = 1500;
    nyt_recipe.lemmas = 800;
  }
  GeneratedText text = MakeNytCorpus(nyt_recipe);
  PreprocessResult nyt = Preprocess(text.database, text.hierarchy);

  // AMZN-like sessions with a deep category tree. Long browsing sessions
  // (~16 events instead of the recipe's 4.5) keep the job map/shuffle
  // bound — what this bench gates — rather than dominated by the
  // reduce-side PSM mining both paths share: each of a session's distinct
  // pivots makes the legacy driver rescan the whole session, so map-side
  // rewrite cost grows superlinearly with session length while the fused
  // loop stays occurrence-driven. lambda = 3 (typical session-analytics
  // maximal length) caps the shared mining floor for the same reason.
  AmznRecipe amzn_recipe;
  if (smoke) {
    amzn_recipe.sessions = 3000;
    amzn_recipe.products = 1500;
  }
  ProductGenConfig amzn_config = AmznConfig(amzn_recipe);
  amzn_config.avg_session_length = 16.0;
  GeneratedProducts products = GenerateProducts(amzn_config);
  PreprocessResult amzn = Preprocess(products.database, products.hierarchy);

  // The gamma > 0 variant mines the recipe's stock short sessions with
  // gaps. Gap mining makes the reduce-side PSM share (identical on both
  // paths) dominate the total, so the number to watch here is the map
  // speedup: the packed map phase runs the fused gamma>0 rewrite, the
  // legacy driver the per-pivot gap-window DP.
  GeneratedProducts products_g1 = MakeAmznCorpus(amzn_recipe);
  PreprocessResult amzn_g1 =
      Preprocess(products_g1.database, products_g1.hierarchy);

  GsmParams nyt_params{.sigma = smoke ? Frequency{8} : Frequency{40},
                       .gamma = 0,
                       .lambda = 5};
  GsmParams amzn_params{.sigma = smoke ? Frequency{6} : Frequency{120},
                        .gamma = 0,
                        .lambda = 3};
  GsmParams amzn_g1_params{.sigma = smoke ? Frequency{6} : Frequency{60},
                           .gamma = 1,
                           .lambda = 5};

  std::vector<WorkloadReport> workloads;
  auto wanted = [&only](const char* name) {
    return only.empty() || std::string(name).find(only) != std::string::npos;
  };
  if (wanted("nyt-clp")) {
    workloads.push_back(
        RunWorkload("nyt-clp", nyt, nyt_params, /*combiner=*/true, reps));
  }
  if (wanted("nyt-clp-nocomb")) {
    workloads.push_back(RunWorkload("nyt-clp-nocomb", nyt, nyt_params,
                                    /*combiner=*/false, reps));
  }
  if (wanted("amzn-h8")) {
    workloads.push_back(
        RunWorkload("amzn-h8", amzn, amzn_params, /*combiner=*/true, reps));
  }
  if (wanted("amzn-h8-g1")) {
    workloads.push_back(RunWorkload("amzn-h8-g1", amzn_g1, amzn_g1_params,
                                    /*combiner=*/true, reps));
  }

  bool ok = WriteJson(out, workloads, smoke);
  for (const WorkloadReport& w : workloads) {
    ok = ok && w.parity && w.sequential_match && w.bytes_match &&
         w.phase_overlap_ok;
  }
  if (!ok) {
    std::fprintf(stderr, "bench_shuffle: PARITY OR OVERLAP CHECKS FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lash

int main(int argc, char** argv) { return lash::Main(argc, argv); }
