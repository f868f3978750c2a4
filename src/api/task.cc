#include <algorithm>
#include <cctype>
#include <string>
#include <typeinfo>
#include <utility>

#include "algo/mgfsm.h"
#include "algo/naive_gsm.h"
#include "algo/seminaive_gsm.h"
#include "algo/sequential.h"
#include "api/lash_api.h"
#include "core/flist.h"
#include "obs/trace.h"
#include "stats/filters.h"
#include "util/timer.h"

namespace lash {

namespace {

std::string Lower(const std::string& s) {
  std::string lower = s;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower;
}

}  // namespace

Algorithm ParseAlgorithm(const std::string& name) {
  std::string n = Lower(name);
  if (n == "sequential") return Algorithm::kSequential;
  if (n == "lash") return Algorithm::kLash;
  if (n == "mgfsm" || n == "mg-fsm") return Algorithm::kMgFsm;
  if (n == "gsp") return Algorithm::kGsp;
  if (n == "naive") return Algorithm::kNaive;
  if (n == "seminaive" || n == "semi-naive") return Algorithm::kSemiNaive;
  throw ApiError("unknown algorithm '" + name +
                 "' (use sequential|lash|mgfsm|gsp|naive|seminaive)");
}

std::string AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSequential: return "sequential";
    case Algorithm::kLash: return "lash";
    case Algorithm::kMgFsm: return "mgfsm";
    case Algorithm::kGsp: return "gsp";
    case Algorithm::kNaive: return "naive";
    case Algorithm::kSemiNaive: return "seminaive";
  }
  return "unknown";
}

PatternFilter ParsePatternFilter(const std::string& name) {
  std::string n = Lower(name);
  if (n == "none") return PatternFilter::kNone;
  if (n == "closed") return PatternFilter::kClosed;
  if (n == "maximal") return PatternFilter::kMaximal;
  throw ApiError("unknown filter '" + name + "' (use none|closed|maximal)");
}

MiningTask& MiningTask::WithAlgorithm(Algorithm algorithm) {
  algorithm_ = algorithm;
  return *this;
}

MiningTask& MiningTask::WithParams(const GsmParams& params) {
  params_ = params;
  return *this;
}

MiningTask& MiningTask::WithSigma(Frequency sigma) {
  params_.sigma = sigma;
  return *this;
}

MiningTask& MiningTask::WithGamma(uint32_t gamma) {
  params_.gamma = gamma;
  return *this;
}

MiningTask& MiningTask::WithLambda(uint32_t lambda) {
  params_.lambda = lambda;
  return *this;
}

MiningTask& MiningTask::WithMiner(MinerKind miner) {
  miner_ = miner;
  miner_set_ = true;
  return *this;
}

MiningTask& MiningTask::WithRewrite(RewriteLevel rewrite) {
  rewrite_ = rewrite;
  rewrite_set_ = true;
  return *this;
}

MiningTask& MiningTask::WithCombiner(bool use_combiner) {
  use_combiner_ = use_combiner;
  combiner_set_ = true;
  return *this;
}

MiningTask& MiningTask::WithThreads(size_t num_threads) {
  num_threads_ = num_threads;
  return *this;
}

MiningTask& MiningTask::WithJobConfig(const JobConfig& config) {
  job_config_ = config;
  return *this;
}

MiningTask& MiningTask::WithLimits(const BaselineLimits& limits) {
  limits_ = limits;
  return *this;
}

MiningTask& MiningTask::WithFlatHierarchy(bool flat) {
  flat_ = flat;
  return *this;
}

MiningTask& MiningTask::WithFilter(PatternFilter filter) {
  filter_ = filter;
  return *this;
}

MiningTask& MiningTask::WithTopK(size_t k) {
  top_k_ = k;
  return *this;
}

bool MiningTask::UsesFlat() const {
  return flat_ || algorithm_ == Algorithm::kMgFsm;
}

JobConfig MiningTask::EffectiveJobConfig() const {
  JobConfig config = job_config_;
  if (num_threads_ > 0) config.num_threads = num_threads_;
  return config;
}

std::vector<std::string> MiningTask::Validate() const {
  std::vector<std::string> problems;
  if (params_.sigma == 0) {
    problems.push_back("sigma must be > 0 (the minimum support threshold)");
  }
  if (params_.lambda < 2) {
    problems.push_back("lambda must be >= 2 (got " +
                       std::to_string(params_.lambda) +
                       "); length-1 patterns are the f-list itself");
  }
  bool distributed = algorithm_ == Algorithm::kLash ||
                     algorithm_ == Algorithm::kMgFsm ||
                     algorithm_ == Algorithm::kNaive ||
                     algorithm_ == Algorithm::kSemiNaive;
  if (distributed) {
    JobConfig config = EffectiveJobConfig();
    if (config.num_map_tasks == 0) {
      problems.push_back("JobConfig.num_map_tasks must be > 0");
    }
    if (config.num_reduce_tasks == 0) {
      problems.push_back("JobConfig.num_reduce_tasks must be > 0");
    }
    if (config.num_threads == 0) {
      problems.push_back(
          "JobConfig.num_threads must be > 0 (hardware_concurrency "
          "returned 0? set it explicitly)");
    }
  }
  if (static_cast<unsigned>(miner_) >
      static_cast<unsigned>(MinerKind::kPsmIndex)) {
    problems.push_back("unknown miner kind " +
                       std::to_string(static_cast<int>(miner_)));
  }
  // An explicitly chosen knob that the algorithm cannot honor is a
  // contradiction, not a knob to silently ignore.
  if (miner_set_) {
    if (algorithm_ == Algorithm::kMgFsm) {
      problems.push_back(
          "MG-FSM always mines with the BFS local miner; drop the miner "
          "setting or use the lash algorithm");
    } else if (algorithm_ == Algorithm::kGsp ||
               algorithm_ == Algorithm::kNaive ||
               algorithm_ == Algorithm::kSemiNaive) {
      problems.push_back("the " + AlgorithmName(algorithm_) +
                         " algorithm does not use a local miner; drop the "
                         "miner setting");
    }
  }
  if (rewrite_set_ && algorithm_ != Algorithm::kLash) {
    problems.push_back("the rewrite level is a LASH-only knob; the " +
                       AlgorithmName(algorithm_) + " algorithm ignores it");
  }
  if (combiner_set_ && algorithm_ != Algorithm::kLash) {
    problems.push_back("the combiner toggle is a LASH-only knob; the " +
                       AlgorithmName(algorithm_) + " algorithm ignores it");
  }
  if ((algorithm_ == Algorithm::kNaive ||
       algorithm_ == Algorithm::kSemiNaive) &&
      limits_.max_emitted_records == 0) {
    problems.push_back(
        "BaselineLimits.max_emitted_records must be > 0 (the run would "
        "abort before emitting anything)");
  }
  return problems;
}

RunResult MiningTask::Run(PatternSink& sink) const {
  std::vector<std::string> problems = Validate();
  if (!problems.empty()) {
    std::string message = "invalid MiningTask:";
    for (const std::string& p : problems) message += "\n  - " + p;
    throw ApiError(message);
  }

  Stopwatch total;
  // The facade's slice of a request trace. MiningTask has no trace
  // parameter by design (the facade predates tracing and stays stable);
  // the serving layer installs the ambient context around task.Mine, and
  // an untraced caller gets an inactive span.
  obs::Span api_span(&obs::Tracer::Global(), obs::AmbientContext(),
                     "api.mine");
  RunResult result;
  result.algorithm = algorithm_;
  result.used_flat_hierarchy = UsesFlat();
  const PreprocessResult& pre = result.used_flat_hierarchy
                                    ? dataset_->flat_preprocessed()
                                    : dataset_->preprocessed();

  // Wall-clock anchor for the MapReduce timeline export below: JobResult
  // stores offsets from the job's start, which is (to within setup) now.
  const double mine_anchor_unix_ms = obs::Tracer::NowUnixMs();
  Stopwatch mine;
  PatternMap patterns;
  switch (algorithm_) {
    case Algorithm::kSequential:
    case Algorithm::kLash: {
      // Validate keeps the LASH-only knobs of kSequential at their defaults.
      LashOptions options;
      options.miner = miner_;
      options.rewrite = rewrite_;
      options.use_combiner = use_combiner_;
      const JobConfig config = algorithm_ == Algorithm::kSequential
                                   ? SequentialJobConfig(num_threads_)
                                   : EffectiveJobConfig();
      AlgoResult algo = RunLash(pre, params_, config, options);
      patterns = std::move(algo.patterns);
      result.job = std::move(algo.job);
      result.miner_stats = algo.miner_stats;
      result.partition_shape = algo.partition_shape;
      result.aborted = algo.aborted;
      break;
    }
    case Algorithm::kMgFsm: {
      AlgoResult algo = RunMgFsm(pre, params_, EffectiveJobConfig());
      patterns = std::move(algo.patterns);
      result.job = std::move(algo.job);
      result.miner_stats = algo.miner_stats;
      result.partition_shape = algo.partition_shape;
      result.aborted = algo.aborted;
      break;
    }
    case Algorithm::kGsp:
      patterns = RunGspExtended(pre, params_, &result.gsp_stats);
      break;
    case Algorithm::kNaive:
    case Algorithm::kSemiNaive: {
      JobConfig config = EffectiveJobConfig();
      AlgoResult algo = algorithm_ == Algorithm::kNaive
                            ? RunNaiveGsm(pre, params_, config, limits_)
                            : RunSemiNaiveGsm(pre, params_, config, limits_);
      patterns = std::move(algo.patterns);
      result.job = std::move(algo.job);
      result.aborted = algo.aborted;
      break;
    }
  }
  result.mine_ms = mine.ElapsedMs();
  result.patterns_mined = patterns.size();
  // The per-partition MapReduce timeline as spans under api.mine — this is
  // where phase_overlap_ms becomes inspectable per-request, whether the
  // caller is a CLI tool or the serving layer.
  obs::ExportJobSpans(&obs::Tracer::Global(), api_span.context(), result.job,
                      mine_anchor_unix_ms);

  Stopwatch filter;
  if (filter_ == PatternFilter::kClosed) {
    patterns = FilterClosed(patterns, pre.hierarchy);
  } else if (filter_ == PatternFilter::kMaximal) {
    patterns = FilterMaximal(patterns, pre.hierarchy);
  }
  result.filter_ms = filter.ElapsedMs();

  const Vocabulary* vocab = &dataset_->vocabulary();
  if (top_k_ > 0) {
    for (const auto& [seq, freq] : TopK(patterns, top_k_)) {
      sink.OnPattern(PatternView(seq, freq, vocab, &pre));
      ++result.patterns_emitted;
    }
  } else if (typeid(sink) == typeid(CollectSink)) {
    // Fast path for the exact materializing sink: hand over the map the run
    // already built instead of re-copying every sequence through OnPattern.
    // Exact-type check so a subclass's OnPattern override is never bypassed.
    result.patterns_emitted = patterns.size();
    static_cast<CollectSink&>(sink).Merge(std::move(patterns));
  } else {
    for (const auto& [seq, freq] : patterns) {
      sink.OnPattern(PatternView(seq, freq, vocab, &pre));
      ++result.patterns_emitted;
    }
  }
  sink.OnFinish();
  result.total_ms = total.ElapsedMs();
  api_span.Tag("patterns_emitted",
               static_cast<double>(result.patterns_emitted));
  api_span.Tag("mine_ms", result.mine_ms);
  api_span.End();
  return result;
}

PatternMap MiningTask::Mine(RunResult* result) const {
  CollectSink sink;
  RunResult run = Run(sink);
  if (result != nullptr) *result = std::move(run);
  return sink.Take();
}

}  // namespace lash
