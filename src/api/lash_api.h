#ifndef LASH_API_LASH_API_H_
#define LASH_API_LASH_API_H_

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/algo.h"
#include "algo/gsp.h"
#include "algo/lash.h"
#include "core/database.h"
#include "core/hierarchy.h"
#include "core/params.h"
#include "core/vocabulary.h"
#include "io/mmap_file.h"
#include "io/snapshot.h"
#include "mapreduce/job.h"
#include "miner/miner.h"
#include "util/hash.h"
#include "util/types.h"

/// The one front door of the library (README "Quickstart").
///
/// The paper's pitch is a *system*: load a hierarchical sequence database
/// once, then answer many G_{σ,γ,λ} mining requests over it. This header is
/// that system's public surface:
///
///   * `Dataset`    — database + hierarchy + vocabulary, preprocessed once
///                    (generalized f-list, rank recoding) and reusable
///                    across queries with different σ/γ/λ;
///   * `MiningTask` — a validated query builder selecting the algorithm,
///                    parameters, execution knobs, redundancy filter, and
///                    top-k truncation;
///   * `PatternSink`— a streaming consumer of mined patterns; `PatternView`
///                    lazily decodes rank ids back to raw ids and names;
///   * `RunResult`  — one result shape unifying the timings and counters of
///                    all six algorithms.
///
/// The `algo/*` headers remain available as the internal/bench-baseline
/// surface; new callers should go through this facade.
namespace lash {

/// Error thrown by the facade: invalid task configuration (with every
/// problem listed in one readable message) or a failed dataset load.
class ApiError : public std::invalid_argument {
 public:
  explicit ApiError(const std::string& message)
      : std::invalid_argument(message) {}
};

/// The mining algorithms the facade can execute (Sec. 3 and Sec. 6.3).
enum class Algorithm {
  kSequential,  ///< LASH with default settings (MineSequential): only the
                ///< miner and the thread count are knobs.
  kLash,        ///< LASH: hierarchy-aware item-based partitioning (Sec. 3.4).
  kMgFsm,       ///< MG-FSM baseline: flat hierarchy + BFS miner (Sec. 6.3).
  kGsp,         ///< Extended-sequences GSP baseline of Srikant & Agrawal.
  kNaive,       ///< Naive distributed baseline (Sec. 3.2).
  kSemiNaive,   ///< Semi-naive distributed baseline (Sec. 3.3).
};

/// Parses "sequential", "lash", "mgfsm", "gsp", "naive", "seminaive"
/// (case-insensitive; also accepts "mg-fsm"/"semi-naive"). Throws ApiError
/// listing the valid names otherwise.
Algorithm ParseAlgorithm(const std::string& name);

/// Human-readable algorithm name (the ParseAlgorithm spelling).
std::string AlgorithmName(Algorithm algorithm);

/// Redundancy filter applied to the mined output (Sec. 6.7).
enum class PatternFilter {
  kNone,
  kClosed,   ///< Drop patterns with an equal-frequency supersequence.
  kMaximal,  ///< Drop patterns with any frequent supersequence.
};

/// Parses "none", "closed", "maximal" (case-insensitive); throws ApiError
/// otherwise.
PatternFilter ParsePatternFilter(const std::string& name);

class Dataset;

/// One mined pattern as handed to a PatternSink: the rank-space sequence and
/// its frequency, plus lazy decoding back to raw ids and item names (callers
/// no longer hand-roll `vocab.Name(pre.raw_of_rank[rank])`).
class PatternView {
 public:
  PatternView(const Sequence& ranks, Frequency frequency,
              const Vocabulary* vocab, const PreprocessResult* pre)
      : ranks_(&ranks), frequency_(frequency), vocab_(vocab), pre_(pre) {}

  /// The pattern in the rank-id space of the run's preprocessing.
  const Sequence& ranks() const { return *ranks_; }
  Frequency frequency() const { return frequency_; }
  size_t length() const { return ranks_->size(); }

  /// Decodes the pattern to raw (pre-preprocessing) item ids.
  Sequence raw_ids() const;
  /// Decodes the pattern to item names.
  std::vector<std::string> names() const;
  /// Space-joined item names ("a B c").
  std::string ToString() const;

 private:
  const Sequence* ranks_;
  Frequency frequency_;
  const Vocabulary* vocab_;
  const PreprocessResult* pre_;
};

/// Streaming consumer of mined patterns. `OnPattern` is called once per
/// pattern surviving the task's filter/top-k (order unspecified unless the
/// task sets top-k, which emits in descending frequency); `OnFinish` is
/// called exactly once after the last pattern. The PatternView (and the
/// Sequence it borrows) is only valid during the OnPattern call.
class PatternSink {
 public:
  virtual ~PatternSink() = default;
  virtual void OnPattern(const PatternView& pattern) = 0;
  virtual void OnFinish() {}
};

/// Materializes the stream into a PatternMap (rank space) — the bridge to
/// the pre-facade result shape and the filters/stats helpers.
class CollectSink : public PatternSink {
 public:
  void OnPattern(const PatternView& pattern) override;

  /// Splices `patterns` in wholesale (no per-sequence copies); on key
  /// collision the already-collected entry wins, like OnPattern. Run()
  /// uses this as a fast path instead of streaming pattern by pattern.
  void Merge(PatternMap&& patterns);

  const PatternMap& patterns() const { return patterns_; }
  PatternMap Take() { return std::move(patterns_); }

 private:
  PatternMap patterns_;
};

/// Keeps only the `k` most frequent patterns in a bounded heap (ties broken
/// lexicographically on the rank sequence — the exact order of TopK() in
/// stats/filters.h, so streaming and materialized top-k agree on ties).
/// `k == 0` keeps nothing (unlike MiningTask::WithTopK, where 0 disables
/// the truncation).
class TopKSink : public PatternSink {
 public:
  explicit TopKSink(size_t k) : k_(k) {}

  void OnPattern(const PatternView& pattern) override;

  /// The kept patterns in descending frequency (lexicographic tie-break),
  /// identical to `TopK(collected_map, k)`.
  std::vector<std::pair<Sequence, Frequency>> Sorted() const;

 private:
  bool Better(const std::pair<Sequence, Frequency>& a,
              const std::pair<Sequence, Frequency>& b) const;

  size_t k_;
  /// Max-heap by "worse first": heap_.front() is the worst kept pattern.
  std::vector<std::pair<Sequence, Frequency>> heap_;
};

/// Writes `frequency<TAB>name name ...` lines (the io/text_io.h pattern
/// format). In sorted mode (default) lines are buffered and written in the
/// deterministic WritePatterns order on OnFinish — byte-identical to the
/// pre-facade tools; with `sorted == false` each pattern is written as it
/// streams in, with no buffering.
class TextWriterSink : public PatternSink {
 public:
  explicit TextWriterSink(std::ostream& out, bool sorted = true)
      : out_(&out), sorted_(sorted) {}

  void OnPattern(const PatternView& pattern) override;
  void OnFinish() override;

 private:
  struct Line {
    Sequence ranks;
    Frequency frequency;
    std::string names;
  };

  void Write(const Line& line);

  std::ostream* out_;
  bool sorted_;
  std::vector<Line> lines_;
};

/// One result shape for all six algorithms: pattern accounting plus every
/// per-algorithm statistic the old entry points returned separately
/// (AlgoResult / MinerStats / GspStats / PartitionShape / JobResult).
/// Fields not produced by the selected algorithm stay zero.
struct RunResult {
  Algorithm algorithm = Algorithm::kSequential;
  bool used_flat_hierarchy = false;  ///< Mined with the hierarchy stripped.

  uint64_t patterns_mined = 0;    ///< Frequent patterns before filter/top-k.
  uint64_t patterns_emitted = 0;  ///< Patterns delivered to the sink.
  bool aborted = false;  ///< A baseline emit cap stopped the run ("DNF").

  MinerStats miner_stats;          ///< Sequential / LASH / MG-FSM.
  GspStats gsp_stats;              ///< GSP.
  PartitionShape partition_shape;  ///< Sequential / LASH / MG-FSM.
  JobResult job;                   ///< Every algorithm but GSP (map/shuffle/
                                   ///< reduce times and Hadoop counters).

  double mine_ms = 0;    ///< Mining wall-clock (all algorithms).
  double filter_ms = 0;  ///< Closed/maximal filter wall-clock.
  double total_ms = 0;   ///< Mine + filter + emit wall-clock.
};

/// A hierarchical sequence database, loaded and preprocessed **once**
/// (generalized f-list + rank recoding, Sec. 3.3/3.4) and then shared by any
/// number of MiningTasks with different parameters. Also owns the lazily
/// built flat (hierarchy-stripped) preprocessing used by MG-FSM and
/// flat-mining queries, so hierarchical and flat queries over one dataset
/// never re-read the input.
///
/// Not copyable or movable; a serving layer holds it behind a pointer.
class Dataset {
 public:
  /// Loads the text formats of io/text_io.h (hierarchy: child<TAB>parent
  /// lines; sequences: one whitespace-separated sequence per line). Throws
  /// ApiError if a file cannot be opened.
  static Dataset FromFiles(const std::string& sequences_path,
                           const std::string& hierarchy_path);

  /// Same formats from open streams (hierarchy is read first, matching
  /// FromFiles' interning order).
  static Dataset FromStreams(std::istream& sequences, std::istream& hierarchy);

  /// Adopts an in-memory database whose items were interned through `vocab`
  /// (including parent edges); the hierarchy is built from the vocabulary.
  static Dataset FromMemory(Database raw_db, Vocabulary vocab);

  /// Adopts datagen output (datagen/*.h), which carries a prebuilt raw
  /// hierarchy alongside the vocabulary.
  static Dataset FromMemory(Database raw_db, Vocabulary vocab,
                            Hierarchy raw_hierarchy);

  /// How FromSnapshot brings the file into memory.
  enum class LoadMode {
    /// Read the file once into one owned, aligned buffer and borrow from
    /// it exactly as kMmap borrows from the mapping, then verify every
    /// checksum and the full corpus structure before returning; the raw
    /// corpus is reconstructed up front. Always available.
    kCopy,
    /// mmap the file read-only and *borrow* the big arrays in place (v2
    /// containers on little-endian hosts): cold start is O(page faults) in
    /// the corpus, not O(corpus bytes). The header and every small section
    /// are checksum-verified eagerly; the two corpus sections' checksums
    /// (and their O(corpus) structural checks) are deferred — call
    /// VerifyCorpus() to run them on demand. The raw corpus is rebuilt
    /// lazily on first raw_database()/flat_preprocessed() use. The Dataset
    /// owns the mapping, so every borrowed view stays valid for its
    /// lifetime. Big-endian hosts silently degrade to a full copy with
    /// nothing deferred.
    kMmap,
  };

  /// Loads a one-file dataset snapshot previously written by Save(): the
  /// vocabulary, hierarchy, *preprocessed* flat corpus, f-list and stats
  /// are read back directly, so neither text parsing nor the preprocessing
  /// phase runs — `load_times().preprocess_ms` is 0 by construction. This
  /// is how serving shards and tools should start on large corpora.
  ///
  /// Throws ApiError if the file cannot be opened or the snapshot is
  /// semantically inconsistent; corrupt containers (bad magic, truncation,
  /// future version, checksum mismatch) surface as the typed IoError of
  /// io/io_error.h.
  static Dataset FromSnapshot(const std::string& path,
                              LoadMode mode = LoadMode::kCopy);

  /// Writes the one-file snapshot (io/snapshot.h) for FromSnapshot. The
  /// flat (hierarchy-stripped) preprocessing is not stored; it is rebuilt
  /// lazily on first use like any other Dataset.
  void Save(const std::string& path) const;

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  /// Process-unique id assigned at construction (never 0, never reused
  /// within a process). Serving-layer cache keys include it, so identical
  /// task specs over different datasets can never collide — even when one
  /// dataset is destroyed and another is loaded at the same address.
  uint64_t id() const { return id_; }

  const Vocabulary& vocabulary() const { return vocab_; }
  /// The raw (pre-recoding) corpus in flat CSR form. After a
  /// LoadMode::kMmap snapshot load it is reconstructed lazily on first use
  /// (thread-safe, like flat_preprocessed()); every other load path builds
  /// it eagerly.
  const FlatDatabase& raw_database() const;
  const Hierarchy& raw_hierarchy() const { return raw_hierarchy_; }

  /// The hierarchical preprocessing every query reuses.
  const PreprocessResult& preprocessed() const { return pre_; }

  /// The flat (hierarchy-stripped) preprocessing, built on first use and
  /// cached. Backs Algorithm::kMgFsm and MiningTask::WithFlatHierarchy.
  /// Thread-safe (std::call_once): concurrent MiningTasks — e.g. a serving
  /// layer running mixed flat/hierarchical queries against one shared
  /// Dataset — see exactly one build, and later calls are wait-free.
  const PreprocessResult& flat_preprocessed() const;

  /// Table-1 style statistics of the raw database.
  const DatasetStats& stats() const { return stats_; }
  size_t NumSequences() const { return pre_.database.size(); }
  size_t NumItems() const { return vocab_.NumItems(); }

  /// True iff this Dataset borrows a live snapshot mapping (a
  /// LoadMode::kMmap load on a little-endian host with mmap; elsewhere
  /// kMmap behaves exactly like kCopy).
  bool mmap_backed() const { return map_.mapped(); }

  /// Runs every integrity check a mapped load deferred: the corpus
  /// sections' FNV checksums, offset-table monotonicity, and item-rank
  /// ranges. O(corpus bytes); throws the same typed IoError an eager load
  /// would have. A no-op for copying loads (they verified everything up
  /// front).
  void VerifyCorpus() const;

  /// Name of a rank id of `preprocessed()` (or of `flat_preprocessed()`
  /// when `flat`). Throws ApiError on an out-of-range rank (in particular
  /// the kInvalidItem that RankOfName returns for unknown names).
  std::string NameOfRank(ItemId rank, bool flat = false) const;
  /// Rank of an item name, or kInvalidItem if the name is unknown.
  ItemId RankOfName(const std::string& name, bool flat = false) const;

  /// Translates patterns mined in the *flat* rank space into the
  /// hierarchical rank space of `preprocessed()`, so flat and hierarchical
  /// outputs can be compared (Table 3 / output statistics).
  PatternMap FlatToHierarchicalRanks(const PatternMap& flat_patterns) const;

  struct LoadTimes {
    double read_ms = 0;        ///< Parsing/adopting or snapshot decoding.
    double preprocess_ms = 0;  ///< f-list + rank recoding (0 for snapshots).
  };
  const LoadTimes& load_times() const { return load_times_; }

 private:
  struct SnapshotTag {};

  Dataset(FlatDatabase raw_db, Vocabulary vocab, Hierarchy raw_hierarchy,
          double read_ms);
  /// Snapshot-restore constructor: adopts precomputed preprocessing.
  Dataset(SnapshotTag, const std::string& path, LoadMode mode);

  /// Rebuilds the raw corpus from the ranked one (a per-item bijection).
  void BuildRawCorpus() const;

  uint64_t id_;
  /// The snapshot bytes (mapped, or the copy-load buffer). Declared first
  /// so it is destroyed *last*: vocab_ and pre_ may borrow these bytes and
  /// must die before they are released.
  MmapFile map_;
  Vocabulary vocab_;
  Hierarchy raw_hierarchy_;
  PreprocessResult pre_;
  DatasetStats stats_;
  LoadTimes load_times_;
  /// Corpus checksums a mapped load deferred (see VerifyCorpus).
  std::vector<SnapshotDeferredCheck> deferred_;

  /// Lazily reconstructed after a mapped snapshot load; eager otherwise
  /// (the constructor consumes raw_once_).
  mutable FlatDatabase raw_db_;
  mutable std::once_flag raw_once_;

  mutable std::once_flag flat_once_;
  mutable std::unique_ptr<PreprocessResult> flat_pre_;
};

/// A parameterized mining query over a Dataset: algorithm, G_{σ,γ,λ}
/// parameters, execution knobs, redundancy filter, and top-k, assembled with
/// chainable setters and validated up front (`Validate` collects *every*
/// problem into readable messages; `Run` throws one ApiError listing them).
///
/// A task borrows its Dataset (which must outlive it) and may be Run any
/// number of times; distinct tasks over one Dataset are independent.
class MiningTask {
 public:
  explicit MiningTask(const Dataset& dataset) : dataset_(&dataset) {}

  MiningTask& WithAlgorithm(Algorithm algorithm);
  /// Sets σ/γ/λ (Sec. 2) in one call...
  MiningTask& WithParams(const GsmParams& params);
  /// ...or individually.
  MiningTask& WithSigma(Frequency sigma);
  MiningTask& WithGamma(uint32_t gamma);
  MiningTask& WithLambda(uint32_t lambda);

  /// Local per-partition miner (Sequential/LASH only; Sec. 5). Setting it
  /// for an algorithm that cannot honor it (MG-FSM hard-codes BFS; GSP and
  /// the naive baselines have no local miner) is a validation error.
  MiningTask& WithMiner(MinerKind miner);
  /// Rewrite aggressiveness (LASH-only ablation knob; Sec. 4). Setting it
  /// for any other algorithm is a validation error.
  MiningTask& WithRewrite(RewriteLevel rewrite);
  /// Map-side combiner on/off (LASH only; Sec. 4.4). Setting it for any
  /// other algorithm is a validation error.
  MiningTask& WithCombiner(bool use_combiner);
  /// Worker threads (0 = hardware concurrency): the job pool of kSequential
  /// (which otherwise ignores WithJobConfig and runs the default job
  /// shape), and an override of JobConfig.num_threads for the distributed
  /// algorithms. GSP is inherently single-threaded and unaffected.
  MiningTask& WithThreads(size_t num_threads);
  /// MapReduce execution shape for the distributed algorithms.
  MiningTask& WithJobConfig(const JobConfig& config);
  /// Emit caps for the (semi-)naive baselines.
  MiningTask& WithLimits(const BaselineLimits& limits);
  /// Mine with the hierarchy stripped (flat rank space) — what a standard
  /// sequence miner would see. Implied by Algorithm::kMgFsm.
  MiningTask& WithFlatHierarchy(bool flat = true);
  /// Redundancy filter applied before emitting (Sec. 6.7).
  MiningTask& WithFilter(PatternFilter filter);
  /// Emit only the k most frequent patterns (0 = all), in descending
  /// frequency with lexicographic tie-break.
  MiningTask& WithTopK(size_t k);

  /// Every configuration problem, as human-readable messages; empty means
  /// the task is runnable.
  ///
  /// Policy: knobs that change *what is computed or measured* (miner,
  /// rewrite level, combiner) are rejected when the selected algorithm
  /// cannot honor them — silently ignoring them would misreport a
  /// benchmark. Knobs that only cap *execution resources* (threads,
  /// JobConfig, baseline limits) are honored where parallelism or a job
  /// exists and are deliberately legal no-ops elsewhere, so one task
  /// configuration can sweep across algorithms.
  std::vector<std::string> Validate() const;

  /// Mines and streams the surviving patterns into `sink` (then
  /// `sink.OnFinish()`). Throws ApiError listing all Validate() problems if
  /// the configuration is invalid.
  RunResult Run(PatternSink& sink) const;

  /// Convenience: Run into a CollectSink and return the materialized map
  /// (rank space); `result`, if non-null, receives the RunResult.
  PatternMap Mine(RunResult* result = nullptr) const;

  const Dataset& dataset() const { return *dataset_; }

 private:
  /// True iff the run mines the flat rank space (explicit or MG-FSM).
  bool UsesFlat() const;
  /// The distributed-job config with the WithThreads override applied.
  JobConfig EffectiveJobConfig() const;

  const Dataset* dataset_;
  Algorithm algorithm_ = Algorithm::kSequential;
  GsmParams params_;
  MinerKind miner_ = MinerKind::kPsmIndex;
  bool miner_set_ = false;
  RewriteLevel rewrite_ = RewriteLevel::kFull;
  bool rewrite_set_ = false;
  bool use_combiner_ = true;
  bool combiner_set_ = false;
  size_t num_threads_ = 0;
  JobConfig job_config_;
  BaselineLimits limits_;
  bool flat_ = false;
  PatternFilter filter_ = PatternFilter::kNone;
  size_t top_k_ = 0;
};

}  // namespace lash

#endif  // LASH_API_LASH_API_H_
