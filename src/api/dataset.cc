#include <atomic>
#include <cstdio>
#include <fstream>
#include <istream>
#include <mutex>
#include <utility>

#include "api/lash_api.h"
#include "core/flist.h"
#include "io/io_error.h"
#include "io/snapshot.h"
#include "io/text_io.h"
#include "stats/output_stats.h"
#include "util/timer.h"

namespace lash {

namespace {

uint64_t NextDatasetId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Dataset::Dataset(FlatDatabase raw_db, Vocabulary vocab, Hierarchy raw_hierarchy,
                 double read_ms)
    : id_(NextDatasetId()),
      vocab_(std::move(vocab)),
      raw_hierarchy_(std::move(raw_hierarchy)),
      raw_db_(std::move(raw_db)) {
  load_times_.read_ms = read_ms;
  Stopwatch timer;
  pre_ = Preprocess(raw_db_, raw_hierarchy_);
  load_times_.preprocess_ms = timer.ElapsedMs();
  stats_ = ComputeStats(raw_db_);
  std::call_once(raw_once_, [] {});  // The raw corpus is already built.
}

Dataset::Dataset(SnapshotTag, const std::string& path, LoadMode mode)
    : id_(NextDatasetId()), raw_hierarchy_(Hierarchy::Flat(0)) {
  Stopwatch timer;
  // Both modes parse the same way: the file's bytes — mapped, or read once
  // into one aligned buffer — are owned by map_ and borrowed in place.
  try {
    map_ = mode == LoadMode::kMmap ? MmapFile::Open(path)
                                   : MmapFile::Read(path);
  } catch (const IoError& e) {
    // A missing/unreadable file is an ApiError; everything past open is a
    // typed IoError.
    throw ApiError("cannot open snapshot file: " + path + " (" + e.what() +
                   ")");
  }
  DatasetSnapshot snap = ReadDatasetSnapshot(map_.data(), map_.size());
  if (!snap.ranked_corpus.borrowed()) {
    // A big-endian host: the reader copied and verified everything, so
    // nothing borrows the bytes — drop them rather than keep the whole
    // file resident for no benefit.
    map_ = MmapFile();
  } else if (mmap_backed()) {
    deferred_ = std::move(snap.deferred);  // Paid in VerifyCorpus.
  } else {
    // The bytes are a private heap copy (always, for kCopy): verify
    // everything before returning, as a copying load promises.
    VerifySnapshotCorpus(snap.deferred, snap.ranked_corpus,
                         snap.vocabulary.NumItems());
  }

  // Vocabulary and raw hierarchy come back whole (the name bytes may be
  // views into map_, which this Dataset owns and outlives).
  vocab_ = std::move(snap.vocabulary);
  try {
    raw_hierarchy_ = vocab_.BuildHierarchy();
  } catch (const std::invalid_argument& e) {
    // E.g. a parent cycle: checksums pass but the structure is invalid.
    throw ApiError("snapshot hierarchy is invalid: " + std::string(e.what()));
  }

  // The preprocessing phase is *restored*, not re-run: the ranked corpus,
  // f-list and rank order come straight from the file; the inverse order
  // and the rank-space hierarchy are cheap O(n) derivations.
  const size_t n = vocab_.NumItems();
  pre_.freq = std::move(snap.freq);
  pre_.rank_of_raw = std::move(snap.rank_of_raw);
  // Const ref: rank_of_raw may borrow the mapping, and only ArrayRef's
  // const operator[] is valid on a borrowed array.
  const ArrayRef<ItemId>& rank_of_raw = pre_.rank_of_raw;
  pre_.raw_of_rank.assign(n + 1, kInvalidItem);
  for (size_t raw = 1; raw <= n; ++raw) {
    pre_.raw_of_rank[rank_of_raw[raw]] = static_cast<ItemId>(raw);
  }
  std::vector<ItemId> rank_parent(n + 1, kInvalidItem);
  for (size_t r = 1; r <= n; ++r) {
    ItemId raw_parent = raw_hierarchy_.Parent(pre_.raw_of_rank[r]);
    if (raw_parent != kInvalidItem) {
      rank_parent[r] = rank_of_raw[raw_parent];
    }
  }
  try {
    pre_.hierarchy = Hierarchy(std::move(rank_parent));
  } catch (const std::invalid_argument& e) {
    throw ApiError("snapshot rank hierarchy is invalid: " +
                   std::string(e.what()));
  }
  if (!pre_.hierarchy.IsRankMonotone()) {
    throw ApiError("snapshot rank order is not hierarchy-monotone: " + path);
  }
  pre_.database = std::move(snap.ranked_corpus);
  stats_ = snap.stats;

  if (mode == LoadMode::kCopy) {
    // Copy mode materializes everything at load. Mmap mode defers this
    // O(corpus) pass until something actually asks for the raw corpus
    // (most mining paths never do).
    BuildRawCorpus();
    std::call_once(raw_once_, [] {});
  }
  load_times_.read_ms = timer.ElapsedMs();
  load_times_.preprocess_ms = 0;
}

void Dataset::BuildRawCorpus() const {
  // Recoding is a bijection per item, so the raw corpus is one arena pass
  // over the ranked one under the same offset table — no parsing, no
  // f-list job. A mapped load has not verified its corpus yet, so every
  // rank is bound-checked; a bad one throws before raw_db_ is touched, and
  // a retry starts over.
  const FlatDatabase& ranked = pre_.database;
  std::vector<ItemId> arena(ranked.TotalItems());
  for (size_t i = 0; i < arena.size(); ++i) {
    const ItemId rank = ranked.arena()[i];
    if (rank == kInvalidItem || rank >= pre_.raw_of_rank.size()) {
      throw IoError(IoErrorKind::kMalformed, 0,
                    "snapshot corpus: item rank " + std::to_string(rank) +
                        " out of range");
    }
    arena[i] = pre_.raw_of_rank[rank];
  }
  raw_db_ = FlatDatabase::FromBuffers(
      std::move(arena),
      std::vector<uint64_t>(ranked.offset_table(),
                            ranked.offset_table() + ranked.size() + 1));
}

const FlatDatabase& Dataset::raw_database() const {
  std::call_once(raw_once_, [this] { BuildRawCorpus(); });
  return raw_db_;
}

void Dataset::VerifyCorpus() const {
  if (mmap_backed()) {
    VerifySnapshotCorpus(deferred_, pre_.database, vocab_.NumItems());
  }
}

Dataset Dataset::FromFiles(const std::string& sequences_path,
                           const std::string& hierarchy_path) {
  Stopwatch timer;
  Vocabulary vocab;
  std::ifstream hf(hierarchy_path);
  if (!hf) {
    throw ApiError("cannot open hierarchy file: " + hierarchy_path);
  }
  ReadHierarchy(hf, &vocab);
  std::ifstream dbf(sequences_path);
  if (!dbf) {
    throw ApiError("cannot open sequences file: " + sequences_path);
  }
  Database db = ReadDatabase(dbf, &vocab);
  Hierarchy hierarchy = vocab.BuildHierarchy();
  return Dataset(FlatDatabase::FromDatabase(db), std::move(vocab),
                 std::move(hierarchy), timer.ElapsedMs());
}

Dataset Dataset::FromStreams(std::istream& sequences, std::istream& hierarchy) {
  Stopwatch timer;
  Vocabulary vocab;
  ReadHierarchy(hierarchy, &vocab);
  Database db = ReadDatabase(sequences, &vocab);
  Hierarchy h = vocab.BuildHierarchy();
  return Dataset(FlatDatabase::FromDatabase(db), std::move(vocab), std::move(h),
                 timer.ElapsedMs());
}

Dataset Dataset::FromMemory(Database raw_db, Vocabulary vocab) {
  Hierarchy hierarchy = vocab.BuildHierarchy();
  return Dataset(FlatDatabase::FromDatabase(raw_db), std::move(vocab),
                 std::move(hierarchy), 0);
}

Dataset Dataset::FromMemory(Database raw_db, Vocabulary vocab,
                            Hierarchy raw_hierarchy) {
  return Dataset(FlatDatabase::FromDatabase(raw_db), std::move(vocab),
                 std::move(raw_hierarchy), 0);
}

Dataset Dataset::FromSnapshot(const std::string& path, LoadMode mode) {
  return Dataset(SnapshotTag{}, path, mode);
}

void Dataset::Save(const std::string& path) const {
  // Write to a temp file renamed into place, so a failed save never
  // truncates an existing snapshot.
  const std::string tmp_path = path + ".tmp";
  std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw ApiError("cannot open snapshot file for writing: " + tmp_path);
  }
  try {
    // The writer encodes the corpus, f-list and rank order in place from
    // these borrowed components — a save never duplicates the multi-MB
    // buffers.
    WriteDatasetSnapshotParts(file, vocab_, pre_.database, pre_.freq,
                              pre_.rank_of_raw, stats_);
  } catch (...) {
    file.close();
    std::remove(tmp_path.c_str());  // Never leave a stale half-written .tmp.
    throw;
  }
  file.close();
  if (!file || std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw ApiError("cannot write snapshot file: " + path);
  }
}

const PreprocessResult& Dataset::flat_preprocessed() const {
  // call_once (not a plain mutex) so concurrent MiningTasks are safe and
  // every call after the first is synchronization-light: the preprocessing
  // is immutable once built, so the once_flag's release/acquire pairing is
  // all the ordering readers need.
  std::call_once(flat_once_, [this] {
    flat_pre_ = std::make_unique<PreprocessResult>(
        Preprocess(raw_database(), Hierarchy::Flat(vocab_.NumItems())));
  });
  return *flat_pre_;
}

std::string Dataset::NameOfRank(ItemId rank, bool flat) const {
  const PreprocessResult& pre = flat ? flat_preprocessed() : pre_;
  if (rank == kInvalidItem || rank >= pre.raw_of_rank.size()) {
    throw ApiError("NameOfRank: " + std::to_string(rank) +
                   " is not a valid rank id (did RankOfName return "
                   "kInvalidItem for an unknown name?)");
  }
  return std::string(vocab_.Name(pre.raw_of_rank[rank]));
}

ItemId Dataset::RankOfName(const std::string& name, bool flat) const {
  ItemId raw = vocab_.Lookup(name);
  if (raw == kInvalidItem) return kInvalidItem;
  const PreprocessResult& pre = flat ? flat_preprocessed() : pre_;
  return pre.rank_of_raw[raw];
}

PatternMap Dataset::FlatToHierarchicalRanks(
    const PatternMap& flat_patterns) const {
  const PreprocessResult& flat_pre = flat_preprocessed();
  std::vector<ItemId> flat_to_gsm(flat_pre.raw_of_rank.size(), kInvalidItem);
  for (size_t r = 1; r < flat_pre.raw_of_rank.size(); ++r) {
    flat_to_gsm[r] = pre_.rank_of_raw[flat_pre.raw_of_rank[r]];
  }
  return RemapPatterns(flat_patterns, flat_to_gsm);
}

}  // namespace lash
