#ifndef LASH_IO_SNAPSHOT_H_
#define LASH_IO_SNAPSHOT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/flat_database.h"
#include "core/vocabulary.h"
#include "util/array_ref.h"
#include "util/types.h"

namespace lash {

/// One-file dataset snapshot: everything a `lash::Dataset` computes at load
/// time — vocabulary, raw hierarchy, the *rank-recoded flat corpus*, the
/// generalized f-list, the rank order, and the Table-1 stats — serialized
/// so that serving shards and tools can skip text parsing *and* the whole
/// preprocessing phase (Sec. 3.3/3.4) on startup. The raw corpus is not
/// stored: recoding is a per-item bijection, so the loader reconstructs it
/// from the ranked corpus in one arena pass.
///
/// ## Container layout, version 2 (fixed-width little-endian throughout)
///
///   offset 0   8 raw bytes   magic "LASHSNAP"
///   offset 8   1 byte        format version (kSnapshotVersion)
///   offset 9   u32           section count
///   offset 13  32 bytes/sec  section table: u32 id, u32 flags, u64 payload
///                            offset (file-absolute), u64 payload length,
///                            u64 FNV-1a64 checksum of the payload bytes
///   ...        zero padding
///   payloads   every payload starts at a 64-byte-aligned file offset
///              (zero padding between), so a page-aligned mmap of the file
///              gives naturally aligned u32/u64 arrays that are usable
///              *in place*. Both load modes of Dataset::FromSnapshot rely
///              on it: kMmap borrows from the mapping, kCopy from one
///              aligned heap buffer holding the file.
///
/// Section payloads (ids fixed; `n` = number of vocabulary items):
///
///   1 kVocabulary     u32 n; u32 ends[n] (cumulative name-end offsets);
///                     name bytes back to back
///   2 kHierarchy      u32 n; u32 parent[n] for ids 1..n (0 = root)
///   3 kCorpusOffsets  u64 num_sequences; u64 offsets[num_sequences + 1]
///   4 kFlist          u32 n; u32 zero pad; u64 freq[n + 1] (slot 0 == 0)
///   5 kStats          u64 num_sequences, total_items, max_length,
///                     unique_items
///   6 kRankOrder      u32 n; u32 rank_of_raw[n + 1] (slot 0 == 0)
///   7 kCorpusArena    u64 total_items; u32 items[total_items]
///
/// Section flag bit 0 (kSectionFlagLazyVerify) marks a section whose
/// checksum a borrowing read may defer (set by the writer on the two corpus
/// sections — the O(corpus bytes) ones). ReadDatasetSnapshot verifies the
/// header and every small section eagerly and returns the deferred checks
/// in DatasetSnapshot::deferred; VerifySnapshotCorpus runs them together
/// with the corpus structure checks. A copying load (Dataset::LoadMode::
/// kCopy) runs them before it returns; a mapped one on demand
/// (Dataset::VerifyCorpus).
///
/// The reader rejects unknown magic (IoErrorKind::kBadMagic), any version
/// other than kSnapshotVersion (kBadVersion — every snapshot is written by
/// this tree, so an old file is re-saved rather than decoded), out-of-bounds
/// or misaligned section tables (kTruncated/kMalformed), and payloads whose
/// checksum does not match (kChecksumMismatch). Unknown section ids are
/// ignored, so a future version can *add* sections without a version bump;
/// any change to an existing section's encoding must bump kSnapshotVersion
/// (see ROADMAP "Storage layer").
struct SnapshotDeferredCheck {
  const char* what;    ///< Section name for error messages.
  const char* data;    ///< Payload bytes inside the caller's buffer.
  uint64_t length;     ///< Payload length in bytes.
  uint64_t checksum;   ///< Expected FNV-1a64 of the payload.
  uint64_t file_offset;  ///< Payload position (error reporting).
};

struct DatasetSnapshot {
  /// Item names (ids 1..n in raw interning order) and parent edges. After
  /// a borrowing read the name bytes are views into the buffer.
  Vocabulary vocabulary;
  /// The rank-recoded corpus in CSR form (PreprocessResult::database);
  /// borrowed from the buffer after a borrowing read.
  FlatDatabase ranked_corpus;
  /// Generalized document frequency per rank; index 0 unused (== 0).
  ArrayRef<Frequency> freq;
  /// Raw id -> rank (index 0 unused). The inverse is derived on load.
  ArrayRef<ItemId> rank_of_raw;
  /// Table-1 statistics of the raw database.
  DatasetStats stats;
  /// Checksums a borrowing read deferred (corpus sections only; empty when
  /// the read copied). The buffer owner verifies them on demand.
  std::vector<SnapshotDeferredCheck> deferred;
};

inline constexpr uint32_t kSnapshotVersion = 2;

/// Section-table flag bit 0: the checksum may be verified lazily by a
/// borrowing read (set on the corpus sections).
inline constexpr uint32_t kSectionFlagLazyVerify = 1;

/// Serializes `snapshot` in the v2 format. Throws IoError(kWriteFailed) if
/// the stream rejects a write.
void WriteDatasetSnapshot(std::ostream& out, const DatasetSnapshot& snapshot);

/// Zero-copy writer over borrowed components (what Dataset::Save uses, so
/// a save never duplicates the multi-MB corpus/f-list buffers into a
/// DatasetSnapshot first). Semantics identical to WriteDatasetSnapshot.
void WriteDatasetSnapshotParts(std::ostream& out, const Vocabulary& vocab,
                               const FlatDatabase& ranked_corpus,
                               const ArrayRef<Frequency>& freq,
                               const ArrayRef<ItemId>& rank_of_raw,
                               const DatasetStats& stats);

/// Parses and validates a snapshot over `[data, data + size)`: magic,
/// version, section table bounds and alignment, checksums, and the
/// cross-section size and permutation checks. On a little-endian host with
/// an 8-byte-aligned buffer the read is *zero-copy*: names, corpus, f-list
/// and rank order borrow the buffer, which must then outlive the returned
/// snapshot and everything moved out of it (the Dataset owns the buffer for
/// exactly this reason). A borrowing read leaves the O(corpus bytes) checks
/// to its caller — the corpus checksums in `deferred` and the corpus
/// structure — to run with VerifySnapshotCorpus. Otherwise (big-endian
/// host, unaligned buffer) it copies and verifies everything, with nothing
/// deferred and `ranked_corpus.borrowed()` false. Throws IoError.
DatasetSnapshot ReadDatasetSnapshot(const char* data, size_t size);

/// The corpus checks a borrowing read defers: the `deferred` checksums,
/// then the corpus structure (offset table monotone, every item a rank in
/// 1..num_items). O(corpus bytes); throws the typed IoError an eager check
/// would.
void VerifySnapshotCorpus(const std::vector<SnapshotDeferredCheck>& deferred,
                          const FlatDatabase& ranked_corpus, size_t num_items);

}  // namespace lash

#endif  // LASH_IO_SNAPSHOT_H_
