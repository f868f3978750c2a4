// Tests for the one-file dataset snapshot (io/snapshot.h + Dataset::Save /
// Dataset::FromSnapshot): round-trip equality of every restored component in
// both load modes (copy and mmap), the corruption matrix (truncation,
// flipped magic, old and future versions, misaligned section, eager vs
// deferred checksums), an exhaustive byte-flip/truncation mutation sweep,
// and facade parity — FromSnapshot(Save(d)) must answer every algorithm
// exactly like the text-loaded dataset, in either load mode.

#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/lash_api.h"
#include "io/io_error.h"
#include "io/text_io.h"
#include "test_util.h"

namespace lash {
namespace {

/// Writes the paper-example corpus to text streams and loads it through the
/// facade, exercising the exact FromFiles interning order.
Dataset PaperDataset() {
  testing::PaperExample ex;
  std::stringstream seq, hier;
  WriteDatabase(seq, ex.raw_db, ex.vocab);
  WriteHierarchy(hier, ex.vocab);
  return Dataset::FromStreams(seq, hier);
}

std::string SnapshotBytes(const Dataset& dataset) {
  const std::string path = ::testing::TempDir() + "snapshot_test.lash";
  dataset.Save(path);
  std::ifstream file(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(file)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

Dataset FromBytes(const std::string& bytes,
                  Dataset::LoadMode mode = Dataset::LoadMode::kCopy) {
  const std::string path = ::testing::TempDir() + "snapshot_test_load.lash";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.close();
  struct Cleanup {
    std::string path;
    // Unlinking a file a Dataset has mapped is fine: the mapping keeps the
    // inode alive until the Dataset dies.
    ~Cleanup() { std::remove(path.c_str()); }
  } cleanup{path};
  return Dataset::FromSnapshot(path, mode);
}

constexpr Dataset::LoadMode kBothModes[] = {Dataset::LoadMode::kCopy,
                                            Dataset::LoadMode::kMmap};

// ---- v2 container surgery helpers (see the layout in io/snapshot.h) ------

uint32_t LeU32At(const std::string& bytes, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + i]))
         << (8 * i);
  }
  return v;
}

uint64_t LeU64At(const std::string& bytes, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[pos + i]))
         << (8 * i);
  }
  return v;
}

void StoreLeU64At(std::string* bytes, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

struct SectionInfo {
  uint32_t id = 0;
  uint32_t flags = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  size_t table_pos = 0;  ///< File offset of this section's table entry.
};

SectionInfo FindSection(const std::string& bytes, uint32_t id) {
  const uint32_t count = LeU32At(bytes, 9);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t p = 13 + 32 * i;
    if (LeU32At(bytes, p) == id) {
      return {id, LeU32At(bytes, p + 4), LeU64At(bytes, p + 8),
              LeU64At(bytes, p + 16), p};
    }
  }
  ADD_FAILURE() << "section " << id << " not found in v2 table";
  return {};
}

constexpr uint32_t kVocabularySectionId = 1;
constexpr uint32_t kCorpusArenaSectionId = 7;

// ---- Round trips ---------------------------------------------------------

void ExpectRestoredEqualsOriginal(const Dataset& restored,
                                  const Dataset& original) {
  // Vocabulary: same ids, names, and parent edges.
  ASSERT_EQ(restored.NumItems(), original.NumItems());
  for (ItemId id = 1; id <= original.NumItems(); ++id) {
    EXPECT_EQ(restored.vocabulary().Name(id), original.vocabulary().Name(id));
    EXPECT_EQ(restored.vocabulary().Parent(id),
              original.vocabulary().Parent(id));
    EXPECT_EQ(restored.raw_hierarchy().Parent(id),
              original.raw_hierarchy().Parent(id));
  }

  // Preprocessing: corpus, f-list, order, and rank hierarchy are restored
  // exactly — no preprocessing ran (preprocess_ms is 0 by construction).
  EXPECT_EQ(restored.preprocessed().database, original.preprocessed().database);
  EXPECT_EQ(restored.preprocessed().freq, original.preprocessed().freq);
  EXPECT_EQ(restored.preprocessed().rank_of_raw,
            original.preprocessed().rank_of_raw);
  EXPECT_EQ(restored.preprocessed().raw_of_rank,
            original.preprocessed().raw_of_rank);
  for (ItemId r = 1; r <= original.NumItems(); ++r) {
    EXPECT_EQ(restored.preprocessed().hierarchy.Parent(r),
              original.preprocessed().hierarchy.Parent(r));
  }
  EXPECT_EQ(restored.load_times().preprocess_ms, 0.0);

  // The raw corpus is reconstructed through the rank bijection (lazily for
  // a mapped load — this call is what triggers it).
  EXPECT_EQ(restored.raw_database(), original.raw_database());
  EXPECT_EQ(restored.stats(), original.stats());
}

TEST(SnapshotTest, RoundTripRestoresEveryComponent) {
  Dataset original = PaperDataset();
  Dataset restored = FromBytes(SnapshotBytes(original));
  EXPECT_FALSE(restored.mmap_backed());
  ExpectRestoredEqualsOriginal(restored, original);
  // A copying load verified everything eagerly; VerifyCorpus is a no-op.
  EXPECT_NO_THROW(restored.VerifyCorpus());

  // Snapshots of one dataset are deterministic.
  EXPECT_EQ(SnapshotBytes(original), SnapshotBytes(restored));
}

TEST(SnapshotTest, MmapRoundTripRestoresEveryComponent) {
  Dataset original = PaperDataset();
  Dataset restored =
      FromBytes(SnapshotBytes(original), Dataset::LoadMode::kMmap);
  ExpectRestoredEqualsOriginal(restored, original);
  // The deferred corpus checksums + structural checks must pass on demand.
  EXPECT_NO_THROW(restored.VerifyCorpus());
  // Re-saving the mapped dataset writes identical bytes: the writer reads
  // the same (borrowed) arrays the copy loader materialized.
  EXPECT_EQ(SnapshotBytes(original), SnapshotBytes(restored));
}

TEST(SnapshotTest, SectionPayloadsAre64ByteAligned) {
  const std::string bytes = SnapshotBytes(PaperDataset());
  ASSERT_GE(bytes.size(), size_t{13});
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), kSnapshotVersion);
  const uint32_t count = LeU32At(bytes, 9);
  ASSERT_EQ(count, 7u);  // The seven v2 sections.
  for (uint32_t i = 0; i < count; ++i) {
    const size_t p = 13 + 32 * i;
    EXPECT_EQ(LeU64At(bytes, p + 8) % 64, 0u)
        << "section " << LeU32At(bytes, p) << " payload is misaligned";
  }
  // The writer marks exactly the two corpus sections lazily verifiable.
  EXPECT_EQ(FindSection(bytes, kCorpusArenaSectionId).flags &
                kSectionFlagLazyVerify,
            kSectionFlagLazyVerify);
  EXPECT_EQ(FindSection(bytes, kVocabularySectionId).flags, 0u);
}

TEST(SnapshotTest, SaveLoadMineSmoke) {
  // The CI smoke in one gtest: save -> load -> mine must reproduce the
  // paper's Fig. 2 output from the restored dataset. Compared in name
  // space: the text round-trip re-interns raw ids, so rank ids can differ
  // from the in-memory PaperExample even though the patterns are the same.
  for (Dataset::LoadMode mode : kBothModes) {
    Dataset restored = FromBytes(SnapshotBytes(PaperDataset()), mode);
    PatternMap mined = MiningTask(restored)
                           .WithSigma(2)
                           .WithGamma(1)
                           .WithLambda(3)
                           .Mine();
    std::map<std::string, Frequency> named;
    for (const auto& [seq, freq] : mined) {
      std::string names;
      for (ItemId rank : seq) {
        if (!names.empty()) names += ' ';
        names += restored.NameOfRank(rank);
      }
      named[names] = freq;
    }
    const std::map<std::string, Frequency> expected = {
        {"a a", 2}, {"a b1", 2}, {"b1 a", 2},  {"a B", 3}, {"B a", 2},
        {"a B c", 2}, {"B c", 2}, {"a c", 2}, {"b1 D", 2}, {"B D", 2}};
    EXPECT_EQ(named, expected);
  }
}

TEST(SnapshotTest, FacadeParityAcrossAllSixAlgorithms) {
  Dataset text_loaded = PaperDataset();
  const std::string bytes = SnapshotBytes(text_loaded);
  Dataset restored = FromBytes(bytes);
  Dataset mapped = FromBytes(bytes, Dataset::LoadMode::kMmap);
  GsmParams params{.sigma = 2, .gamma = 1, .lambda = 3};
  JobConfig config;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 3;
  config.num_threads = 2;
  for (Algorithm algorithm :
       {Algorithm::kSequential, Algorithm::kLash, Algorithm::kMgFsm,
        Algorithm::kGsp, Algorithm::kNaive, Algorithm::kSemiNaive}) {
    auto mine = [&](const Dataset& dataset) {
      return MiningTask(dataset)
          .WithAlgorithm(algorithm)
          .WithParams(params)
          .WithJobConfig(config)
          .Mine();
    };
    EXPECT_EQ(testing::Sorted(mine(restored)), testing::Sorted(mine(text_loaded)))
        << AlgorithmName(algorithm);
    EXPECT_EQ(testing::Sorted(mine(mapped)), testing::Sorted(mine(text_loaded)))
        << AlgorithmName(algorithm) << " (mmap)";
  }
}

// ---- Corruption matrix ---------------------------------------------------

TEST(SnapshotTest, RejectsTruncation) {
  const std::string bytes = SnapshotBytes(PaperDataset());
  for (Dataset::LoadMode mode : kBothModes) {
    // Cuts inside the header/table and inside the payloads.
    for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{12}}) {
      try {
        FromBytes(bytes.substr(0, cut), mode);
        FAIL() << "expected IoError, cut at " << cut;
      } catch (const IoError& e) {
        EXPECT_TRUE(e.kind() == IoErrorKind::kTruncated ||
                    e.kind() == IoErrorKind::kMalformed ||
                    e.kind() == IoErrorKind::kChecksumMismatch)
            << "cut at " << cut << ": " << e.what();
      }
    }
    // Cutting inside the magic itself cannot be identified as a snapshot.
    try {
      FromBytes(bytes.substr(0, 4), mode);
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kBadMagic);
    }
  }
}

TEST(SnapshotTest, RejectsFlippedMagic) {
  std::string bytes = SnapshotBytes(PaperDataset());
  bytes[0] ^= 0x01;
  for (Dataset::LoadMode mode : kBothModes) {
    try {
      FromBytes(bytes, mode);
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kBadMagic);
      EXPECT_EQ(e.byte_offset(), 0u);
    }
  }
}

TEST(SnapshotTest, RejectsOtherVersions) {
  const std::string pristine = SnapshotBytes(PaperDataset());
  // The version byte follows the 8-byte magic.
  ASSERT_EQ(static_cast<unsigned char>(pristine[8]), kSnapshotVersion);
  // Version 1 (the retired varint container) and 127 (far future).
  for (char version : {'\x01', '\x7f'}) {
    std::string bytes = pristine;
    bytes[8] = version;
    for (Dataset::LoadMode mode : kBothModes) {
      try {
        FromBytes(bytes, mode);
        FAIL() << "expected IoError for version " << int{version};
      } catch (const IoError& e) {
        EXPECT_EQ(e.kind(), IoErrorKind::kBadVersion);
        EXPECT_EQ(e.byte_offset(), 8u);
      }
    }
  }
}

TEST(SnapshotTest, RejectsMisalignedSectionStart) {
  // Nudging a table entry's payload offset off the 64-byte grid must be
  // caught *before* any payload is read, in both modes.
  std::string bytes = SnapshotBytes(PaperDataset());
  const SectionInfo vocab = FindSection(bytes, kVocabularySectionId);
  StoreLeU64At(&bytes, vocab.table_pos + 8, vocab.offset + 4);
  for (Dataset::LoadMode mode : kBothModes) {
    try {
      FromBytes(bytes, mode);
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kMalformed) << e.what();
    }
  }
}

TEST(SnapshotTest, RejectsCorruptPayloadByChecksum) {
  const std::string pristine = SnapshotBytes(PaperDataset());
  // Flip one byte in the last quarter of the file (payload area; the
  // section table with its checksums sits at the front). The copying load
  // verifies every section eagerly, a mapped one by VerifyCorpus at the
  // latest.
  for (Dataset::LoadMode mode : kBothModes) {
    for (size_t offset : {pristine.size() - 3, pristine.size() * 3 / 4}) {
      std::string bytes = pristine;
      bytes[offset] ^= 0x40;
      try {
        FromBytes(bytes, mode).VerifyCorpus();
        FAIL() << "expected IoError, flip at " << offset;
      } catch (const IoError& e) {
        EXPECT_EQ(e.kind(), IoErrorKind::kChecksumMismatch)
            << "flip at " << offset << ": " << e.what();
      }
    }
  }
}

TEST(SnapshotTest, SmallSectionChecksumIsAlwaysEager) {
  // A flipped byte inside the vocabulary payload fails *both* load modes
  // at load time: only the corpus sections are lazily verifiable.
  std::string bytes = SnapshotBytes(PaperDataset());
  const SectionInfo vocab = FindSection(bytes, kVocabularySectionId);
  ASSERT_GT(vocab.length, 8u);
  bytes[vocab.offset + vocab.length - 1] ^= 0x40;
  for (Dataset::LoadMode mode : kBothModes) {
    try {
      FromBytes(bytes, mode);
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kChecksumMismatch) << e.what();
    }
  }
}

TEST(SnapshotTest, CorpusChecksumIsDeferredUnderMmap) {
  // A flipped byte inside the corpus arena: the copying load rejects it at
  // load; the mapped load succeeds (that laziness is the point) and
  // VerifyCorpus catches it on demand.
  std::string bytes = SnapshotBytes(PaperDataset());
  const SectionInfo arena = FindSection(bytes, kCorpusArenaSectionId);
  ASSERT_GT(arena.length, 12u);
  bytes[arena.offset + arena.length - 1] ^= 0x40;

  try {
    FromBytes(bytes);
    FAIL() << "expected IoError from the copying load";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kChecksumMismatch) << e.what();
  }

  Dataset mapped = FromBytes(bytes, Dataset::LoadMode::kMmap);
  if (mapped.mmap_backed()) {
    try {
      mapped.VerifyCorpus();
      FAIL() << "expected IoError from VerifyCorpus";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kChecksumMismatch) << e.what();
    }
  }
}

TEST(SnapshotTest, MappedRawCorpusRejectsOutOfRangeRank) {
  // An out-of-range rank under a re-sealed arena checksum: a mapped load
  // defers the corpus checks, so the lazy raw-corpus rebuild is the first
  // code to read the rank. It must raise a typed error — every time it is
  // asked, since a failed build leaves nothing behind — not index past the
  // rank table.
  std::string bytes = SnapshotBytes(PaperDataset());
  const SectionInfo arena = FindSection(bytes, kCorpusArenaSectionId);
  const uint32_t rank = 1u << 30;
  for (int i = 0; i < 4; ++i) {
    bytes[arena.offset + 8 + i] = static_cast<char>((rank >> (8 * i)) & 0xff);
  }
  StoreLeU64At(&bytes, arena.table_pos + 24,
               FnvHashBytes(bytes.data() + arena.offset, arena.length));

  Dataset mapped = FromBytes(bytes, Dataset::LoadMode::kMmap);
  ASSERT_TRUE(mapped.mmap_backed());
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      mapped.raw_database();
      FAIL() << "out-of-range rank accepted, attempt " << attempt;
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kMalformed) << e.what();
    }
  }
  EXPECT_THROW(mapped.VerifyCorpus(), IoError);
}

TEST(SnapshotTest, RejectsMissingFile) {
  EXPECT_THROW(Dataset::FromSnapshot("/nonexistent/path/snapshot.lash"),
               ApiError);
  EXPECT_THROW(Dataset::FromSnapshot("/nonexistent/path/snapshot.lash",
                                     Dataset::LoadMode::kMmap),
               ApiError);
}

// ---- io-level round trips ------------------------------------------------

void ExpectSnapshotsEqual(const DatasetSnapshot& decoded,
                          const DatasetSnapshot& snap) {
  const size_t n = snap.vocabulary.NumItems();
  ASSERT_EQ(decoded.vocabulary.NumItems(), n);
  for (ItemId id = 1; id <= n; ++id) {
    EXPECT_EQ(decoded.vocabulary.Name(id), snap.vocabulary.Name(id));
    EXPECT_EQ(decoded.vocabulary.Parent(id), snap.vocabulary.Parent(id));
  }
  EXPECT_EQ(decoded.ranked_corpus, snap.ranked_corpus);
  EXPECT_EQ(decoded.freq, snap.freq);
  EXPECT_EQ(decoded.rank_of_raw, snap.rank_of_raw);
  EXPECT_EQ(decoded.stats, snap.stats);
}

DatasetSnapshot PaperSnapshot(const testing::PaperExample& ex) {
  DatasetSnapshot snap;
  snap.vocabulary = ex.vocab;
  snap.ranked_corpus = ex.pre.database;
  snap.freq = ex.pre.freq;
  snap.rank_of_raw = ex.pre.rank_of_raw;
  snap.stats = ComputeStats(ex.pre.database);
  return snap;
}

TEST(SnapshotTest, LowLevelRoundTrip) {
  // io-level round trip without the facade: DatasetSnapshot in, equal
  // DatasetSnapshot out.
  testing::PaperExample ex;
  DatasetSnapshot snap = PaperSnapshot(ex);

  std::stringstream buffer;
  WriteDatasetSnapshot(buffer, snap);
  const std::string bytes = buffer.str();
  // Keep the copy 8-byte aligned, so the read borrows from it.
  std::vector<uint64_t> aligned((bytes.size() + 7) / 8);
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  const char* data = reinterpret_cast<const char*>(aligned.data());
  DatasetSnapshot decoded = ReadDatasetSnapshot(data, bytes.size());
  ExpectSnapshotsEqual(decoded, snap);
  EXPECT_TRUE(decoded.ranked_corpus.borrowed());
  // The deferred corpus checks pass against the intact bytes.
  EXPECT_EQ(decoded.deferred.size(), 2u);
  EXPECT_NO_THROW(VerifySnapshotCorpus(decoded.deferred, decoded.ranked_corpus,
                                       decoded.vocabulary.NumItems()));
}

TEST(SnapshotTest, UnalignedBufferDecodesByCopying) {
  // The reader borrows only from a naturally aligned buffer; any other
  // buffer takes the copying decode (the big-endian path), which verifies
  // everything itself and defers nothing.
  testing::PaperExample ex;
  DatasetSnapshot snap = PaperSnapshot(ex);
  std::stringstream buffer;
  WriteDatasetSnapshot(buffer, snap);
  const std::string bytes = buffer.str();
  std::vector<uint64_t> storage(bytes.size() / 8 + 2);
  char* shifted = reinterpret_cast<char*>(storage.data()) + 1;
  std::memcpy(shifted, bytes.data(), bytes.size());

  DatasetSnapshot decoded = ReadDatasetSnapshot(shifted, bytes.size());
  ExpectSnapshotsEqual(decoded, snap);
  EXPECT_FALSE(decoded.ranked_corpus.borrowed());
  EXPECT_TRUE(decoded.deferred.empty());

  // The copying decode runs the corpus structure checks itself: an
  // out-of-range rank under a re-sealed checksum is rejected at read time.
  const SectionInfo arena = FindSection(bytes, kCorpusArenaSectionId);
  std::string corrupt = bytes;
  StoreLeU64At(&corrupt, arena.offset + 8, 0xffffffffffffffffull);
  StoreLeU64At(&corrupt, arena.table_pos + 24,
               FnvHashBytes(corrupt.data() + arena.offset, arena.length));
  std::memcpy(shifted, corrupt.data(), corrupt.size());
  try {
    ReadDatasetSnapshot(shifted, corrupt.size());
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kMalformed) << e.what();
  }
}

// ---- Mutation sweep ------------------------------------------------------

/// Loads `bytes` in `mode` and pays every deferred check. Returns the
/// re-saved bytes, or "" if the load raised a typed error.
std::string LoadVerifyResave(const std::string& bytes, Dataset::LoadMode mode) {
  try {
    Dataset ds = FromBytes(bytes, mode);
    ds.VerifyCorpus();
    return SnapshotBytes(ds);
  } catch (const IoError&) {
  } catch (const ApiError&) {
  }
  return "";
}

TEST(SnapshotTest, EveryByteFlipAndCutIsRejectedOrHarmless) {
  // Every single-byte mutation of the paper-example snapshot must either
  // raise a typed IoError/ApiError, or load, pass VerifyCorpus, and re-save
  // to exactly the pristine bytes (a flipped padding byte is not
  // checksummed, and the writer normalizes it). Any crash fails the test
  // binary outright.
  const std::string pristine = SnapshotBytes(PaperDataset());
  for (Dataset::LoadMode mode : kBothModes) {
    const char* mode_name = mode == Dataset::LoadMode::kCopy ? "copy" : "mmap";
    size_t harmless = 0;
    for (size_t pos = 0; pos < pristine.size(); ++pos) {
      for (unsigned char mask : {0x01, 0x80}) {
        std::string bytes = pristine;
        bytes[pos] = static_cast<char>(bytes[pos] ^ mask);
        const std::string resaved = LoadVerifyResave(bytes, mode);
        if (resaved.empty()) continue;
        ++harmless;
        EXPECT_EQ(resaved, pristine)
            << mode_name << ": flip " << int{mask} << " at byte " << pos;
      }
    }
    // Padding between sections exists, so some flips must be harmless.
    EXPECT_GT(harmless, 0u) << mode_name;
    for (size_t cut = 0; cut < pristine.size(); ++cut) {
      EXPECT_EQ(LoadVerifyResave(pristine.substr(0, cut), mode), "")
          << mode_name << ": cut at " << cut;
    }
  }
}

}  // namespace
}  // namespace lash
