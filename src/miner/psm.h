#ifndef LASH_MINER_PSM_H_
#define LASH_MINER_PSM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/match.h"
#include "miner/miner.h"
#include "util/varint.h"

namespace lash {

namespace psm_internal {

/// One candidate expansion occurrence: expansion item `item` supports
/// transaction `tid` with the expanded embedding `emb`. Flat buffers of
/// these replace the node-based std::map<ItemId, PsmDb> of the original
/// implementation: sorting by (item, tid, emb) groups the buffer into
/// per-item expansion databases with tid-grouped postings, and makes
/// duplicate embeddings adjacent so dedup is a single std::unique pass
/// instead of a per-insert linear scan.
struct ExpansionEvent {
  ItemId item;
  uint32_t tid;
  Embedding emb;

  friend bool operator==(const ExpansionEvent&, const ExpansionEvent&) =
      default;
  friend auto operator<=>(const ExpansionEvent&, const ExpansionEvent&) =
      default;
};

/// Sorts events[from..] by (item, tid, embedding) and removes duplicates.
/// Reference implementation of the grouping contract (used by tests to
/// check EventRegrouper); this is the dedup that replaces the former O(n²)
/// AddEmbedding std::find loop.
void SortUniqueEvents(std::vector<ExpansionEvent>* events, size_t from);

/// One expansion database produced by the regrouper: the events of one
/// candidate item as a byte range of the packed postings arena, plus its
/// weighted document frequency (accumulated during the same pass, so the
/// support test costs no extra scan).
struct EventGroup {
  ItemId item;
  size_t begin;
  size_t end;
  Frequency weight;
};

/// Varint delta codec for one group's packed postings (util/varint.h
/// primitives). Events arrive sorted by (tid, embedding); each posting is
/// three varints: (tid delta, start delta, end - start). The tid delta is
/// relative to the previous posting (0 = same transaction); start is
/// delta-coded within a transaction run (embeddings of a run are sorted
/// by (start, end), so the delta is non-negative) and resets to absolute
/// on a new transaction. Typically 3 bytes per posting instead of the 16
/// of a raw ExpansionEvent — the group's item is implicit, carried by its
/// EventGroup.
struct PostingEncoder {
  uint32_t prev_tid = 0;
  uint32_t prev_start = 0;

  void Append(std::string* out, uint32_t tid, Embedding emb) {
    const uint32_t dtid = tid - prev_tid;
    PutVarint32(out, dtid);
    if (dtid != 0) {
      prev_tid = tid;
      prev_start = 0;
    }
    PutVarint32(out, emb.start - prev_start);
    prev_start = emb.start;
    PutVarint32(out, emb.end - emb.start);
  }
};

/// Streaming decoder matching PostingEncoder: iterates the postings of
/// one group's [begin, end) byte range.
struct PostingCursor {
  size_t pos;
  uint32_t tid = 0;
  uint32_t prev_start = 0;

  explicit PostingCursor(size_t begin) : pos(begin) {}

  /// Decodes the next posting; false once `end` is reached. The varint
  /// reads cannot fail on encoder-produced bytes (the arena is written
  /// and read by the same run).
  bool Next(const std::string& packed, size_t end, uint32_t* out_tid,
            Embedding* emb) {
    if (pos >= end) return false;
    uint32_t dtid = 0;
    uint32_t dstart = 0;
    uint32_t len = 0;
    GetVarint32(packed, &pos, &dtid);
    GetVarint32(packed, &pos, &dstart);
    GetVarint32(packed, &pos, &len);
    if (dtid != 0) {
      tid += dtid;
      prev_start = 0;
    }
    prev_start += dstart;
    *out_tid = tid;
    *emb = Embedding{prev_start, prev_start + len};
    return true;
  }
};

/// Groups the tail of a shared event arena by (item, tid, embedding) with
/// duplicates removed — the same postcondition as SortUniqueEvents — in
/// O(E) plus tiny per-transaction embedding sorts, exploiting that PSM
/// generates events with nondecreasing tids: a stable counting scatter by
/// item keeps tid runs contiguous, so only embeddings within one (item,
/// tid) run need sorting. All state (per-item counters with epoch-based
/// lazy reset, the scatter scratch) is reused across calls, so a call does
/// no heap allocation once warm.
class EventRegrouper {
 public:
  /// Must be called before RegroupPacked with an exclusive upper bound on
  /// the item ids that will appear (PSM: pivot + 1).
  void Prepare(size_t num_items);

  /// Groups events[from..] and appends one EventGroup per distinct item,
  /// in ascending item order, to `groups`. The surviving events of a group
  /// are varint-delta-encoded onto the packed postings arena (`packed`, via
  /// PostingEncoder): each EventGroup's [begin, end) is a byte range of
  /// `packed`. `weights[tid]` is the aggregation weight a transaction
  /// contributes to a group's support. Requires tids nondecreasing per item
  /// in generation order. `events` is the generation buffer of one
  /// expansion step; it is only read (the caller clears it for the next
  /// step).
  void RegroupPacked(const std::vector<ExpansionEvent>& events, size_t from,
                     const std::vector<Frequency>& weights,
                     std::string* packed, std::vector<EventGroup>* groups);

 private:
  // 64-bit so the epoch cannot wrap within a run and revive stale counters.
  uint64_t epoch_ = 0;
  std::vector<uint64_t> item_epoch_;
  std::vector<uint32_t> item_count_;
  std::vector<uint32_t> item_cursor_;
  std::vector<ItemId> touched_;
  std::vector<ExpansionEvent> scratch_;
};

/// The pooled PSM+Index right index: one arena of bitset words shared by
/// every left node of a run. Row `r` holds the index of the left node at
/// left-recursion depth `r` (at most one such node is live at a time — left
/// expansion recurses depth-first), and within a row, depth `d` is the set
/// of frequent expansion items seen at right-expansion depth d of that
/// node's subtree. Acquiring a row bumps its generation counter instead of
/// zeroing its words, so re-initialization is O(depths) rather than
/// O(depths * pivot/64) — the per-LeftNode reset cost that dominated when
/// pivot ids are large. Words are epoch-tagged: a word whose tag is stale
/// reads as empty.
///
/// The pool lives in PsmMiner (not in the per-partition PsmRun), so its
/// capacity — and, through the never-reset `epoch_`, the validity of its
/// lazily-reset tags — carries across every partition a miner mines: after
/// the largest pivot has been seen, later partitions pay no λ²-sized
/// arena zeroing at all.
class RightIndexPool {
 public:
  /// Sizes the arena for `rows` x `depths` bitsets over items < num_items.
  /// Idempotent; keeps existing capacity (and its stale-but-safe tags) when
  /// large enough.
  void Prepare(size_t rows, size_t depths, size_t num_items) {
    rows_ = rows;
    depths_ = depths;
    words_per_set_ = (num_items >> 6) + 1;
    const size_t words = rows_ * depths_ * words_per_set_;
    if (bits_.size() < words) {
      bits_.assign(words, 0);
      word_epoch_.assign(words, 0);
    }
    row_epoch_.assign(rows_, 0);
    counts_.assign(rows_ * depths_, 0);
    // epoch_ is deliberately NOT reset: stale word tags from an earlier
    // Prepare (same run or an earlier partition of the same miner) stay
    // strictly below every future generation, so reused capacity can never
    // revive old bits.
  }

  /// Claims row `row` for a new left node: all of its sets become empty.
  void NewGeneration(size_t row) {
    // 64-bit epoch: cannot wrap within a miner's lifetime and revive stale
    // words.
    row_epoch_[row] = ++epoch_;
    std::fill_n(counts_.begin() + static_cast<ptrdiff_t>(row * depths_),
                depths_, 0u);
  }

  void Set(size_t row, size_t depth, ItemId w) {
    const size_t base = (row * depths_ + depth) * words_per_set_ + (w >> 6);
    const uint64_t mask = uint64_t{1} << (w & 63);
    if (word_epoch_[base] != row_epoch_[row]) {
      word_epoch_[base] = row_epoch_[row];
      bits_[base] = mask;
      ++counts_[row * depths_ + depth];
    } else {
      counts_[row * depths_ + depth] += (bits_[base] & mask) == 0;
      bits_[base] |= mask;
    }
  }

  bool Test(size_t row, size_t depth, ItemId w) const {
    const size_t base = (row * depths_ + depth) * words_per_set_ + (w >> 6);
    return word_epoch_[base] == row_epoch_[row] &&
           ((bits_[base] >> (w & 63)) & 1);
  }

  bool Empty(size_t row, size_t depth) const {
    return counts_[row * depths_ + depth] == 0;
  }

  size_t depths() const { return depths_; }

 private:
  size_t rows_ = 0;
  size_t depths_ = 0;
  size_t words_per_set_ = 0;
  uint64_t epoch_ = 0;
  std::vector<uint64_t> bits_;
  std::vector<uint64_t> word_epoch_;
  std::vector<uint64_t> row_epoch_;
  std::vector<uint32_t> counts_;
};

}  // namespace psm_internal

/// PSM — the pivot sequence miner (Sec. 5.2, Alg. 2).
///
/// PSM enumerates *only* pivot sequences: it starts from the pivot item and
/// expands right and left. Every pivot sequence S has a unique decomposition
/// S = Sl·w·Sr with w ∉ Sr; PSM generates it by left-expanding w to Sl·w and
/// then right-expanding to Sl·w·Sr. Hence:
///   * right expansions never add the pivot (Alg. 2 line 11), and
///   * a sequence produced by a right expansion is never left-expanded,
/// which guarantees each pivot sequence is enumerated exactly once.
///
/// Embeddings are tracked as (start, end) position pairs per supporting
/// transaction so that both expansion directions are cheap.
///
/// Implementation: all expansion databases live in one stack-disciplined
/// packed byte arena — a node's database is a byte range of varint-delta
/// postings (PostingEncoder/PostingCursor, ~3 bytes per posting instead
/// of a 16-byte ExpansionEvent), child databases are appended above and
/// truncated on backtrack — so a whole PsmRun performs O(1) amortized
/// heap allocations per search-tree node instead of O(postings), and the
/// working set a node's expansion scans is several times smaller than
/// with raw structs. Generation still uses fixed-size ExpansionEvents in
/// a per-step buffer that the regrouper consumes (the counting scatter
/// needs random access). Ancestor chains are scanned contiguously via
/// Hierarchy::AncestorSpan.
///
/// With `use_index = true` (PSM+Index), each left-node Sl·w memoizes, per
/// right-expansion depth d, the union R of frequent expansion items observed
/// anywhere in its right-expansion subtree at that depth (as a bitset over
/// items <= pivot, pooled for the whole run in a generation-tagged arena so
/// acquiring a node's index never re-zeroes words). A left child x·Sl·w
/// restricts its depth-d right
/// expansions to its parent's R: if Sw' is infrequent then x·S·w' is
/// infrequent (Lemma 1). Pruned items are never support-tested (and not
/// counted as candidates), and an empty R skips the scan entirely.
class PsmMiner : public LocalMiner {
 public:
  PsmMiner(const Hierarchy* hierarchy, const GsmParams& params, bool use_index);

  PatternMap Mine(const Partition& partition, ItemId pivot,
                  MinerStats* stats) override;

  std::string name() const override { return use_index_ ? "PSM+Index" : "PSM"; }

 private:
  const Hierarchy* hierarchy_;
  GsmParams params_;
  bool use_index_;
  // Owned by the miner (which is reused across partitions), not the
  // per-partition run, so capacity and epoch survive from pivot to pivot.
  psm_internal::RightIndexPool index_pool_;
};

}  // namespace lash

#endif  // LASH_MINER_PSM_H_
