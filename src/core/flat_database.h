#ifndef LASH_CORE_FLAT_DATABASE_H_
#define LASH_CORE_FLAT_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "util/types.h"

namespace lash {

/// A sequence database D = {T1, ..., T|D|} (Sec. 2) in the legacy
/// vector-of-vectors form. This is the *boundary* representation — parsers
/// and generators assemble it incrementally — and the input format of the
/// preserved bench baselines; everything past preprocessing lives in the
/// CSR-backed FlatDatabase below and reads SequenceViews.
using Database = std::vector<Sequence>;

/// A non-owning view of a sequence: the unit the mining layers read.
///
/// Every read-path signature (rewrites, matching, miners, map functions)
/// takes a SequenceView, so one code path serves both storage forms: a
/// legacy `Sequence` (std::vector) converts implicitly, and a FlatDatabase
/// or CSR Partition hands out views into its arena with no per-transaction
/// allocation or pointer chase.
class SequenceView {
 public:
  using value_type = ItemId;
  using const_iterator = const ItemId*;

  constexpr SequenceView() = default;
  constexpr SequenceView(const ItemId* data, size_t size)
      : data_(data), size_(size) {}
  /// Implicit: lets every view-based signature keep accepting Sequence.
  SequenceView(const Sequence& s) : data_(s.data()), size_(s.size()) {}
  /// Implicit from a braced list, valid only for the enclosing full
  /// expression (like std::span): fine as a call argument, never store it.
  /// (That documented contract is exactly what GCC's init-list-lifetime
  /// warning flags, hence the suppression.)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
  SequenceView(std::initializer_list<ItemId> items)
      : data_(items.begin()), size_(items.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  const ItemId* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ItemId operator[](size_t i) const { return data_[i]; }
  ItemId front() const { return data_[0]; }
  ItemId back() const { return data_[size_ - 1]; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  /// Materializes an owning copy (boundary code and tests only; the hot
  /// paths never need one).
  Sequence ToSequence() const { return Sequence(begin(), end()); }

  friend bool operator==(SequenceView a, SequenceView b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }

 private:
  const ItemId* data_ = nullptr;
  size_t size_ = 0;
};

/// Prints "[w1 w2 ...]" (readable gtest failure output).
std::ostream& operator<<(std::ostream& out, SequenceView view);

/// A sequence database in CSR form: one contiguous item arena plus an
/// offset table, instead of one heap vector (allocation + pointer chase)
/// per transaction. This is the storage layer the paper's scale story
/// wants under the partitioned miners (Sec. 2/4): iteration is a linear
/// scan of one array, `operator[]` is two loads, and the whole corpus is
/// two buffers — which is also exactly what the one-file dataset snapshot
/// (io/snapshot.h) serializes, and what its v2 mmap load path borrows
/// *in place*.
///
/// Ownership: a FlatDatabase either owns its two buffers (the default —
/// `Add`/`AppendSlot` build it front to back, sequences immutable once
/// appended) or *borrows* them (`Borrowed`) from memory someone else keeps
/// alive, e.g. a snapshot mapping owned by the `Dataset`. Every read runs
/// through the same two pointers, so the mining layers cannot tell the
/// difference; mutating a borrowed database throws std::logic_error.
/// Copying always deep-copies into an owned database; borrowed moves/copies
/// share the borrow and require the backing memory to outlive them.
class FlatDatabase {
 public:
  FlatDatabase() : offsets_{0} { Sync(); }

  FlatDatabase(const FlatDatabase& other) { *this = other; }
  FlatDatabase& operator=(const FlatDatabase& other);
  FlatDatabase(FlatDatabase&& other) noexcept { *this = std::move(other); }
  FlatDatabase& operator=(FlatDatabase&& other) noexcept;

  size_t size() const { return num_sequences_; }
  bool empty() const { return num_sequences_ == 0; }
  /// Total items over all sequences (the arena length).
  size_t TotalItems() const { return total_items_; }

  SequenceView operator[](size_t i) const {
    return SequenceView(arena_ + offset_table_[i],
                        static_cast<size_t>(offset_table_[i + 1] -
                                            offset_table_[i]));
  }

  /// Appends one sequence (copies its items into the arena).
  void Add(SequenceView t) {
    RequireOwned("Add");
    items_.insert(items_.end(), t.begin(), t.end());
    offsets_.push_back(items_.size());
    Sync();
  }

  /// Starts a new sequence of `n` zero-initialized items and returns the
  /// slot for the caller to overwrite — the no-copy path for
  /// recoding/decoding loops (one vector grow, no intermediate Sequence;
  /// the zero fill from resize() is the only redundant pass).
  ItemId* AppendSlot(size_t n) {
    RequireOwned("AppendSlot");
    items_.resize(items_.size() + n);
    offsets_.push_back(items_.size());
    Sync();
    return items_.data() + (items_.size() - n);
  }

  void Reserve(size_t num_sequences, size_t num_items) {
    RequireOwned("Reserve");
    offsets_.reserve(num_sequences + 1);
    items_.reserve(num_items);
    Sync();
  }

  /// The raw CSR buffers (serialization, stats, tests). `offset_table()`
  /// has size() + 1 entries with offset_table()[0] == 0; the arena has
  /// TotalItems() entries.
  const ItemId* arena() const { return arena_; }
  const uint64_t* offset_table() const { return offset_table_; }
  bool borrowed() const { return borrowed_; }

  /// A non-owning database over CSR buffers someone else keeps alive (a
  /// snapshot's bytes): `offsets` must have `num_sequences + 1` entries.
  /// Validates only the two boundary entries (offsets[0] == 0 and
  /// offsets[num_sequences] == total_items — two page touches); interior
  /// monotonicity is the buffer owner's deferred-verification problem
  /// (VerifySnapshotCorpus). Throws std::invalid_argument on a boundary
  /// mismatch.
  static FlatDatabase Borrowed(const ItemId* arena, size_t total_items,
                               const uint64_t* offsets, size_t num_sequences);

  /// Adopts already-built CSR buffers (the copying snapshot decode fills
  /// the vectors directly — no intermediate copy). Same boundary
  /// validation as Borrowed.
  static FlatDatabase FromBuffers(std::vector<ItemId> arena,
                                  std::vector<uint64_t> offsets);

  /// Converts from / to the legacy vector-of-vectors form. Materialize is
  /// for the preserved bench baselines (LegacyPsmMiner / RunLashLegacy) and
  /// boundary code only — production paths stay on views.
  static FlatDatabase FromDatabase(const Database& db);
  Database Materialize() const;

  /// Forward iteration over SequenceViews (range-for support).
  class const_iterator {
   public:
    using value_type = SequenceView;
    using reference = SequenceView;
    using difference_type = ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator(const FlatDatabase* db, size_t i) : db_(db), i_(i) {}
    SequenceView operator*() const { return (*db_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const FlatDatabase* db_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  /// Content equality (ownership-independent): same offsets, same arena.
  friend bool operator==(const FlatDatabase& a, const FlatDatabase& b);

 private:
  /// Repoints the read pointers at the owned vectors (call after any
  /// owned-buffer mutation or move).
  void Sync() {
    arena_ = items_.data();
    offset_table_ = offsets_.data();
    num_sequences_ = offsets_.size() - 1;
    total_items_ = items_.size();
  }
  void RequireOwned(const char* op) const;

  // Owned storage (unused when borrowed_).
  std::vector<ItemId> items_;
  std::vector<uint64_t> offsets_;  // size() + 1 entries; offsets_[0] == 0.
  // The read surface: into the vectors above (owned) or into a caller's
  // buffers (borrowed).
  const ItemId* arena_ = nullptr;
  const uint64_t* offset_table_ = nullptr;
  size_t num_sequences_ = 0;
  size_t total_items_ = 0;
  bool borrowed_ = false;
};

}  // namespace lash

#endif  // LASH_CORE_FLAT_DATABASE_H_
