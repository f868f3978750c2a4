#include "miner/psm.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace lash {

namespace psm_internal {

void SortUniqueEvents(std::vector<ExpansionEvent>* events, size_t from) {
  auto first = events->begin() + static_cast<ptrdiff_t>(from);
  std::sort(first, events->end());
  events->erase(std::unique(first, events->end()), events->end());
}

void EventRegrouper::Prepare(size_t num_items) {
  if (item_epoch_.size() < num_items) {
    item_epoch_.assign(num_items, 0);
    item_count_.resize(num_items);
    item_cursor_.resize(num_items);
    epoch_ = 0;
  }
}

void EventRegrouper::RegroupPacked(const std::vector<ExpansionEvent>& events,
                                   size_t from,
                                   const std::vector<Frequency>& weights,
                                   std::string* packed,
                                   std::vector<EventGroup>* groups) {
  const size_t end = events.size();
  if (from == end) return;
  const ExpansionEvent* ev = events.data();

  // Count events per item; `touched_` records the distinct items so the
  // counter arrays never need a full clear (epoch-based lazy reset).
  ++epoch_;
  touched_.clear();
  for (size_t i = from; i < end; ++i) {
    ItemId a = ev[i].item;
    if (item_epoch_[a] != epoch_) {
      item_epoch_[a] = epoch_;
      item_count_[a] = 0;
      touched_.push_back(a);
    }
    ++item_count_[a];
  }

  // Bucket offsets in ascending item order, then a stable scatter: within a
  // bucket the generation order survives, so tids stay nondecreasing and
  // each (item, tid) posting is a contiguous run.
  std::sort(touched_.begin(), touched_.end());
  uint32_t offset = 0;
  for (ItemId a : touched_) {
    item_cursor_[a] = offset;
    offset += item_count_[a];
  }
  if (scratch_.size() < end - from) scratch_.resize(end - from);
  for (size_t i = from; i < end; ++i) {
    scratch_[item_cursor_[ev[i].item]++] = ev[i];
  }

  // Encode bucket by bucket, sorting and deduplicating the embeddings of
  // each (item, tid) run — runs are per-transaction and tiny, so this is
  // the only comparison sorting left in the pipeline. The same pass
  // accumulates each group's weighted document frequency (one weight per
  // tid run), so the caller's support test needs no further scan.
  size_t pos = 0;
  for (ItemId a : touched_) {
    const size_t bucket_end = pos + item_count_[a];
    EventGroup group{a, packed->size(), packed->size(), 0};
    PostingEncoder enc;
    while (pos < bucket_end) {
      size_t run_end = pos + 1;
      const uint32_t tid = scratch_[pos].tid;
      while (run_end < bucket_end && scratch_[run_end].tid == tid) ++run_end;
      group.weight += weights[tid];
      if (run_end - pos == 1) {
        enc.Append(packed, tid, scratch_[pos].emb);
      } else {
        if (run_end - pos > 2) {
          std::sort(scratch_.begin() + static_cast<ptrdiff_t>(pos),
                    scratch_.begin() + static_cast<ptrdiff_t>(run_end),
                    [](const ExpansionEvent& x, const ExpansionEvent& y) {
                      return x.emb < y.emb;
                    });
        } else if (scratch_[pos + 1].emb < scratch_[pos].emb) {
          std::swap(scratch_[pos], scratch_[pos + 1]);
        }
        for (size_t k = pos; k < run_end; ++k) {
          if (k == pos || scratch_[k].emb != scratch_[k - 1].emb) {
            enc.Append(packed, tid, scratch_[k].emb);
          }
        }
      }
      pos = run_end;
    }
    group.end = packed->size();
    groups->push_back(group);
  }
}

}  // namespace psm_internal

namespace {

using psm_internal::EventGroup;
using psm_internal::EventRegrouper;
using psm_internal::ExpansionEvent;
using psm_internal::PostingCursor;
using psm_internal::PostingEncoder;
using psm_internal::RightIndexPool;

// An expansion database: a byte range of the shared packed postings
// arena. Postings in the range share one item and are sorted by (tid,
// embedding), i.e. the databases' postings are the maximal tid-runs of
// the range. Offset (not iterator/pointer) ranges stay valid while
// children are appended above them.
struct NodeDb {
  size_t begin;
  size_t end;
};

class PsmRun {
 public:
  PsmRun(const Partition& partition, const Hierarchy& h,
         const GsmParams& params, ItemId pivot, RightIndexPool* index_pool,
         MinerStats* stats)
      : partition_(partition),
        h_(h),
        params_(params),
        pivot_(pivot),
        index_pool_(index_pool),
        stats_(stats) {}

  PatternMap Mine() {
    regrouper_.Prepare(static_cast<size_t>(pivot_) + 1);
    if (index_pool_ != nullptr) {
      // One row per simultaneously-live left node (the left recursion is
      // at most lambda deep), each with one set per right-expansion depth.
      // The pool belongs to the PsmMiner, so this reuses (and only grows)
      // the arena the previous partitions already paid for.
      index_pool_->Prepare(params_.lambda, params_.lambda,
                           static_cast<size_t>(pivot_) + 1);
    }
    // Seed database: one posting per pivot occurrence, encoded straight
    // onto the packed arena. The scan order (tid ascending, position
    // ascending) already matches the sorted-unique posting invariant, so
    // no sort is needed.
    PostingEncoder seed;
    for (uint32_t tid = 0; tid < partition_.size(); ++tid) {
      const SequenceView t = partition_.sequences[tid];
      for (uint32_t pos = 0; pos < t.size(); ++pos) {
        // On w-generalized partitions only the literal pivot matches, but
        // PSM stays correct on raw partitions (descendants of the pivot
        // may still occur, e.g. under RewriteLevel::kNone).
        if (IsItem(t[pos]) && h_.GeneralizesTo(t[pos], pivot_)) {
          seed.Append(&packed_, tid, Embedding{pos, pos});
        }
      }
    }
    Sequence pattern{pivot_};
    LeftNode(pattern, NodeDb{0, packed_.size()}, /*left_depth=*/0,
             /*parent_row=*/kNoRow);
    return std::move(output_);
  }

 private:
  static constexpr size_t kNoRow = static_cast<size_t>(-1);

  // Processes a node of the form Sl·w: runs its series of right expansions
  // (building its own right index in pool row `left_depth`), then
  // left-expands. `parent_row` is the pool row of the parent left node, or
  // kNoRow at the root (no index to prune against).
  void LeftNode(Sequence& pattern, const NodeDb& db, size_t left_depth,
                size_t parent_row) {
    size_t my_row = kNoRow;
    if (index_pool_ != nullptr) {
      my_row = left_depth;
      index_pool_->NewGeneration(my_row);
    }
    ExpandRight(pattern, db, /*depth=*/0, parent_row, my_row);
    ExpandLeft(pattern, db, left_depth, my_row);
  }

  // One right-expansion step: pattern -> pattern + a for frequent a != pivot.
  void ExpandRight(Sequence& pattern, const NodeDb& db, uint32_t depth,
                   size_t parent_row, size_t my_row) {
    if (pattern.size() >= params_.lambda) return;
    const bool pruned =
        parent_row != kNoRow && depth < index_pool_->depths();
    if (pruned && index_pool_->Empty(parent_row, depth)) {
      return;  // R_S = ∅: skip the scan (Sec. 5.2).
    }
    const size_t mark = packed_.size();
    gen_.clear();
    PostingCursor cursor(db.begin);
    uint32_t tid = 0;
    Embedding emb{0, 0};
    while (cursor.Next(packed_, db.end, &tid, &emb)) {
      const SequenceView t = partition_.sequences[tid];
      uint64_t hi = std::min<uint64_t>(
          t.size(), static_cast<uint64_t>(emb.end) + params_.gamma + 2);
      for (uint32_t j = emb.end + 1; j < hi; ++j) {
        if (!IsItem(t[j])) continue;
        for (ItemId a : h_.AncestorSpan(t[j])) {
          if (a > pivot_) continue;  // Not pivot-relevant (raw partitions).
          if (pruned && !index_pool_->Test(parent_row, depth, a)) {
            continue;  // Pruned by the parent's right index.
          }
          gen_.push_back({a, tid, Embedding{emb.start, j}});
        }
      }
    }
    const size_t gmark = groups_.size();
    regrouper_.RegroupPacked(gen_, 0, partition_.weights, &packed_, &groups_);
    const size_t gend = groups_.size();
    for (size_t gi = gmark; gi < gend; ++gi) {
      const EventGroup g = groups_[gi];  // Copy: recursion appends above.
      if (g.item == pivot_) continue;  // Alg. 2 line 11.
      if (stats_ != nullptr) ++stats_->candidates;
      if (g.weight < params_.sigma) continue;
      pattern.push_back(g.item);
      Output(pattern, g.weight);
      if (my_row != kNoRow) index_pool_->Set(my_row, depth, g.item);
      ExpandRight(pattern, NodeDb{g.begin, g.end}, depth + 1, parent_row,
                  my_row);
      pattern.pop_back();
    }
    // Backtrack: release this level's expansions.
    groups_.resize(gmark);
    packed_.resize(mark);
  }

  // One left-expansion step: pattern -> a + pattern (pivot allowed); each
  // frequent result is a new left node.
  void ExpandLeft(Sequence& pattern, const NodeDb& db, size_t left_depth,
                  size_t my_row) {
    if (pattern.size() >= params_.lambda) return;
    const size_t mark = packed_.size();
    gen_.clear();
    PostingCursor cursor(db.begin);
    uint32_t tid = 0;
    Embedding emb{0, 0};
    while (cursor.Next(packed_, db.end, &tid, &emb)) {
      const SequenceView t = partition_.sequences[tid];
      uint32_t window = params_.gamma + 1;
      uint32_t lo = emb.start >= window ? emb.start - window : 0;
      for (uint32_t j = lo; j < emb.start; ++j) {
        if (!IsItem(t[j])) continue;
        for (ItemId a : h_.AncestorSpan(t[j])) {
          if (a > pivot_) continue;  // Not pivot-relevant (raw partitions).
          gen_.push_back({a, tid, Embedding{j, emb.end}});
        }
      }
    }
    const size_t gmark = groups_.size();
    regrouper_.RegroupPacked(gen_, 0, partition_.weights, &packed_, &groups_);
    const size_t gend = groups_.size();
    for (size_t gi = gmark; gi < gend; ++gi) {
      const EventGroup g = groups_[gi];  // Copy: recursion appends above.
      if (stats_ != nullptr) ++stats_->candidates;
      if (g.weight < params_.sigma) continue;
      pattern.insert(pattern.begin(), g.item);
      Output(pattern, g.weight);
      LeftNode(pattern, NodeDb{g.begin, g.end}, left_depth + 1, my_row);
      pattern.erase(pattern.begin());
    }
    // Backtrack: release this level's expansions.
    groups_.resize(gmark);
    packed_.resize(mark);
  }

  void Output(const Sequence& pattern, Frequency freq) {
    output_.emplace(pattern, freq);
    if (stats_ != nullptr) ++stats_->outputs;
  }

  const Partition& partition_;
  const Hierarchy& h_;
  const GsmParams& params_;
  ItemId pivot_;
  // PSM+Index right indexes, pooled in the owning PsmMiner so capacity and
  // epochs span partitions; null for plain PSM (no index pruning).
  RightIndexPool* index_pool_;
  MinerStats* stats_;
  PatternMap output_;
  // The shared packed-postings arena backing every expansion database of
  // the run (stack-disciplined: children append above, backtrack
  // truncates), the per-step generation buffer the regrouper consumes,
  // and the scatter-based grouper that keeps the arena sorted without
  // full-buffer sorts.
  std::string packed_;
  std::vector<ExpansionEvent> gen_;
  // Per-level group directories, stack-disciplined like packed_.
  std::vector<psm_internal::EventGroup> groups_;
  EventRegrouper regrouper_;
};

}  // namespace

PsmMiner::PsmMiner(const Hierarchy* hierarchy, const GsmParams& params,
                   bool use_index)
    : hierarchy_(hierarchy), params_(params), use_index_(use_index) {
  params_.Validate();
}

PatternMap PsmMiner::Mine(const Partition& partition, ItemId pivot,
                          MinerStats* stats) {
  PsmRun run(partition, *hierarchy_, params_, pivot,
             use_index_ ? &index_pool_ : nullptr, stats);
  return run.Mine();
}

}  // namespace lash
