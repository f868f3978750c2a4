#include "serve/support_count.h"

#include <algorithm>

#include "core/match.h"

namespace lash::serve {

SupportCounter::SupportCounter(const Dataset& dataset,
                               const NamedPatternList& candidates,
                               const CountQuery& query)
    : pre_(query.flat ? dataset.flat_preprocessed() : dataset.preprocessed()),
      gamma_(query.gamma) {
  std::vector<ItemId> rarest(candidates.size(), kInvalidItem);
  offsets_.reserve(candidates.size() + 1);
  offsets_.push_back(0);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const NamedPattern& candidate = candidates[c];
    if (!candidate.items.empty() && candidate.items.size() <= query.lambda) {
      for (const std::string& name : candidate.items) {
        const ItemId rank = dataset.RankOfName(name, query.flat);
        if (rank == kInvalidItem) {
          // Absent from this shard's vocabulary: support 0.
          items_.resize(offsets_.back());
          rarest[c] = kInvalidItem;
          break;
        }
        items_.push_back(rank);
        rarest[c] = std::max(rarest[c], rank);
      }
    }
    offsets_.push_back(static_cast<uint32_t>(items_.size()));
  }

  // Counting sort of the countable candidates by rarest rank.
  bucket_begin_.assign(pre_.hierarchy.NumItems() + 2, 0);
  for (const ItemId r : rarest) {
    if (r != kInvalidItem) ++bucket_begin_[r + 1];
  }
  for (size_t r = 1; r < bucket_begin_.size(); ++r) {
    bucket_begin_[r] += bucket_begin_[r - 1];
  }
  bucket_.resize(bucket_begin_.back());
  std::vector<uint32_t> cursor(bucket_begin_.begin(), bucket_begin_.end() - 1);
  for (size_t c = 0; c < rarest.size(); ++c) {
    if (rarest[c] != kInvalidItem) {
      bucket_[cursor[rarest[c]]++] = static_cast<uint32_t>(c);
    }
  }
}

void SupportCounter::CountRange(size_t begin, size_t end,
                                Frequency* supports) const {
  if (bucket_.empty()) return;
  const Hierarchy& h = pre_.hierarchy;
  // mark[a] == stamp iff item a generalizes some item of the current
  // transaction; `marked` lists those with a nonempty bucket.
  std::vector<uint32_t> mark(h.NumItems() + 1, 0);
  std::vector<ItemId> marked;
  MatchScratch scratch;
  uint32_t stamp = 0;
  for (size_t t = begin; t < end; ++t) {
    const SequenceView transaction = pre_.database[t];
    if (++stamp == 0) {
      std::fill(mark.begin(), mark.end(), 0);
      stamp = 1;
    }
    marked.clear();
    for (const ItemId w : transaction) {
      if (!IsItem(w)) continue;
      for (const ItemId a : h.AncestorSpan(w)) {
        // A marked item's ancestors are marked already (the span runs
        // self first, root last).
        if (mark[a] == stamp) break;
        mark[a] = stamp;
        if (bucket_begin_[a] != bucket_begin_[a + 1]) marked.push_back(a);
      }
    }
    for (const ItemId g : marked) {
      for (uint32_t i = bucket_begin_[g]; i < bucket_begin_[g + 1]; ++i) {
        const uint32_t c = bucket_[i];
        const SequenceView s(items_.data() + offsets_[c],
                             offsets_[c + 1] - offsets_[c]);
        if (s.size() > transaction.size()) continue;
        if (!std::all_of(s.begin(), s.end(),
                         [&](ItemId x) { return mark[x] == stamp; })) {
          continue;
        }
        // One item is matched by its mark alone.
        if (s.size() == 1 || Matches(s, transaction, h, gamma_, &scratch)) {
          ++supports[c];
        }
      }
    }
  }
}

std::vector<Frequency> CountSupports(const Dataset& dataset,
                                     const NamedPatternList& candidates,
                                     const CountQuery& query) {
  const SupportCounter counter(dataset, candidates, query);
  std::vector<Frequency> supports(candidates.size(), 0);
  counter.CountRange(0, counter.num_transactions(), supports.data());
  return supports;
}

}  // namespace lash::serve
