#include "core/match.h"

#include <algorithm>

namespace lash {

namespace {

// Marks reach[i] = true for every position i of t where an embedding of the
// prefix s[0..j] ends, level by level. Returns false early if a level has no
// reachable position.
//
// Transition: position i is reachable at level j iff t[i] →* s[j] and some
// position i' with i-gamma-1 <= i' <= i-1 is reachable at level j-1.
bool ComputeReachable(SequenceView s, SequenceView t, const Hierarchy& h,
                      uint32_t gamma, MatchScratch* scratch) {
  std::vector<char>* reach = &scratch->reach;
  const size_t m = t.size();
  reach->assign(m, 0);
  bool any = false;
  for (size_t i = 0; i < m; ++i) {
    if (IsItem(t[i]) && h.GeneralizesTo(t[i], s[0])) {
      (*reach)[i] = 1;
      any = true;
    }
  }
  if (!any) return false;
  std::vector<char>& next = scratch->next;
  next.resize(m);
  for (size_t j = 1; j < s.size(); ++j) {
    std::fill(next.begin(), next.end(), 0);
    any = false;
    // window_count = number of reachable positions in [i-gamma-1, i-1].
    size_t window_count = 0;
    for (size_t i = 0; i < m; ++i) {
      if (i >= 1 && (*reach)[i - 1]) ++window_count;
      const size_t window = static_cast<size_t>(gamma) + 1;
      if (i >= window + 1 && (*reach)[i - window - 1]) --window_count;
      if (window_count > 0 && IsItem(t[i]) && h.GeneralizesTo(t[i], s[j])) {
        next[i] = 1;
        any = true;
      }
    }
    reach->swap(next);
    if (!any) return false;
  }
  return true;
}

}  // namespace

bool Matches(const Sequence& s, SequenceView t, const Hierarchy& h,
             uint32_t gamma) {
  MatchScratch scratch;
  return Matches(s, t, h, gamma, &scratch);
}

bool Matches(SequenceView s, SequenceView t, const Hierarchy& h,
             uint32_t gamma, MatchScratch* scratch) {
  if (s.empty() || s.size() > t.size()) return false;
  return ComputeReachable(s, t, h, gamma, scratch);
}

std::vector<uint32_t> MatchEndPositions(const Sequence& s, SequenceView t,
                                        const Hierarchy& h, uint32_t gamma) {
  std::vector<uint32_t> out;
  if (s.empty() || s.size() > t.size()) return out;
  MatchScratch scratch;
  if (!ComputeReachable(s, t, h, gamma, &scratch)) return out;
  for (size_t i = 0; i < t.size(); ++i) {
    if (scratch.reach[i]) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

std::vector<Embedding> MatchEmbeddings(const Sequence& s, SequenceView t,
                                       const Hierarchy& h, uint32_t gamma) {
  std::vector<Embedding> out;
  if (s.empty() || s.size() > t.size()) return out;
  const size_t m = t.size();
  // starts[i] = sorted distinct start positions of embeddings of the current
  // prefix that end at i.
  std::vector<std::vector<uint32_t>> starts(m);
  for (size_t i = 0; i < m; ++i) {
    if (IsItem(t[i]) && h.GeneralizesTo(t[i], s[0])) {
      starts[i].push_back(static_cast<uint32_t>(i));
    }
  }
  for (size_t j = 1; j < s.size(); ++j) {
    std::vector<std::vector<uint32_t>> next(m);
    for (size_t i = 0; i < m; ++i) {
      if (!IsItem(t[i]) || !h.GeneralizesTo(t[i], s[j])) continue;
      const size_t window = static_cast<size_t>(gamma) + 1;
      size_t lo = i >= window ? i - window : 0;
      // Concatenate the window's start lists, then sort+unique once —
      // repeated pairwise set_union is quadratic in the window's total size.
      std::vector<uint32_t> merged;
      for (size_t p = lo; p < i; ++p) {
        merged.insert(merged.end(), starts[p].begin(), starts[p].end());
      }
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      next[i] = std::move(merged);
    }
    starts.swap(next);
  }
  for (size_t i = 0; i < m; ++i) {
    for (uint32_t st : starts[i]) {
      out.push_back(Embedding{st, static_cast<uint32_t>(i)});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace lash
