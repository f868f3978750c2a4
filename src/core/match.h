#ifndef LASH_CORE_MATCH_H_
#define LASH_CORE_MATCH_H_

#include <cstdint>
#include <vector>

#include "core/flat_database.h"
#include "core/hierarchy.h"
#include "util/types.h"

namespace lash {

/// Returns true iff `S ⊑γ T` (Sec. 2): there are indexes i1 < ... < in of T
/// with `T[ij] →* S[j]` and at most `gamma` items between consecutive
/// matches. Blanks in T never match. Implemented as a dynamic program over
/// end positions — greedy leftmost matching is incorrect under gap
/// constraints (e.g. S=ab, γ=0, T=acab).
bool Matches(const Sequence& s, SequenceView t, const Hierarchy& h,
             uint32_t gamma);

/// The dynamic program's two per-position buffers, owned by a caller that
/// tests many (pattern, transaction) pairs so that each test reuses them
/// instead of allocating its own.
struct MatchScratch {
  std::vector<char> reach;
  std::vector<char> next;
};

/// Matches with caller-owned scratch; `s` may be a view into an arena.
bool Matches(SequenceView s, SequenceView t, const Hierarchy& h,
             uint32_t gamma, MatchScratch* scratch);

/// Returns the sorted 0-based positions `e` of T such that some embedding of
/// `S` in `T` ends at `e`. Empty iff `S` does not match. Used by the DFS
/// miner to seed projected databases.
std::vector<uint32_t> MatchEndPositions(const Sequence& s, SequenceView t,
                                        const Hierarchy& h, uint32_t gamma);

/// An embedding's first and last matched positions in a transaction; PSM
/// tracks these to support both left and right expansions (Sec. 5.2).
struct Embedding {
  uint32_t start;
  uint32_t end;

  friend bool operator==(const Embedding&, const Embedding&) = default;
  friend auto operator<=>(const Embedding&, const Embedding&) = default;
};

/// Returns all distinct (start, end) pairs over embeddings of `S` in `T`,
/// sorted. Note: distinct embeddings sharing (start, end) are collapsed,
/// which is sufficient for expansion bookkeeping.
std::vector<Embedding> MatchEmbeddings(const Sequence& s, SequenceView t,
                                       const Hierarchy& h, uint32_t gamma);

}  // namespace lash

#endif  // LASH_CORE_MATCH_H_
