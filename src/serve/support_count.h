#ifndef LASH_SERVE_SUPPORT_COUNT_H_
#define LASH_SERVE_SUPPORT_COUNT_H_

#include <cstdint>
#include <vector>

#include "api/lash_api.h"
#include "io/result_io.h"

namespace lash::serve {

/// Exact support counting of named candidate patterns — phase 2 of the
/// router's two-phase candidate/count protocol (net/router.h).
///
/// Counting is deliberately not mining: there is no candidate generation,
/// no σ, no output stream — just the Sec. 2 matching predicate
/// (core/match.h) applied to (candidate, transaction) pairs. The work is
/// one pass over the shard's transactions, independent of how many
/// patterns a low-σ mine would have produced, which is exactly the cost
/// the two-phase protocol exists to avoid. The router sends a shard only
/// the candidates it did not report in phase 1 and that can still reach σ,
/// so a shard with nothing to count gets no request at all. The count RPC
/// (net/service_backend.cc) splits the pass into transaction blocks on its
/// counting pool and checks the request deadline between blocks.

/// The match parameters of one counting request. γ and λ come from the
/// query; `flat` selects the flat rank space and must equal the
/// canonicalized `flat || MgFsm` bit of the mine spec
/// (RunResult::used_flat_hierarchy) for counts to agree with mining.
struct CountQuery {
  uint32_t gamma = 0;
  uint32_t lambda = 0;
  bool flat = false;
};

/// One request's candidates, resolved to shard-local ranks once and
/// bucketed by their rarest item (the highest rank: the f-list is
/// non-increasing in rank). Counting a block of transactions marks each
/// transaction's generalized items (every item's AncestorSpan), takes the
/// buckets of the marked items as its shortlist, and runs the match DP only
/// for a candidate whose items are all marked. Built per request; nothing
/// is indexed on the Dataset.
class SupportCounter {
 public:
  SupportCounter(const Dataset& dataset, const NamedPatternList& candidates,
                 const CountQuery& query);

  size_t num_candidates() const { return offsets_.size() - 1; }
  size_t num_transactions() const { return pre_.database.size(); }

  /// Adds to `supports[c]` the number of transactions in [begin, end) that
  /// contain candidate c; `supports` has num_candidates() entries. Const and
  /// allocation-private: concurrent calls over disjoint blocks, each with
  /// its own `supports` array, are safe, and their sums are the supports.
  void CountRange(size_t begin, size_t end, Frequency* supports) const;

 private:
  const PreprocessResult& pre_;
  uint32_t gamma_;
  /// Candidate c's ranks are items_[offsets_[c], offsets_[c + 1]); a
  /// candidate that cannot match (empty, over λ, an unknown name) has none.
  std::vector<uint32_t> offsets_;
  std::vector<ItemId> items_;
  /// Candidates by rarest rank r: bucket_[bucket_begin_[r], bucket_begin_[r + 1]).
  std::vector<uint32_t> bucket_begin_;
  std::vector<uint32_t> bucket_;
};

/// Returns the exact (γ, λ)-support of each candidate on `dataset`,
/// index-aligned with `candidates`: one SupportCounter over every
/// transaction. Candidate item names are decoded to shard-local ranks via
/// the dataset vocabulary; a candidate containing an unknown name, an empty
/// candidate, and a candidate longer than λ all count 0 (they cannot be an
/// answer of any shard's mine, so a 0 sums correctly in the router's
/// union). Candidate frequencies are ignored. Thread-compatible: safe to
/// call concurrently on one dataset.
std::vector<Frequency> CountSupports(const Dataset& dataset,
                                     const NamedPatternList& candidates,
                                     const CountQuery& query);

}  // namespace lash::serve

#endif  // LASH_SERVE_SUPPORT_COUNT_H_
