#ifndef PERFBENCH_ATTRIBUTION_H_
#define PERFBENCH_ATTRIBUTION_H_

// The traced run's per-layer numbers. Nothing here is traced inside the
// program: each function calls one layer's public entry points from the
// benchmark's own code and times them.

#include <map>
#include <string>
#include <vector>

#include "api/lash_api.h"
#include "cluster.h"
#include "workloads.h"

namespace perfbench {

using LayerMetrics = std::map<std::string, double>;

/// Router layers, against the live shard workers of `cluster`: for each
/// attribution spec, one execution of the two phases is replayed leg by leg
/// with NetClient (phase-1 Mine at σ′=⌈σ/k⌉ on every worker, then Count of
/// the union candidates on every worker) and merged here with the Scatter's
/// own steps; the merge is that execution's self time outside its two
/// phases. Then RouterBackend::Scatter answers the same query in this
/// process, and serve::CountSupports is timed on shard 0 with the query's
/// union candidates. Both the replayed merge and the Scatter answer are
/// checked against `reference`; a mismatch or a failed leg is counted in
/// `*mismatches`.
///
/// The replayed legs set the miner explicitly to its default, which
/// changes the worker cache key but not the work, so neither the legs nor
/// the Scatter find the other's answer cached.
LayerMetrics AttributeRouter(const Cluster& cluster,
                             const lash::Dataset& shard0, const Plan& plan,
                             const Reference& reference, size_t* mismatches);

/// In-process layers, run after the cluster has drained so they have the
/// host to themselves: snapshot load, the serving layer's hit path, reply
/// encode/decode (weighted by the run's hit stream), and MiningTask::Run
/// with its MapReduce job breakdown for the attribution specs.
LayerMetrics AttributeInProcess(const CorpusFiles& files,
                                const lash::Dataset& union_dataset,
                                const Plan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_ATTRIBUTION_H_
