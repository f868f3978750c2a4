#ifndef LASH_TOOLS_OBS_ARGS_H_
#define LASH_TOOLS_OBS_ARGS_H_

#include <string>

#include "obs/trace.h"
#include "tools/arg_parse.h"

namespace lash::tools {

/// The observability flags every tool shares; splice into the tool's Args
/// spec alongside kDatasetFlags.
inline constexpr struct {
  const char* trace_out = "trace-out";  ///< JSONL span sink path.
} kObsFlags;

/// Honors --trace-out: points the process tracer at a JSONL file. Returns
/// whether tracing is on. Call once, before any request work — spans from
/// requests that started earlier are not retroactively recorded.
inline bool MaybeOpenTraceFile(const Args& args) {
  if (!args.Has(kObsFlags.trace_out)) return false;
  obs::Tracer::Global().OpenFile(args.Require(kObsFlags.trace_out));
  return true;
}

/// A fresh root trace context for one tool-issued request — the edge of
/// the trace, where ids are minted. Inactive when the tracer has no sink,
/// so untraced tool runs send requests that record no spans anywhere.
inline obs::TraceContext NewRequestTrace() {
  if (!obs::Tracer::Global().enabled()) return {};
  return obs::TraceContext{obs::TraceId::Make(), 0};
}

}  // namespace lash::tools

#endif  // LASH_TOOLS_OBS_ARGS_H_
