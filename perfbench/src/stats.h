#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic, kept free of I/O so the unit tests can
// pin it down: percentiles and how many samples support them, self time
// of a span whose children may overlap, and CPU per query from /proc
// counters.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; 0 when empty.
/// Infinite samples (failed requests) sort last, so a failure misses every
/// latency limit.
double Percentile(std::vector<double> samples, double p);

/// Median of `samples` (the 50th nearest-rank percentile); 0 when empty.
double Median(std::vector<double> samples);

/// The highest percentile of {50, 90, 95, 99, 99.9} that leaves at least
/// `min_beyond` of `n` samples above it, or 0 when even the median does
/// not. A p99 read from 150 samples rests on one or two values, so the
/// report states which percentile the sample count supports.
double SupportedPercentile(size_t n, size_t min_beyond = 10);

/// A closed time interval in milliseconds.
struct Interval {
  double start = 0;
  double end = 0;
};

/// Self time of a span: its duration minus the part of it that its
/// children cover. Children may overlap (parallel legs), so the covered
/// part is the measure of their union clipped to the parent, never the sum
/// of their durations.
double SelfTimeMs(const Interval& parent, std::vector<Interval> children);

/// User + system CPU time of one process, in clock ticks, parsed from the
/// text of /proc/<pid>/stat. The command name (field 2) is parenthesized
/// and may itself contain spaces and parentheses, so fields are counted
/// from the last ')'. Returns -1 on malformed input.
int64_t ParseProcStatCpuTicks(const std::string& stat_text);

/// Peak resident set size in KiB (the VmHWM line) from the text of
/// /proc/<pid>/status; -1 when absent.
int64_t ParseProcStatusHwmKb(const std::string& status_text);

/// CPU milliseconds per completed query: the summed tick deltas of every
/// server process over the measured window, converted at
/// `ticks_per_second`, divided by `completed`. 0 when nothing completed.
double CpuMsPerQuery(const std::vector<int64_t>& ticks_before,
                     const std::vector<int64_t>& ticks_after,
                     double ticks_per_second, size_t completed);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
