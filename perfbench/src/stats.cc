#include "stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {
namespace {

/// ceil(p% of n) in integers (p to a tenth of a percent), so 99.9% of
/// 10000 is exactly 9990 and not one more from binary rounding.
size_t RankAtOrBelow(double p, size_t n) {
  const auto per_mille = static_cast<size_t>(std::llround(p * 10));
  return (per_mille * n + 999) / 1000;
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  const size_t rank = RankAtOrBelow(p, samples.size());
  return samples[std::min(rank == 0 ? 0 : rank - 1, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

double SupportedPercentile(size_t n, size_t min_beyond) {
  double best = 0;
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    // Samples strictly above the nearest-rank p-th value.
    if (n - RankAtOrBelow(p, n) >= min_beyond) best = p;
  }
  return best;
}

double SelfTimeMs(const Interval& parent, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.start = std::max(child.start, parent.start);
    child.end = std::min(child.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0;
  double run_start = 0, run_end = 0;
  bool open = false;
  for (const Interval& child : children) {
    if (child.end <= child.start) continue;
    if (open && child.start <= run_end) {
      run_end = std::max(run_end, child.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = child.start;
    run_end = child.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return std::max(0.0, parent.end - parent.start - covered);
}

int64_t ParseProcStatCpuTicks(const std::string& stat_text) {
  const size_t close = stat_text.rfind(')');
  if (close == std::string::npos) return -1;
  // After the command: field 3 (state) onwards; utime and stime are fields
  // 14 and 15, i.e. the 12th and 13th tokens after the ')'.
  std::istringstream in(stat_text.substr(close + 1));
  std::string token;
  int64_t utime = -1, stime = -1;
  for (int field = 3; field <= 15 && (in >> token); ++field) {
    if (field == 14 || field == 15) {
      char* end = nullptr;
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (end == token.c_str() || *end != '\0' || value < 0) return -1;
      (field == 14 ? utime : stime) = value;
    }
  }
  if (utime < 0 || stime < 0) return -1;
  return utime + stime;
}

int64_t ParseProcStatusHwmKb(const std::string& status_text) {
  std::istringstream in(status_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    int64_t kb = -1;
    if (fields >> kb) return kb;
    return -1;
  }
  return -1;
}

double CpuMsPerQuery(const std::vector<int64_t>& ticks_before,
                     const std::vector<int64_t>& ticks_after,
                     double ticks_per_second, size_t completed) {
  if (completed == 0 || ticks_per_second <= 0) return 0;
  int64_t delta = 0;
  const size_t n = std::min(ticks_before.size(), ticks_after.size());
  for (size_t i = 0; i < n; ++i) delta += ticks_after[i] - ticks_before[i];
  return static_cast<double>(delta) * 1000.0 / ticks_per_second /
         static_cast<double>(completed);
}

}  // namespace perfbench
