#ifndef LASH_OBS_HISTOGRAM_H_
#define LASH_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace lash::obs {

/// Fixed-bucket latency histogram with lock-free recording.
///
/// Bucket `i` holds latencies in `[2^(i-1), 2^i)` microseconds (bucket 0 is
/// everything under 1µs; the last bucket is open-ended), so 28 buckets cover
/// 1µs .. >67s. Record() is one bit_width plus one relaxed fetch_add — cheap
/// enough to sit on the service's per-request resolve path — and Snapshot()
/// is a plain copy small enough to return by value from a stats call.
///
/// Percentile estimates return the upper bound of the bucket containing the
/// requested rank: an overestimate of at most 2x, which is the right
/// trade-off for the p50/p95 service dashboards it feeds (a serving cache
/// hit and a cold mining run differ by orders of magnitude, not by 2x).
///
/// Born in the serving layer, hoisted into obs/ for the metrics registry.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 28;

  void Record(double ms) {
    const double us = ms * 1000.0;
    size_t bucket = 0;
    if (us >= 1.0) {
      const uint64_t whole = static_cast<uint64_t>(us);
      bucket = static_cast<size_t>(std::bit_width(whole));
      if (bucket >= kBuckets) bucket = kBuckets - 1;
    }
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(static_cast<uint64_t>(us), std::memory_order_relaxed);
  }

  /// A consistent-enough copy for reporting (individual bucket reads are
  /// relaxed; a snapshot taken while recorders run may be mid-update by a
  /// handful of requests, which is fine for monitoring counters).
  struct Snapshot {
    std::array<uint64_t, kBuckets> counts{};
    uint64_t total = 0;
    uint64_t sum_us = 0;

    /// Upper bound of the bucket holding the `p`-quantile request
    /// (p in [0, 1]), in milliseconds; 0 when the histogram is empty.
    double PercentileMs(double p) const {
      if (total == 0) return 0;
      uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total));
      if (rank >= total) rank = total - 1;
      uint64_t seen = 0;
      for (size_t i = 0; i < kBuckets; ++i) {
        seen += counts[i];
        if (seen > rank) {
          // Bucket i spans [2^(i-1), 2^i) µs; report the upper bound.
          return static_cast<double>(uint64_t{1} << i) / 1000.0;
        }
      }
      return static_cast<double>(uint64_t{1} << (kBuckets - 1)) / 1000.0;
    }

    double MeanMs() const {
      if (total == 0) return 0;
      return static_cast<double>(sum_us) / static_cast<double>(total) / 1000.0;
    }
  };

  Snapshot TakeSnapshot() const {
    Snapshot snap;
    for (size_t i = 0; i < kBuckets; ++i) {
      snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
      snap.total += snap.counts[i];
    }
    snap.sum_us = sum_us_.load(std::memory_order_relaxed);
    return snap;
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> counts_{};
  std::atomic<uint64_t> sum_us_{0};
};

}  // namespace lash::obs

#endif  // LASH_OBS_HISTOGRAM_H_
