// Unit tests for the benchmark's own arithmetic: percentiles and the
// sample counts that support them, due-time latency under a stalled sender,
// the self-time fold, and CPU per query from /proc counters.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_EQ(Percentile(samples, 50), 50);
  EXPECT_EQ(Percentile(samples, 90), 90);
  EXPECT_EQ(Percentile(samples, 99), 99);
  EXPECT_EQ(Percentile(samples, 100), 100);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileTest, FailuresMissEveryLimit) {
  const double inf = std::numeric_limits<double>::infinity();
  // One failure in ten: p90 is still a real latency, anything above is not.
  std::vector<double> samples = {1, 2, 3, 4, 5, 6, 7, 8, 9, inf};
  EXPECT_EQ(Percentile(samples, 90), 9);
  EXPECT_TRUE(std::isinf(Percentile(samples, 99)));
}

TEST(SupportedPercentileTest, TenSamplesBeyond) {
  EXPECT_EQ(SupportedPercentile(0), 0);
  EXPECT_EQ(SupportedPercentile(19), 0);   // 9 above the median
  EXPECT_EQ(SupportedPercentile(20), 50);  // 10 above the median
  EXPECT_EQ(SupportedPercentile(99), 50);  // 9 above p90
  EXPECT_EQ(SupportedPercentile(100), 90);
  EXPECT_EQ(SupportedPercentile(200), 95);
  EXPECT_EQ(SupportedPercentile(999), 95);
  EXPECT_EQ(SupportedPercentile(1000), 99);
  EXPECT_EQ(SupportedPercentile(10000), 99.9);
  EXPECT_EQ(SupportedPercentile(100, 1), 99);
}

TEST(ArrivalsTest, SeededSortedOnePerSlot) {
  const std::vector<double> a = JitteredArrivals(7, 500, 2.0);
  EXPECT_EQ(a, JitteredArrivals(7, 500, 2.0));
  EXPECT_NE(a, JitteredArrivals(8, 500, 2.0));
  ASSERT_EQ(a.size(), 500u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], 4.0 * i);
    EXPECT_LT(a[i], 4.0 * (i + 1));
  }
}

TEST(RunLaneTest, LatencyCountsFromTheDueTimeWhenTheSenderStalls) {
  // One connection, requests due every 10 ms; the first send stalls for
  // 100 ms. Every request due during the stall waits for the connection:
  // timed from its send it looks fast, timed from its due time it shows
  // the stall (coordinated omission).
  std::vector<double> due;
  for (int i = 0; i < 6; ++i) due.push_back(10.0 * i);
  const std::vector<RequestTiming> timings =
      RunLane(
          due, 1, NowMs() + 5,
          [](size_t, size_t index) {
            if (index == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
            return true;
          },
          [](size_t, size_t) { return true; });
  ASSERT_EQ(timings.size(), 6u);
  for (size_t i = 0; i < timings.size(); ++i) {
    EXPECT_TRUE(timings[i].ok);
    EXPECT_EQ(timings[i].due_ms, due[i]);
    EXPECT_GE(timings[i].sent_ms, timings[i].due_ms - 1e-9);
  }
  // Request 1 was due at 10 ms but could only go out after ~100 ms.
  EXPECT_GE(timings[1].LagMs(), 80);
  EXPECT_GE(timings[1].LatencyMs(), 80);
  EXPECT_LT(timings[1].done_ms - timings[1].sent_ms, 50);
  // The lag shrinks by the arrival gap for each later request.
  EXPECT_GT(timings[1].LagMs(), timings[5].LagMs());
  EXPECT_GE(timings[5].LatencyMs(), 40);
}

TEST(RunLaneTest, ConnectionsServeInParallelAndChecksAreUntimed) {
  std::vector<double> due(4, 0.0);
  const std::vector<RequestTiming> timings = RunLane(
      due, 4, NowMs(),
      [](size_t, size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return true;
      },
      [](size_t, size_t index) {
        // A slow check of the answer must not count as latency.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return index != 2;
      });
  for (size_t i = 0; i < timings.size(); ++i) {
    EXPECT_LT(timings[i].LagMs(), 40);
    EXPECT_LT(timings[i].LatencyMs(), 90);
    EXPECT_EQ(timings[i].ok, i != 2);
  }
}

TEST(RunLaneTest, UnansweredRequestsAreNotChecked) {
  std::vector<double> due(3, 0.0);
  size_t checked = 0;
  const std::vector<RequestTiming> timings = RunLane(
      due, 1, NowMs(), [](size_t, size_t index) { return index != 1; },
      [&](size_t, size_t) {
        ++checked;
        return true;
      });
  EXPECT_TRUE(timings[0].ok);
  EXPECT_FALSE(timings[1].ok);
  EXPECT_TRUE(timings[2].ok);
  EXPECT_EQ(checked, 2u);
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  // Disjoint children.
  EXPECT_DOUBLE_EQ(SelfTimeMs({0, 100}, {{0, 30}, {30, 80}}), 20);
  // Overlapping parallel legs count once.
  EXPECT_DOUBLE_EQ(SelfTimeMs({0, 100}, {{0, 40}, {10, 50}, {5, 20}}), 50);
  // Children are clipped to the parent.
  EXPECT_DOUBLE_EQ(SelfTimeMs({10, 20}, {{0, 15}, {18, 40}}), 3);
  // Gaps between children are self time; empty children add nothing.
  EXPECT_DOUBLE_EQ(SelfTimeMs({0, 10}, {{1, 2}, {4, 5}, {7, 7}}), 8);
  EXPECT_DOUBLE_EQ(SelfTimeMs({0, 10}, {}), 10);
  // Children covering more than the parent never make it negative.
  EXPECT_DOUBLE_EQ(SelfTimeMs({0, 10}, {{0, 10}, {0, 12}}), 0);
}

TEST(ProcTest, CpuTicksSkipTheCommandName) {
  // Fields 14 (utime) and 15 (stime); the command holds spaces and ')'.
  const std::string stat =
      "4242 (lash served) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 "
      "250 75 0 0 20 0 5 0 1000 123456 789";
  EXPECT_EQ(ParseProcStatCpuTicks(stat), 325);
  EXPECT_EQ(ParseProcStatCpuTicks("garbage"), -1);
  EXPECT_EQ(ParseProcStatCpuTicks("1 (a) S 1 2"), -1);
}

TEST(ProcTest, PeakRss) {
  EXPECT_EQ(ParseProcStatusHwmKb("Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  5120 kB\n"), 5120);
  EXPECT_EQ(ParseProcStatusHwmKb("Name:\tx\n"), -1);
}

TEST(ProcTest, CpuPerQueryFromDeltas) {
  // Two processes: (250-100) + (80-20) = 210 ticks at 100 Hz = 2100 ms,
  // over 42 completed queries.
  EXPECT_DOUBLE_EQ(CpuMsPerQuery({100, 20}, {250, 80}, 100, 42), 50);
  EXPECT_DOUBLE_EQ(CpuMsPerQuery({100}, {250}, 100, 0), 0);
}

}  // namespace
}  // namespace perfbench
