// Tests of the observability layer (src/obs/): the latency histogram's
// exact bucket and quantile arithmetic (including the empty and
// single-bucket edge cases), the metrics registry's get-or-create and kind
// contracts plus its behavior under concurrent recording (run under TSAN in
// CI), the tracer's span lifecycle, JSONL exposition and ambient-context
// plumbing, and the MapReduce JobResult -> span export.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/job.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lash::obs {
namespace {

// ---- LatencyHistogram -----------------------------------------------------

TEST(Histogram, EmptyHistogramReportsZeroEverywhere) {
  LatencyHistogram h;
  const LatencyHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.sum_us, 0u);
  EXPECT_EQ(snap.PercentileMs(0.0), 0.0);
  EXPECT_EQ(snap.PercentileMs(0.5), 0.0);
  EXPECT_EQ(snap.PercentileMs(1.0), 0.0);
  EXPECT_EQ(snap.MeanMs(), 0.0);
}

TEST(Histogram, SingleBucketCollapsesEveryQuantile) {
  LatencyHistogram h;
  // 3ms = 3000µs lands in bucket bit_width(3000) = 12: [2048, 4096)µs.
  for (int i = 0; i < 100; ++i) h.Record(3.0);
  const LatencyHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 100u);
  const double upper = 4096.0 / 1000.0;
  EXPECT_EQ(snap.PercentileMs(0.0), upper);
  EXPECT_EQ(snap.PercentileMs(0.5), upper);
  EXPECT_EQ(snap.PercentileMs(0.95), upper);
  EXPECT_EQ(snap.PercentileMs(1.0), upper);
  EXPECT_DOUBLE_EQ(snap.MeanMs(), 3.0);
}

TEST(Histogram, BucketBoundariesArePowersOfTwoMicroseconds) {
  LatencyHistogram h;
  h.Record(0.0005);  // 0.5µs -> bucket 0 (everything under 1µs).
  h.Record(0.001);   // 1µs -> bucket 1: [1, 2)µs.
  h.Record(0.0019);  // 1.9µs -> still bucket 1.
  h.Record(0.002);   // 2µs -> bucket 2: [2, 4)µs.
  h.Record(1.0);     // 1000µs -> bucket 10: [512, 1024)µs.
  const LatencyHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[10], 1u);
  EXPECT_EQ(snap.total, 5u);
}

TEST(Histogram, QuantileReportsUpperBoundOfRankBucket) {
  LatencyHistogram h;
  // 90 fast (bucket 1, upper 2µs) + 10 slow (bucket 14, upper 16384µs).
  for (int i = 0; i < 90; ++i) h.Record(0.001);
  for (int i = 0; i < 10; ++i) h.Record(10.0);
  const LatencyHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.PercentileMs(0.50), 0.002);
  EXPECT_EQ(snap.PercentileMs(0.95), 16.384);
  // Overflow clamp: ridiculous latencies land in the last, open bucket.
  LatencyHistogram overflow;
  overflow.Record(1e9);
  EXPECT_EQ(overflow.TakeSnapshot().PercentileMs(0.5),
            static_cast<double>(uint64_t{1} << (LatencyHistogram::kBuckets -
                                                1)) /
                1000.0);
}

// ---- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("layer.component.events");
  Counter* c2 = registry.GetCounter("layer.component.events");
  EXPECT_EQ(c1, c2);
  c1->Add(3);
  EXPECT_EQ(c2->Value(), 3u);
  EXPECT_NE(static_cast<void*>(registry.GetGauge("layer.component.level")),
            static_cast<void*>(c1));
}

TEST(MetricsRegistry, KindConflictIsALogicError) {
  MetricsRegistry registry;
  registry.GetCounter("name.taken");
  EXPECT_THROW(registry.GetGauge("name.taken"), std::logic_error);
  EXPECT_THROW(registry.GetHistogram("name.taken"), std::logic_error);
  // The original registration survives the failed re-registration.
  EXPECT_NO_THROW(registry.GetCounter("name.taken"));
}

TEST(MetricsRegistry, SnapshotFlattensHistogramsAndSortsByName) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter")->Add(7);
  registry.GetGauge("c.gauge")->Set(-4);
  registry.GetHistogram("a.latency")->Record(3.0);

  const std::vector<MetricSample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 6u);  // 4 histogram facets + counter + gauge.
  EXPECT_EQ(samples[0].name, "a.latency.count");
  EXPECT_EQ(samples[0].value, 1.0);
  EXPECT_EQ(samples[1].name, "a.latency.p50_ms");
  EXPECT_EQ(samples[2].name, "a.latency.p95_ms");
  EXPECT_EQ(samples[3].name, "a.latency.mean_ms");
  EXPECT_DOUBLE_EQ(samples[3].value, 3.0);
  EXPECT_EQ(samples[4].name, "b.counter");
  EXPECT_EQ(samples[4].value, 7.0);
  EXPECT_EQ(samples[5].name, "c.gauge");
  EXPECT_EQ(samples[5].value, -4.0);

  const std::string text = registry.ToText();
  EXPECT_NE(text.find("b.counter 7"), std::string::npos);
  EXPECT_NE(text.find("c.gauge -4"), std::string::npos);
  const std::string json = registry.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"a.latency.count\":1"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndRecordingIsClean) {
  // The TSAN target: registration races registration (same and different
  // names), recording races recording, and snapshots race both.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      Counter* shared = registry.GetCounter("race.shared");
      Counter* own =
          registry.GetCounter("race.thread." + std::to_string(t % 4));
      Gauge* gauge = registry.GetGauge("race.level");
      LatencyHistogram* hist = registry.GetHistogram("race.latency");
      for (int i = 0; i < kOpsPerThread; ++i) {
        shared->Add();
        own->Add();
        gauge->Add(1);
        gauge->Sub(1);
        hist->Record(0.5);
      }
    });
  }
  threads.emplace_back([&registry] {
    for (int i = 0; i < 50; ++i) (void)registry.Snapshot();
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(registry.GetCounter("race.shared")->Value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(registry.GetGauge("race.level")->Value(), 0);
  EXPECT_EQ(registry.GetHistogram("race.latency")->TakeSnapshot().total,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

// ---- TraceId / Span -------------------------------------------------------

TEST(Trace, TraceIdHexRoundTripsAndFlagsActivity) {
  EXPECT_FALSE(TraceId{}.active());
  EXPECT_EQ(TraceId{}.Hex(), std::string(32, '0'));

  const TraceId id = TraceId::Make();
  EXPECT_TRUE(id.active());
  EXPECT_EQ(TraceId::FromHex(id.Hex()), id);
  EXPECT_NE(TraceId::Make(), id);

  // Anything but 32 hex chars decodes to the inactive id.
  EXPECT_FALSE(TraceId::FromHex("abc").active());
  EXPECT_FALSE(TraceId::FromHex(std::string(32, 'g')).active());
}

TEST(Trace, SpanIsInertWithoutBothHalves) {
  Tracer tracer;  // No sink: disabled.
  const TraceContext active_parent{TraceId::Make(), 0};
  Span no_sink(&tracer, active_parent, "x");
  EXPECT_FALSE(no_sink.active());
  EXPECT_FALSE(no_sink.context().active());

  tracer.StartCollecting();
  Span no_trace(&tracer, TraceContext{}, "x");  // Untraced request.
  EXPECT_FALSE(no_trace.active());
  no_trace.End();
  Span live(&tracer, active_parent, "x");
  EXPECT_TRUE(live.active());
  live.End();
  EXPECT_EQ(tracer.TakeCollected().size(), 1u);
}

TEST(Trace, SpanTreeNestsByContextAndCarriesTags) {
  Tracer tracer;
  tracer.StartCollecting();
  const TraceContext root_ctx{TraceId::Make(), 0};

  Span parent(&tracer, root_ctx, "parent");
  parent.Tag("outcome", "ok");
  parent.Tag("count", 3.0);
  Span child(&tracer, parent.context(), "child");
  const uint64_t parent_id = parent.context().parent_span;
  const uint64_t child_id = child.context().parent_span;
  EXPECT_NE(parent_id, 0u);
  EXPECT_NE(child_id, parent_id);
  child.End();
  child.End();  // Second End is a no-op, not a duplicate record.
  parent.End();

  std::vector<SpanRecord> spans = tracer.TakeCollected();
  ASSERT_EQ(spans.size(), 2u);  // Child ended first.
  EXPECT_EQ(spans[0].name, "child");
  EXPECT_EQ(spans[0].parent_id, parent_id);
  EXPECT_EQ(spans[0].span_id, child_id);
  EXPECT_EQ(spans[1].name, "parent");
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[1].trace_id, root_ctx.trace_id);
  EXPECT_EQ(spans[0].trace_id, root_ctx.trace_id);
  ASSERT_EQ(spans[1].tags.size(), 2u);
  EXPECT_EQ(spans[1].tags[0],
            (std::pair<std::string, std::string>{"outcome", "ok"}));
  EXPECT_EQ(spans[1].tags[1],
            (std::pair<std::string, std::string>{"count", "3"}));
}

TEST(Trace, DestructorEndsAndMoveTransfersOwnership) {
  Tracer tracer;
  tracer.StartCollecting();
  const TraceContext ctx{TraceId::Make(), 0};
  {
    Span outer(&tracer, ctx, "moved");
    Span inner = std::move(outer);
    EXPECT_FALSE(outer.active());
    EXPECT_TRUE(inner.active());
  }  // inner's destructor records exactly one span.
  EXPECT_EQ(tracer.TakeCollected().size(), 1u);
}

TEST(Trace, JsonlFileCarriesTheDocumentedSchema) {
  const std::string path =
      ::testing::TempDir() + "/obs_trace_test.jsonl";
  std::remove(path.c_str());
  Tracer tracer;
  tracer.OpenFile(path);
  const TraceContext ctx{TraceId::Make(), 0};
  {
    Span span(&tracer, ctx, "unit.test");
    span.Tag("key", "value \"quoted\"");
  }
  tracer.CloseFile();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"trace\":\"" + ctx.trace_id.Hex() + "\""),
            std::string::npos);
  EXPECT_NE(line.find("\"span\":\""), std::string::npos);
  EXPECT_NE(line.find("\"parent\":\"" + std::string(16, '0') + "\""),
            std::string::npos);
  EXPECT_NE(line.find("\"name\":\"unit.test\""), std::string::npos);
  EXPECT_NE(line.find("\"start_unix_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"dur_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"key\":\"value \\\"quoted\\\"\""), std::string::npos);
  EXPECT_FALSE(std::getline(in, line));  // Exactly one span, one line.
  std::remove(path.c_str());
}

TEST(Trace, AmbientContextIsScopedPerThread) {
  EXPECT_FALSE(AmbientContext().active());
  const TraceContext ctx{TraceId::Make(), 42};
  {
    ScopedAmbientContext scope(ctx);
    EXPECT_EQ(AmbientContext().trace_id, ctx.trace_id);
    EXPECT_EQ(AmbientContext().parent_span, 42u);
    {
      ScopedAmbientContext inner(TraceContext{});
      EXPECT_FALSE(AmbientContext().active());
    }
    EXPECT_TRUE(AmbientContext().active());
    // Other threads see their own (inactive) ambient context.
    std::thread([] { EXPECT_FALSE(AmbientContext().active()); }).join();
  }
  EXPECT_FALSE(AmbientContext().active());
}

// ---- ExportJobSpans -------------------------------------------------------

TEST(Trace, ExportJobSpansRendersThePipelinedTimeline) {
  Tracer tracer;
  tracer.StartCollecting();
  const TraceContext parent{TraceId::Make(), 99};

  JobResult job;
  job.pipelined = true;
  job.times.map_ms = 10;
  job.times.shuffle_ms = 4;
  job.times.reduce_ms = 6;
  job.map_barrier_ms = 10;
  job.phase_overlap_ms = 3.5;
  job.map_task_ms = {2.0, 3.0};
  job.map_task_start_ms = {0.0, 1.0};
  PartitionTimeline p;
  p.ready_ms = 1.0;
  p.start_ms = 2.0;
  p.grouped_ms = 5.0;
  p.reduced_ms = 9.0;
  job.partition_timeline = {p};

  const double anchor = 1000.0;
  ExportJobSpans(&tracer, parent, job, anchor);
  std::vector<SpanRecord> spans = tracer.TakeCollected();
  ASSERT_EQ(spans.size(), 5u);  // 2 map + group + reduce + mr.job root.

  const SpanRecord& root = spans.back();
  EXPECT_EQ(root.name, "mr.job");
  EXPECT_EQ(root.parent_id, 99u);
  EXPECT_EQ(root.start_unix_ms, anchor);
  EXPECT_DOUBLE_EQ(root.dur_ms, 20.0);
  bool overlap_tag = false;
  for (const auto& [key, value] : root.tags) {
    if (key == "phase_overlap_ms") {
      overlap_tag = true;
      EXPECT_EQ(value, "3.5");
    }
  }
  EXPECT_TRUE(overlap_tag);

  std::multiset<std::string> names;
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, parent.trace_id);
    names.insert(span.name);
    if (span.name != "mr.job") {
      EXPECT_EQ(span.parent_id, root.span_id) << span.name;
    }
    if (span.name == "mr.partition.group") {
      EXPECT_EQ(span.start_unix_ms, anchor + 2.0);
      EXPECT_DOUBLE_EQ(span.dur_ms, 3.0);
    }
    if (span.name == "mr.partition.reduce") {
      EXPECT_EQ(span.start_unix_ms, anchor + 5.0);
      EXPECT_DOUBLE_EQ(span.dur_ms, 4.0);
    }
  }
  EXPECT_EQ(names.count("mr.map"), 2u);
  EXPECT_EQ(names.count("mr.partition.group"), 1u);
  EXPECT_EQ(names.count("mr.partition.reduce"), 1u);

  // The legacy (non-pipelined) path has no per-task timeline: only the
  // job root is exported.
  job.pipelined = false;
  job.map_task_start_ms.clear();
  job.partition_timeline.clear();
  ExportJobSpans(&tracer, parent, job, anchor);
  spans = tracer.TakeCollected();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "mr.job");

  // Inactive parent or disabled tracer: nothing is recorded.
  ExportJobSpans(&tracer, TraceContext{}, job, anchor);
  EXPECT_TRUE(tracer.TakeCollected().empty());
  tracer.StopCollecting();
  ExportJobSpans(&tracer, parent, job, anchor);
  tracer.StartCollecting();
  EXPECT_TRUE(tracer.TakeCollected().empty());
}

}  // namespace
}  // namespace lash::obs
