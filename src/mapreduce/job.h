#ifndef LASH_MAPREDUCE_JOB_H_
#define LASH_MAPREDUCE_JOB_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mapreduce/cluster.h"
#include "util/hash.h"
#include "util/readiness.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace lash {

/// Counters mirroring the Hadoop counters the paper reports (Sec. 6.1):
/// `map_output_bytes` corresponds to MAP_OUTPUT_BYTES. On the packed-spill
/// path it is the *actual* size of the varint-encoded spill buffers that
/// leave the map phase (i.e. after the combiner, which is what is actually
/// transferred); on the legacy path it is simulated via the job's
/// ByteSizeFn, which the callers define with the same varint formulas.
struct JobCounters {
  uint64_t map_input_records = 0;
  uint64_t map_output_records = 0;
  uint64_t map_output_bytes = 0;
  uint64_t reduce_input_groups = 0;
  uint64_t reduce_output_records = 0;

  void Merge(const JobCounters& other) {
    map_input_records += other.map_input_records;
    map_output_records += other.map_output_records;
    map_output_bytes += other.map_output_bytes;
    reduce_input_groups += other.reduce_input_groups;
    reduce_output_records += other.reduce_output_records;
  }
};

/// Per-phase elapsed wall-clock, the measure reported throughout Sec. 6
/// ("we break down this time into time taken by the map phase, shuffle phase
/// and the reduce phase").
struct PhaseTimes {
  double map_ms = 0;
  double shuffle_ms = 0;
  double reduce_ms = 0;

  double TotalMs() const { return map_ms + shuffle_ms + reduce_ms; }

  void Merge(const PhaseTimes& other) {
    map_ms += other.map_ms;
    shuffle_ms += other.shuffle_ms;
    reduce_ms += other.reduce_ms;
  }
};

/// Which shuffle implementation a job run uses.
enum class ShuffleMode {
  /// Byte-packed spill, pipelined: map output is varint-encoded into one
  /// flat buffer per (map task, reduce partition) via the job's
  /// SpillCodec, with the record directory (key-slice bounds + key hash)
  /// built at spill time — there is no shuffle-side decode scan. There
  /// are no global phase barriers either: per-partition readiness
  /// counters enqueue a partition's grouping + reduce task the moment the
  /// last map task seals its buffers for that partition. Grouping is an
  /// MSD radix sort on the key hash (comparison sort only within
  /// same-hash runs) that makes equal keys adjacent — equal keys have
  /// equal canonical encodings, so a run of equal slices is one reduce
  /// group. No per-pair heap allocation, no hash table, and
  /// MAP_OUTPUT_BYTES is measured, not simulated. Jobs without a
  /// SpillCodec fall back to kLegacyHash.
  kPackedSpill,
  /// The pre-PR2 path: one heap std::pair<K, V> per spilled record and an
  /// unordered_map<K, vector<V>> per reduce partition. Kept as the
  /// before-baseline of bench_shuffle; do not optimize it.
  kLegacyHash,
};

/// Execution configuration of a simulated MapReduce job.
struct JobConfig {
  /// Real worker threads used to execute tasks on this machine.
  size_t num_threads = std::thread::hardware_concurrency();
  /// Number of map tasks the input is split into.
  size_t num_map_tasks = 16;
  /// Number of reduce tasks (hash partitions of the key space).
  size_t num_reduce_tasks = 16;
  /// Shuffle implementation (see ShuffleMode).
  ShuffleMode shuffle = ShuffleMode::kPackedSpill;
};

/// Timeline of one reduce partition on the pipelined packed path, all in
/// wall-clock milliseconds since the job started.
struct PartitionTimeline {
  /// The last map task sealed this partition's spill buffers (its
  /// readiness counter hit zero and the grouping task was enqueued).
  double ready_ms = 0;
  /// The grouping task began executing on a worker (ready -> start is
  /// queue wait, not work).
  double start_ms = 0;
  /// Radix grouping finished; reduce streaming begins.
  double grouped_ms = 0;
  /// Reduce + reduce_finish done.
  double reduced_ms = 0;
};

/// Result of a job run: phase timings, counters, and the recorded per-task
/// durations that feed the simulated-cluster makespan model (Fig. 6).
struct JobResult {
  PhaseTimes times;
  JobCounters counters;
  std::vector<double> map_task_ms;
  std::vector<double> reduce_task_ms;
  /// When each map task began, ms since job start (pipelined packed path
  /// only, else empty). With map_task_ms this yields per-task intervals —
  /// what the tracing layer renders as mr.map spans.
  std::vector<double> map_task_start_ms;

  /// True when the run used the pipelined packed-spill path (no global
  /// phase barriers; `partition_timeline` is populated and
  /// `reduce_task_ms` includes each partition's grouping work).
  bool pipelined = false;
  /// Per-reduce-partition ready -> start -> grouped -> reduced timeline
  /// (pipelined packed path only, else empty).
  std::vector<PartitionTimeline> partition_timeline;
  /// When the last map task finished, i.e. where the map -> shuffle
  /// barrier *would* have been (pipelined packed path only).
  double map_barrier_ms = 0;
  /// Wall-clock during which at least two phases (map; grouping; reduce)
  /// had tasks executing simultaneously — the pipelining win made
  /// attributable. 0 on a single-thread pool, where tasks can interleave
  /// but never overlap.
  double phase_overlap_ms = 0;

  /// Simulated per-phase times on an `m`-machine cluster (Sec. 6.6). The
  /// model follows the schedule the job actually ran:
  ///  * strict-barrier runs (legacy shuffle, or jobs without a codec):
  ///    map makespan, then the measured shuffle scaled by 1/machines, then
  ///    reduce makespan — phases never overlap, matching the three global
  ///    pool fences of that path.
  ///  * pipelined packed runs: a partition's grouping is part of its
  ///    reduce task (`reduce_task_ms` includes it), and partitions group
  ///    and reduce concurrently with no barrier between them — exactly
  ///    what the task-level makespan models. There is no separate shuffle
  ///    term; adding the measured post-map grouping tail (times.shuffle_ms)
  ///    again would double-count it.
  PhaseTimes SimulatedTimes(size_t machines, size_t slots_per_machine = 8,
                            double per_task_overhead_ms = 20.0) const {
    PhaseTimes sim;
    sim.map_ms = SimulateMakespan(map_task_ms, machines, slots_per_machine,
                                  per_task_overhead_ms);
    sim.shuffle_ms =
        pipelined ? 0.0 : times.shuffle_ms / static_cast<double>(machines);
    sim.reduce_ms = SimulateMakespan(reduce_task_ms, machines,
                                     slots_per_machine, per_task_overhead_ms);
    return sim;
  }
};

/// Wall-clock milliseconds during which tasks of at least two different
/// phases were executing simultaneously: map tasks ([start, end]),
/// partition grouping ([start_ms, grouped_ms]) and partition reduce
/// ([grouped_ms, reduced_ms]). Event sweep over the recorded activity
/// intervals; queue wait (ready -> start) is not activity.
inline double PhaseOverlapMs(const std::vector<double>& map_start,
                             const std::vector<double>& map_end,
                             const std::vector<PartitionTimeline>& partitions) {
  struct Event {
    double t;
    int phase;
    int delta;
  };
  std::vector<Event> events;
  events.reserve(2 * (map_start.size() + 2 * partitions.size()));
  for (size_t m = 0; m < map_start.size(); ++m) {
    if (map_end[m] > map_start[m]) {
      events.push_back({map_start[m], 0, +1});
      events.push_back({map_end[m], 0, -1});
    }
  }
  for (const PartitionTimeline& p : partitions) {
    if (p.grouped_ms > p.start_ms) {
      events.push_back({p.start_ms, 1, +1});
      events.push_back({p.grouped_ms, 1, -1});
    }
    if (p.reduced_ms > p.grouped_ms) {
      events.push_back({p.grouped_ms, 2, +1});
      events.push_back({p.reduced_ms, 2, -1});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.delta < b.delta;  // Close before open at equal timestamps.
  });
  int active[3] = {0, 0, 0};
  double overlap = 0;
  double prev = 0;
  for (const Event& e : events) {
    const int phases = (active[0] > 0) + (active[1] > 0) + (active[2] > 0);
    if (phases >= 2) overlap += e.t - prev;
    prev = e.t;
    active[e.phase] += e.delta;
  }
  return overlap;
}

/// A minimal in-process MapReduce runtime (Sec. 3.1).
///
/// `Input` is the map input record type; `K`/`V` the intermediate key/value
/// types. The runtime splits the input into `num_map_tasks` chunks, runs the
/// user's map function over each chunk on a thread pool, optionally combines
/// values per key inside each map task, hash-partitions keys into
/// `num_reduce_tasks` groups, and runs the user's reduce function per key
/// group. All phases are timed.
///
/// Jobs that install a SpillCodec run the packed-spill shuffle by default
/// (ShuffleMode::kPackedSpill): map output lives in flat varint buffers,
/// grouping is radix-sort-based, MAP_OUTPUT_BYTES is the real buffer
/// size, and execution is pipelined — per-partition readiness counters
/// replace the global map -> shuffle -> reduce fences, so a partition
/// groups and reduces as soon as its inputs are sealed.
/// Reduce-side code must not assume anything about key arrival order — the
/// legacy path streams keys in hash-table order, the packed path in
/// (key-hash, key-bytes) order. Within one key group both paths deliver
/// values grouped by map task in ascending task order (within a task:
/// combiner-accumulator order on the legacy path, spill order on the
/// packed path); order-sensitive reducers should not rely on more than
/// that.
template <typename Input, typename K, typename V,
          typename KHash = std::hash<K>>
class MapReduceJob {
 public:
  /// Emits one intermediate pair; passed to the map function. The key is
  /// taken by const reference so map functions can reuse one scratch key
  /// buffer across emits (the runtime copies only where it must: into the
  /// combiner accumulator or the legacy spill).
  using EmitFn = std::function<void(const K&, const V&)>;
  /// User map function: `map(record, emit)`. Shared by all map tasks, so it
  /// must be re-entrant; per-thread scratch can be indexed by
  /// ThreadPool::CurrentIndex().
  using MapFn = std::function<void(const Input&, const EmitFn&)>;
  /// Optional associative combiner: merges `incoming` into `accumulated`.
  using CombineFn = std::function<void(V* accumulated, V&& incoming)>;
  /// User reduce function: `reduce(reduce_task_index, key, values)`.
  /// `values` may be consumed destructively; the vector is owned by the
  /// runtime and reused across key groups.
  using ReduceFn =
      std::function<void(size_t rtask, const K& key, std::vector<V>& values)>;
  /// Serialized size of a pair, for the simulated MAP_OUTPUT_BYTES counter
  /// of the legacy path (the packed path measures its buffers instead).
  using ByteSizeFn = std::function<size_t(const K&, const V&)>;
  /// Maps a key to a reduce partition (before modulo). Defaults to KHash.
  /// LASH overrides this to route every key of one pivot to the same reduce
  /// task while keeping full-key hashing for in-memory grouping.
  using PartitionFn = std::function<size_t(const K&)>;
  /// Called once per reduce task after all of its key groups were reduced;
  /// LASH runs the local miners here (the partitions P_w are complete
  /// then). `pool` is the job's worker pool — the hook may use
  /// ThreadPool::ParallelFor for nested parallelism, but must not call
  /// Wait() on it.
  using ReduceFinishFn = std::function<void(size_t rtask, ThreadPool* pool)>;

  /// Codec for the packed-spill path. Encodings must be canonical (equal
  /// keys produce equal bytes) because grouping compares encoded bytes;
  /// every codec in this repo is varint-based (util/varint.h).
  struct SpillCodec {
    std::function<void(std::string* out, const K& key)> encode_key;
    std::function<bool(const std::string& data, size_t* pos, K* key)>
        decode_key;
    std::function<void(std::string* out, const V& value)> encode_value;
    std::function<bool(const std::string& data, size_t* pos, V* value)>
        decode_value;
    /// Optional: advances *pos past one encoded key without materializing
    /// it. The runtime no longer needs it (the record directory — key
    /// slice bounds and hashes — is built at spill time, so no shuffle
    /// scan exists); it is kept so codecs stay round-trip-testable and
    /// self-describing.
    std::function<bool(const std::string& data, size_t* pos)> skip_key;
  };

  MapReduceJob(MapFn map, ReduceFn reduce, ByteSizeFn byte_size)
      : map_(std::move(map)),
        reduce_(std::move(reduce)),
        byte_size_(std::move(byte_size)),
        partition_([](const K& key) { return KHash{}(key); }) {}

  /// Installs a combiner, applied within each map task.
  void set_combiner(CombineFn combine) { combine_ = std::move(combine); }

  /// Overrides the key -> reduce partition routing.
  void set_partitioner(PartitionFn partition) {
    partition_ = std::move(partition);
  }

  /// Installs a per-reduce-task completion hook.
  void set_reduce_finish(ReduceFinishFn fn) { reduce_finish_ = std::move(fn); }

  /// Installs the spill codec, enabling the packed-spill shuffle.
  void set_spill_codec(SpillCodec codec) { codec_ = std::move(codec); }

  /// Runs the job over `inputs`: any corpus with `size()` and `operator[]`
  /// yielding something the map function accepts — a `std::vector<Input>`,
  /// or a FlatDatabase when `Input` is SequenceView (the flat read path:
  /// map tasks then scan one contiguous arena instead of chasing one heap
  /// vector per record).
  template <typename Corpus>
  JobResult Run(const Corpus& inputs, const JobConfig& config) {
    const size_t num_map = std::max<size_t>(1, config.num_map_tasks);
    const size_t num_red = std::max<size_t>(1, config.num_reduce_tasks);
    JobResult result;
    result.counters.map_input_records = inputs.size();
    result.map_task_ms.resize(num_map, 0.0);
    result.reduce_task_ms.resize(num_red, 0.0);

    ThreadPool pool(std::max<size_t>(1, config.num_threads));
    if (config.shuffle == ShuffleMode::kPackedSpill && codec_.encode_key) {
      RunPacked(inputs, num_map, num_red, &pool, &result);
    } else {
      RunLegacy(inputs, num_map, num_red, &pool, &result);
    }
    return result;
  }

 private:
  // ---- Packed-spill path -------------------------------------------------

  // One spilled record of a reduce partition: where its encoded key slice
  // lives (map task + byte range; buffers stay resident until the reduce
  // task finishes) plus the decoded value and the hash of the key bytes.
  // Sorting by (hash, slice bytes) makes equal keys adjacent.
  struct RecordRef {
    uint64_t hash;
    uint32_t map_task;
    uint32_t begin;
    uint32_t end;
    V value;
  };

  // Map-side combiner for the packed path, keyed by encoded key bytes: the
  // key is serialized into a string arena at emit time and deduplicated
  // with a chained hash table over (hash, byte slice). Compared to the
  // legacy unordered_map<K, V> accumulator this performs no per-key heap
  // allocation and flushing it is a single arena interleave. Entry order is
  // insertion order, so the spill content is deterministic for a fixed
  // input split.
  struct ByteCombiner {
    struct Entry {
      uint64_t hash;
      uint32_t begin;
      uint32_t end;
      uint32_t next;  // Chain link, index+1; 0 terminates.
      V value;
    };
    std::string arena;
    std::vector<Entry> entries;
    std::vector<uint32_t> heads;  // Power-of-two bucket array.
    size_t mask = 0;

    // `combine(accumulated, incoming)` merges duplicates.
    template <typename EncodeKey, typename Combine>
    void Add(const EncodeKey& encode_key, const K& key, const V& value,
             const Combine& combine) {
      if (heads.empty()) {
        heads.assign(64, 0);
        mask = heads.size() - 1;
      }
      const size_t begin_offset = arena.size();
      encode_key(&arena, key);
      // Guard after the append: this is where the arena can cross the
      // uint32 offset range, and begin_offset <= arena.size() is covered.
      if (arena.size() > UINT32_MAX) DieOnOversizedSpill();
      const uint32_t begin = static_cast<uint32_t>(begin_offset);
      const uint32_t end = static_cast<uint32_t>(arena.size());
      const uint64_t hash = FnvHashBytes(arena.data() + begin, end - begin);
      for (uint32_t e = heads[hash & mask]; e != 0; e = entries[e - 1].next) {
        Entry& entry = entries[e - 1];
        if (entry.hash == hash && entry.end - entry.begin == end - begin &&
            std::memcmp(arena.data() + entry.begin, arena.data() + begin,
                        end - begin) == 0) {
          combine(&entry.value, V(value));
          arena.resize(begin);  // Duplicate: drop the appended bytes.
          return;
        }
      }
      entries.push_back(Entry{hash, begin, end, heads[hash & mask], value});
      heads[hash & mask] = static_cast<uint32_t>(entries.size());
      if (entries.size() > heads.size()) Grow();
    }

    void Grow() {
      heads.assign(heads.size() * 2, 0);
      mask = heads.size() - 1;
      for (uint32_t i = 0; i < entries.size(); ++i) {
        entries[i].next = heads[entries[i].hash & mask];
        heads[entries[i].hash & mask] = i + 1;
      }
    }
  };

  // The pipelined dataflow. There are no global phase barriers: every map
  // task seals its spill buffers partition by partition, and the Seal call
  // that completes a partition's inputs (ReadinessCounters) enqueues that
  // partition's grouping + reduce as one pool task right there, from
  // inside the map task's body — so a partition can be grouping on one
  // worker while the map task that sealed it is still flushing the next
  // partition, and partitions group/reduce concurrently with each other
  // instead of in two global waves. One pool->Wait() at the end covers
  // everything: partition tasks are submitted from still-in-flight map
  // tasks, so the pool's in-flight count can never reach zero early.
  // Nested ParallelFor in reduce_finish stays safe (caller-drives).
  template <typename Corpus>
  void RunPacked(const Corpus& inputs, size_t num_map, size_t num_red,
                 ThreadPool* pool, JobResult* result) {
    // spill[m][r] = varint buffer of the records map task m emitted for
    // reduce partition r; refs[m][r] = that buffer's record directory
    // (key hash, key-slice bounds, decoded value), built at spill time —
    // the former shuffle-side decode/skip scan does not exist anymore.
    std::vector<std::vector<std::string>> spill(
        num_map, std::vector<std::string>(num_red));
    std::vector<std::vector<std::vector<RecordRef>>> refs(
        num_map, std::vector<std::vector<RecordRef>>(num_red));
    std::vector<JobCounters> task_counters(num_map);
    std::vector<double> map_start(num_map, 0.0);
    std::vector<double> map_end(num_map, 0.0);
    std::vector<PartitionTimeline> timeline(num_red);
    std::vector<uint64_t> group_counts(num_red, 0);
    ReadinessCounters ready(num_red, static_cast<uint32_t>(num_map));
    Stopwatch job_clock;

    // Grouping + reduce + reduce_finish of one complete partition.
    auto run_partition = [&](size_t r) {
      timeline[r].start_ms = job_clock.ElapsedMs();
      size_t total = 0;
      for (size_t m = 0; m < num_map; ++m) total += refs[m][r].size();
      std::vector<RecordRef> recs;
      recs.reserve(total);
      for (size_t m = 0; m < num_map; ++m) {
        recs.insert(recs.end(),
                    std::make_move_iterator(refs[m][r].begin()),
                    std::make_move_iterator(refs[m][r].end()));
        std::vector<RecordRef>().swap(refs[m][r]);
      }
      {
        std::vector<RecordRef> scratch(recs.size());
        RadixSortRefs(recs.data(), scratch.data(), recs.size(), 56, spill, r);
      }
      timeline[r].grouped_ms = job_clock.ElapsedMs();

      // Stream run-length key groups.
      K key;
      std::vector<V> values;  // Reused across groups, never per key.
      size_t i = 0;
      while (i < recs.size()) {
        size_t j = i + 1;
        while (j < recs.size() && recs[j].hash == recs[i].hash &&
               SliceEqual(spill, r, recs[i], recs[j])) {
          ++j;
        }
        const std::string& buffer = spill[recs[i].map_task][r];
        size_t pos = recs[i].begin;
        // A failure means the codec is not the inverse of its encoder —
        // fail loudly rather than deliver a corrupt group (same fate as a
        // failed Hadoop attempt).
        if (!codec_.decode_key(buffer, &pos, &key)) DieOnCorruptSpill();
        values.clear();
        for (size_t k = i; k < j; ++k) {
          values.push_back(std::move(recs[k].value));
        }
        reduce_(r, key, values);
        ++group_counts[r];
        i = j;
      }
      // Every group is reduced: release this partition's directory and
      // buffers before reduce_finish allocates (LASH mines there).
      std::vector<RecordRef>().swap(recs);
      for (size_t m = 0; m < num_map; ++m) {
        std::string().swap(spill[m][r]);
      }
      if (reduce_finish_) reduce_finish_(r, pool);
      timeline[r].reduced_ms = job_clock.ElapsedMs();
      result->reduce_task_ms[r] =
          timeline[r].reduced_ms - timeline[r].start_ms;
    };

    // ---- Map tasks (each seals its partitions and may kick off their
    // grouping tasks as the counters drain) ----
    for (size_t m = 0; m < num_map; ++m) {
      pool->Submit([&, m] {
        map_start[m] = job_clock.ElapsedMs();
        const size_t lo = inputs.size() * m / num_map;
        const size_t hi = inputs.size() * (m + 1) / num_map;
        std::vector<std::string>& buffers = spill[m];
        std::vector<std::vector<RecordRef>>& dir = refs[m];
        uint64_t records = 0;
        // Seals partition r for this map task: its buffer and directory
        // will not change again. The last sealer enqueues the grouping.
        auto seal = [&](size_t r) {
          task_counters[m].map_output_bytes += buffers[r].size();
          if (ready.Seal(r)) {
            timeline[r].ready_ms = job_clock.ElapsedMs();
            pool->Submit([&run_partition, r] { run_partition(r); });
          }
        };
        if (combine_) {
          // Combine inside the map task directly on encoded key bytes,
          // then interleave the surviving pairs into the spill buffers;
          // only what the combiner keeps is counted, mirroring what Hadoop
          // actually transfers. The accumulator entry order is insertion
          // order, so the spill content is deterministic for a fixed
          // input split, and the entry's hash is the FNV of exactly the
          // key bytes being appended — no rehash on flush.
          std::vector<ByteCombiner> acc(num_red);
          EmitFn emit = [&](const K& key, const V& value) {
            size_t r = partition_(key) % num_red;
            acc[r].Add(codec_.encode_key, key, value, combine_);
          };
          for (size_t i = lo; i < hi; ++i) map_(inputs[i], emit);
          for (size_t r = 0; r < num_red; ++r) {
            dir[r].reserve(acc[r].entries.size());
            for (auto& entry : acc[r].entries) {
              const size_t begin = buffers[r].size();
              buffers[r].append(acc[r].arena, entry.begin,
                                entry.end - entry.begin);
              const size_t end = buffers[r].size();
              codec_.encode_value(&buffers[r], entry.value);
              if (buffers[r].size() > UINT32_MAX) DieOnOversizedSpill();
              dir[r].push_back(RecordRef{entry.hash,
                                         static_cast<uint32_t>(m),
                                         static_cast<uint32_t>(begin),
                                         static_cast<uint32_t>(end),
                                         std::move(entry.value)});
              ++records;
            }
            acc[r] = ByteCombiner();  // Flushed; release before sealing.
            seal(r);
          }
        } else {
          EmitFn emit = [&](const K& key, const V& value) {
            size_t r = partition_(key) % num_red;
            const size_t begin = buffers[r].size();
            codec_.encode_key(&buffers[r], key);
            const size_t end = buffers[r].size();
            codec_.encode_value(&buffers[r], value);
            if (buffers[r].size() > UINT32_MAX) DieOnOversizedSpill();
            dir[r].push_back(RecordRef{
                FnvHashBytes(buffers[r].data() + begin, end - begin),
                static_cast<uint32_t>(m), static_cast<uint32_t>(begin),
                static_cast<uint32_t>(end), value});
            ++records;
          };
          for (size_t i = lo; i < hi; ++i) map_(inputs[i], emit);
          for (size_t r = 0; r < num_red; ++r) seal(r);
        }
        task_counters[m].map_output_records = records;
        map_end[m] = job_clock.ElapsedMs();
        result->map_task_ms[m] = map_end[m] - map_start[m];
      });
    }
    pool->Wait();
    const double total_ms = job_clock.ElapsedMs();
    for (const JobCounters& c : task_counters) result->counters.Merge(c);
    for (uint64_t c : group_counts) result->counters.reduce_input_groups += c;

    // Phase attribution without barriers — the three numbers still sum to
    // the job's true wall clock: map = the map barrier (last map task
    // end), shuffle = how far past that barrier the last partition
    // finished grouping (0 when all grouping overlapped the map tail),
    // reduce = everything after. The per-partition timeline plus
    // phase_overlap_ms carry the detail a single number cannot.
    double barrier = 0;
    for (double e : map_end) barrier = std::max(barrier, e);
    double last_grouped = barrier;
    for (const PartitionTimeline& p : timeline) {
      last_grouped = std::max(last_grouped, p.grouped_ms);
    }
    result->times.map_ms = barrier;
    result->times.shuffle_ms = last_grouped - barrier;
    result->times.reduce_ms = total_ms - last_grouped;
    result->pipelined = true;
    result->map_barrier_ms = barrier;
    result->phase_overlap_ms = PhaseOverlapMs(map_start, map_end, timeline);
    result->map_task_start_ms = std::move(map_start);
    result->partition_timeline = std::move(timeline);
  }

  // MSD radix sort of `n` RecordRefs on the 64-bit key hash, one
  // big-endian byte per level (`shift` starts at 56): stable counting
  // scatter into `scratch`, recursing per bucket, with a comparison sort
  // on ranges below the cutoff or once all hash bytes are consumed. The
  // fallback comparator is the full (hash, key bytes, map task, spill
  // offset) order and the scatter is stable, so the result is the exact
  // total order the former whole-range std::sort produced: equal keys
  // adjacent (all grouping needs) and a group's values still streaming in
  // ascending (map task, offset) order. What drops is the work — O(n)
  // byte-scatter passes over well-distributed hash prefixes instead of
  // O(n log n) comparisons that re-touch the key bytes.
  static void RadixSortRefs(RecordRef* recs, RecordRef* scratch, size_t n,
                            int shift,
                            const std::vector<std::vector<std::string>>& spill,
                            size_t r) {
    constexpr size_t kCutoff = 48;
    if (n < 2) return;
    if (n <= kCutoff || shift < 0) {
      std::sort(recs, recs + n, [&](const RecordRef& a, const RecordRef& b) {
        if (a.hash != b.hash) return a.hash < b.hash;
        const int cmp = SliceCompare(spill, r, a, b);
        if (cmp != 0) return cmp < 0;
        // Equal keys: (map task, spill offset) tie-break so the values of
        // a group stream in the legacy path's ascending-map-task order
        // despite the unstable sort.
        if (a.map_task != b.map_task) return a.map_task < b.map_task;
        return a.begin < b.begin;
      });
      return;
    }
    size_t counts[256] = {0};
    for (size_t i = 0; i < n; ++i) {
      ++counts[(recs[i].hash >> shift) & 0xff];
    }
    const size_t first_bucket = (recs[0].hash >> shift) & 0xff;
    if (counts[first_bucket] == n) {  // One bucket: nothing to scatter.
      RadixSortRefs(recs, scratch, n, shift - 8, spill, r);
      return;
    }
    size_t offsets[256];
    size_t sum = 0;
    for (size_t b = 0; b < 256; ++b) {
      offsets[b] = sum;
      sum += counts[b];
    }
    for (size_t i = 0; i < n; ++i) {
      scratch[offsets[(recs[i].hash >> shift) & 0xff]++] =
          std::move(recs[i]);
    }
    for (size_t i = 0; i < n; ++i) recs[i] = std::move(scratch[i]);
    size_t begin = 0;
    for (size_t b = 0; b < 256; ++b) {
      RadixSortRefs(recs + begin, scratch + begin, counts[b], shift - 8,
                    spill, r);
      begin += counts[b];
    }
  }

  [[noreturn]] static void DieOnCorruptSpill() {
    std::fprintf(stderr,
                 "MapReduceJob: spill codec failed to decode its own buffer "
                 "(encode/decode mismatch)\n");
    std::abort();
  }

  [[noreturn]] static void DieOnOversizedSpill() {
    std::fprintf(stderr,
                 "MapReduceJob: a single (map task, reduce partition) spill "
                 "buffer exceeds 4 GiB; raise num_map_tasks/num_reduce_tasks\n");
    std::abort();
  }

  // Three-way lexicographic comparison of two encoded key slices.
  static int SliceCompare(const std::vector<std::vector<std::string>>& spill,
                          size_t r, const RecordRef& a, const RecordRef& b) {
    const char* pa = spill[a.map_task][r].data() + a.begin;
    const char* pb = spill[b.map_task][r].data() + b.begin;
    const size_t la = a.end - a.begin;
    const size_t lb = b.end - b.begin;
    const int cmp = std::memcmp(pa, pb, std::min(la, lb));
    if (cmp != 0) return cmp;
    return la < lb ? -1 : (la > lb ? 1 : 0);
  }

  static bool SliceEqual(const std::vector<std::vector<std::string>>& spill,
                         size_t r, const RecordRef& a, const RecordRef& b) {
    const size_t la = a.end - a.begin;
    if (la != b.end - b.begin) return false;
    return std::memcmp(spill[a.map_task][r].data() + a.begin,
                       spill[b.map_task][r].data() + b.begin, la) == 0;
  }

  // ---- Legacy path (before-baseline of bench_shuffle; do not optimize) ---

  template <typename Corpus>
  void RunLegacy(const Corpus& inputs, size_t num_map, size_t num_red,
                 ThreadPool* pool, JobResult* result) {
    // spill[m][r] = pairs emitted by map task m for reduce partition r.
    std::vector<std::vector<std::vector<std::pair<K, V>>>> spill(
        num_map, std::vector<std::vector<std::pair<K, V>>>(num_red));
    std::vector<JobCounters> task_counters(num_map);
    Stopwatch phase;

    // ---- Map phase ----
    for (size_t m = 0; m < num_map; ++m) {
      pool->Submit([&, m] {
        Stopwatch task_clock;
        const size_t lo = inputs.size() * m / num_map;
        const size_t hi = inputs.size() * (m + 1) / num_map;
        if (combine_) {
          // Combine inside the map task: per-partition hash maps.
          std::vector<std::unordered_map<K, V, KHash>> acc(num_red);
          EmitFn emit = [&](const K& key, const V& value) {
            size_t r = partition_(key) % num_red;
            auto [it, inserted] = acc[r].try_emplace(key);
            if (inserted) {
              it->second = value;
            } else {
              combine_(&it->second, V(value));
            }
          };
          for (size_t i = lo; i < hi; ++i) map_(inputs[i], emit);
          for (size_t r = 0; r < num_red; ++r) {
            spill[m][r].reserve(acc[r].size());
            for (auto& [key, value] : acc[r]) {
              task_counters[m].map_output_bytes += byte_size_(key, value);
              ++task_counters[m].map_output_records;
              spill[m][r].emplace_back(key, std::move(value));
            }
          }
        } else {
          EmitFn emit = [&](const K& key, const V& value) {
            size_t r = partition_(key) % num_red;
            task_counters[m].map_output_bytes += byte_size_(key, value);
            ++task_counters[m].map_output_records;
            spill[m][r].emplace_back(key, value);
          };
          for (size_t i = lo; i < hi; ++i) map_(inputs[i], emit);
        }
        result->map_task_ms[m] = task_clock.ElapsedMs();
      });
    }
    pool->Wait();
    result->times.map_ms = phase.ElapsedMs();
    for (const JobCounters& c : task_counters) result->counters.Merge(c);

    // ---- Shuffle phase: group values by key per reduce partition. ----
    phase.Restart();
    std::vector<std::unordered_map<K, std::vector<V>, KHash>> groups(num_red);
    for (size_t r = 0; r < num_red; ++r) {
      pool->Submit([&, r] {
        size_t total = 0;
        for (size_t m = 0; m < num_map; ++m) total += spill[m][r].size();
        groups[r].reserve(total);
        for (size_t m = 0; m < num_map; ++m) {
          for (auto& [key, value] : spill[m][r]) {
            groups[r][std::move(key)].push_back(std::move(value));
          }
          spill[m][r].clear();
          spill[m][r].shrink_to_fit();
        }
      });
    }
    pool->Wait();
    result->times.shuffle_ms = phase.ElapsedMs();

    // ---- Reduce phase ----
    phase.Restart();
    std::vector<uint64_t> group_counts(num_red, 0);
    for (size_t r = 0; r < num_red; ++r) {
      pool->Submit([&, r] {
        Stopwatch task_clock;
        group_counts[r] = groups[r].size();
        for (auto& [key, values] : groups[r]) {
          reduce_(r, key, values);
        }
        if (reduce_finish_) reduce_finish_(r, pool);
        result->reduce_task_ms[r] = task_clock.ElapsedMs();
      });
    }
    pool->Wait();
    result->times.reduce_ms = phase.ElapsedMs();
    for (uint64_t c : group_counts) result->counters.reduce_input_groups += c;
  }

  MapFn map_;
  CombineFn combine_;
  ReduceFn reduce_;
  ByteSizeFn byte_size_;
  PartitionFn partition_;
  ReduceFinishFn reduce_finish_;
  SpillCodec codec_;
};

}  // namespace lash

#endif  // LASH_MAPREDUCE_JOB_H_
