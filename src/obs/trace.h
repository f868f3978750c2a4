#ifndef LASH_OBS_TRACE_H_
#define LASH_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// The tracing half of the observability layer (ROADMAP "Observability").
///
/// A request is stamped with a 16-byte TraceId at the edge (a tool flag or a
/// network client); every stage it passes through — serve pipeline stages,
/// MapReduce phases, router scatter legs — opens a Span under that id, and
/// the spans of all participating processes merge into one tree by
/// (trace_id, span_id, parent_id). Context crosses the wire inside every
/// kMineRequest and kCountRequest (net/wire.h); inside a process it travels
/// on TaskSpec::trace plus a thread-local ambient context for layers (api/)
/// that a TaskSpec does not reach.
///
/// Spans are recorded only when both halves are on: the request carries an
/// active trace id AND the process's Tracer has somewhere to put spans (a
/// --trace-out JSONL file, or test-collection mode). An untraced request
/// through a tracing worker records nothing — tracing is strictly opt-in
/// per request, so its cost is zero on the default path.
///
/// JSONL schema (one span per line, append-only):
///   {"trace":"<32 hex>","span":"<16 hex>","parent":"<16 hex|``0``...>",
///    "name":"serve.mine","start_unix_ms":<double>,"dur_ms":<double>,
///    "tags":{"k":"v",...}}
/// `start_unix_ms` is a wall-clock anchor (system clock at span start);
/// `dur_ms` is measured on the steady clock, so durations never jump with
/// wall-clock adjustments.
namespace lash {

struct JobResult;

namespace obs {

/// 16 random bytes identifying one end-to-end request. All-zero = inactive
/// (the untraced state).
struct TraceId {
  std::array<uint8_t, 16> bytes{};

  bool active() const {
    for (const uint8_t b : bytes) {
      if (b != 0) return true;
    }
    return false;
  }
  bool operator==(const TraceId&) const = default;

  /// 32 lowercase hex chars.
  std::string Hex() const;

  /// Inverse of Hex(); anything but 32 hex chars yields an inactive id.
  static TraceId FromHex(std::string_view hex);

  /// A fresh id: process entropy mixed with a process-local counter, so
  /// concurrent Make() calls and separate processes never collide in
  /// practice.
  static TraceId Make();
};

/// What propagates between layers and across the wire: which trace, and
/// which span is the parent of whatever the receiver opens next.
struct TraceContext {
  TraceId trace_id;
  uint64_t parent_span = 0;

  bool active() const { return trace_id.active(); }
};

/// One finished span, as recorded.
struct SpanRecord {
  TraceId trace_id;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root of its process's subtree.
  std::string name;
  double start_unix_ms = 0;
  double dur_ms = 0;
  std::vector<std::pair<std::string, std::string>> tags;
};

/// Span sink: a JSONL file (--trace-out), an in-memory collection vector
/// (tests), or both. Record() and NewSpanId() are thread-safe.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  /// The process-wide tracer every component records into. (Unlike the
  /// metrics registry there is no per-component split: spans are already
  /// namespaced by trace id, so cross-component sharing is the point.)
  static Tracer& Global();

  /// Opens `path` for appending; every Record() also writes one JSONL
  /// line. Throws std::runtime_error when the file cannot be opened.
  void OpenFile(const std::string& path);
  void CloseFile();

  /// Test mode: Record() additionally retains spans in memory until
  /// TakeCollected() drains them. StopCollecting() turns the mode off.
  void StartCollecting();
  void StopCollecting();
  std::vector<SpanRecord> TakeCollected();

  /// Whether Record() currently goes anywhere. Span construction checks
  /// this once, so a disabled tracer costs one branch per would-be span.
  bool enabled() const;

  /// Process-unique nonzero span id (entropy-tagged counter — ids from
  /// different processes in one merged trace never collide in practice).
  uint64_t NewSpanId();

  void Record(SpanRecord record);

  /// Wall-clock now, in milliseconds since the Unix epoch.
  static double NowUnixMs();

 private:
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  bool collecting_ = false;
  std::vector<SpanRecord> collected_;
};

/// RAII span. Inactive (records nothing, costs one branch) unless the
/// parent context is active and the tracer is enabled at construction.
/// Move-only; End() records exactly once (the destructor calls it).
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, const TraceContext& parent, std::string name);
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  bool active() const { return tracer_ != nullptr; }

  /// Context for children of this span (inactive when the span is).
  TraceContext context() const;

  void Tag(std::string key, std::string value);
  void Tag(std::string key, double value);

  void End();

 private:
  Tracer* tracer_ = nullptr;
  SpanRecord record_;
  std::chrono::steady_clock::time_point start_{};
};

/// The calling thread's ambient trace context (inactive by default). Layers
/// beneath TaskSpec — the facade's MiningTask::Mine — read it to attach
/// their spans without any signature change.
TraceContext AmbientContext();

/// Installs `ctx` as the ambient context for the current scope, restoring
/// the previous one on destruction.
class ScopedAmbientContext {
 public:
  explicit ScopedAmbientContext(TraceContext ctx);
  ~ScopedAmbientContext();
  ScopedAmbientContext(const ScopedAmbientContext&) = delete;
  ScopedAmbientContext& operator=(const ScopedAmbientContext&) = delete;

 private:
  TraceContext prev_;
};

/// Exports a finished MapReduce job as spans under `parent`: one `mr.job`
/// span (tagged with pipelined / map_barrier_ms / phase_overlap_ms), one
/// `mr.map` span per map task, and `mr.partition.group` / the streaming
/// `mr.partition.reduce` span per reduce partition (pipelined runs only —
/// the legacy path records no per-partition timeline). JobResult stores
/// offsets relative to the job's start, so the caller anchors them with the
/// wall-clock instant the job (approximately) began — the enclosing mine
/// span's own start. No-op when `parent` is inactive or `tracer` disabled.
void ExportJobSpans(Tracer* tracer, const TraceContext& parent,
                    const JobResult& job, double anchor_unix_ms);

}  // namespace obs
}  // namespace lash

#endif  // LASH_OBS_TRACE_H_
