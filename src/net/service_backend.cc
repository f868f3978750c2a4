#include "net/service_backend.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "io/io_error.h"
#include "obs/trace.h"
#include "serve/support_count.h"
#include "util/timer.h"

namespace lash::net {

namespace {

/// The fewest transactions worth a count block of their own: a block pays
/// a marker array over the shard's items and a support array over the
/// request's candidates.
constexpr size_t kMinCountBlock = 256;

}  // namespace

ServiceBackend::ServiceBackend(std::vector<const Dataset*> shards,
                               serve::ServiceOptions options)
    : shards_(std::move(shards)) {
  if (options.metrics != nullptr) {
    count_requests_ = options.metrics->GetCounter("serve.count.requests");
  }
  options.post_resolve_hook = [this] { DrainReady(); };
  service_ = std::make_unique<serve::MiningService>(shards_,
                                                    std::move(options));
  count_pool_ = std::make_unique<ThreadPool>(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
}

void ServiceBackend::Handle(std::string_view payload, Reply reply) {
  const MessageType type = PeekMessageType(payload);
  if (type == MessageType::kStatsRequest) {
    reply.Send(EncodeStatsResponse(service_->Stats()));
    return;
  }
  if (type == MessageType::kMetricsRequest) {
    reply.Send(EncodeMetricsResponse(service_->metrics().Snapshot()));
    return;
  }
  if (type == MessageType::kCountRequest) {
    CountRequest request = DecodeCountRequest(payload);
    if (request.shard >= shards_.size()) {
      reply.Send(EncodeErrorResponse(serve::ServeErrorCode::kInvalidTask,
                                     "count request names an unknown shard"));
      return;
    }
    if (count_requests_ != nullptr) count_requests_->Add();
    counts_inflight_.fetch_add(1, std::memory_order_relaxed);
    count_pool_->Submit(
        [this, request = std::move(request), reply = std::move(reply)] {
          RunCount(request, reply);
          counts_inflight_.fetch_sub(1, std::memory_order_relaxed);
        });
    return;
  }
  if (type != MessageType::kMineRequest) {
    // Responses (or anything else) arriving at a server are a protocol
    // violation; throwing makes the event loop close the connection.
    throw IoError(IoErrorKind::kMalformed, 0,
                  "server received a non-request message");
  }
  const serve::TaskSpec spec = DecodeMineRequest(payload);
  Pending pending{service_->Submit(spec), spec, std::move(reply)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.push_back(std::move(pending));
  }
  // Submit resolves synchronously for cache hits and validation failures,
  // firing the hook *before* the push above — this drain covers that race.
  DrainReady();
}

size_t ServiceBackend::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size() + counts_inflight_.load(std::memory_order_relaxed);
}

void ServiceBackend::RunCount(const CountRequest& request,
                              const Reply& reply) {
  try {
    Stopwatch watch;
    obs::Span span(&obs::Tracer::Global(), request.trace, "serve.count");
    span.Tag("candidates", static_cast<double>(request.candidates.size()));
    span.Tag("shard", static_cast<double>(request.shard));
    const serve::SupportCounter counter(
        *shards_[request.shard], request.candidates,
        serve::CountQuery{request.gamma, request.lambda, request.flat});
    // One pass over the shard, split into transaction blocks on the count
    // pool. Each block adds into its own support array (no shared writes);
    // the arrays are summed below. The deadline is checked between blocks.
    const size_t transactions = counter.num_transactions();
    const size_t blocks = std::clamp<size_t>(
        transactions / kMinCountBlock, 1, 2 * count_pool_->num_threads());
    std::vector<std::vector<Frequency>> block_supports(blocks);
    std::atomic<bool> expired{false};
    count_pool_->ParallelFor(blocks, [&](size_t b) {
      if (request.deadline_ms > 0 && watch.ElapsedMs() >= request.deadline_ms) {
        expired.store(true, std::memory_order_relaxed);
      }
      if (expired.load(std::memory_order_relaxed)) return;
      block_supports[b].assign(counter.num_candidates(), 0);
      counter.CountRange(transactions * b / blocks,
                         transactions * (b + 1) / blocks,
                         block_supports[b].data());
    });
    if (expired.load(std::memory_order_relaxed)) {
      span.Tag("outcome", "deadline_exceeded");
      span.End();
      reply.Send(EncodeErrorResponse(serve::ServeErrorCode::kDeadlineExceeded,
                                     "count deadline exceeded"));
      return;
    }
    CountResponse response;
    response.supports = std::move(block_supports[0]);
    for (size_t b = 1; b < blocks; ++b) {
      for (size_t c = 0; c < response.supports.size(); ++c) {
        response.supports[c] += block_supports[b][c];
      }
    }
    response.server_ms = watch.ElapsedMs();
    // The span covers the counting, not the send — and ending it before the
    // reply means a tracer collecting in-process has the span once the
    // client sees the answer.
    span.Tag("outcome", "ok");
    span.End();
    reply.Send(EncodeCountResponse(response));
  } catch (const std::exception& e) {
    // Vocabulary/decoding failures must not escape into the pool (which
    // would terminate the process); they become a typed wire error.
    reply.Send(EncodeErrorResponse(serve::ServeErrorCode::kExecutionFailed,
                                   e.what()));
  }
}

void ServiceBackend::DrainReady() {
  std::list<Pending> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (it->result.ready()) {
        done.splice(done.end(), inflight_, it++);
      } else {
        ++it;
      }
    }
  }
  for (Pending& pending : done) {
    pending.reply.Send(BuildReplyPayload(pending));
  }
}

std::string ServiceBackend::BuildReplyPayload(const Pending& pending) {
  if (!pending.result.ok()) {
    return EncodeErrorResponse(pending.result.error_code(),
                               pending.result.error_message());
  }
  try {
    const serve::Response& response = pending.result.Get();
    MineResponse out;
    out.run = response.run();
    out.cache_hit = response.cache_hit;
    out.coalesced = response.coalesced;
    out.server_ms = response.latency_ms;
    out.patterns = NamePatterns(*shards_[pending.spec.shard],
                                response.patterns(),
                                out.run.used_flat_hierarchy);
    return EncodeMineResponse(out);
  } catch (const std::exception& e) {
    // Serialization failures (e.g. a rank that no longer names) must not
    // escape into the resolving thread; they become a typed wire error.
    return EncodeErrorResponse(serve::ServeErrorCode::kExecutionFailed,
                               e.what());
  }
}

}  // namespace lash::net
