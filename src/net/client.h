#ifndef LASH_NET_CLIENT_H_
#define LASH_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "net/socket.h"
#include "net/wire.h"
#include "serve/mining_service.h"
#include "serve/task_spec.h"

namespace lash::net {

struct ClientOptions {
  /// Per-attempt TCP connect timeout.
  int connect_timeout_ms = 2000;
  /// Timeout for one full request/response exchange (0 = none). On expiry
  /// the connection is dropped (the reply cannot be resynchronized) and
  /// the call throws kDeadlineExceeded.
  int io_timeout_ms = 0;
  /// Extra connection attempts after the first fails (bounded retry).
  int connect_retries = 3;
  /// Backoff before retry k is `retry_backoff_ms << k` (exponential).
  int retry_backoff_ms = 50;
};

/// A successful remote mining answer.
struct MineReply {
  RunResult run;
  NamedPatternList patterns;  ///< Canonical wire order.
  bool cache_hit = false;
  bool coalesced = false;
  double server_ms = 0;      ///< Submit → resolve inside the remote service.
  double round_trip_ms = 0;  ///< Full client-observed wall clock.
};

/// A successful remote support-counting answer (phase 2 of the router's
/// two-phase protocol).
struct CountReply {
  std::vector<Frequency> supports;  ///< Index-aligned with the candidates.
  double server_ms = 0;             ///< Receipt → reply inside the worker.
  double round_trip_ms = 0;         ///< Full client-observed wall clock.
};

/// A thin blocking client for the framed wire protocol: one TCP connection,
/// lazily (re)established with bounded exponential-backoff retries, one
/// outstanding request at a time. Every failure a caller can observe is the
/// same typed serve::ServeError the in-process service throws:
///
///   * remote typed failures arrive as their original code (queue_full,
///     invalid_task, ...);
///   * a request/response timeout throws kDeadlineExceeded;
///   * connection refused/lost after retries, or a malformed response,
///     throws kExecutionFailed.
///
/// Not thread-safe; give each thread its own client (connections are
/// cheap, and the router does exactly that).
class NetClient {
 public:
  NetClient(std::string host, uint16_t port, ClientOptions options = {});
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Mines `spec` remotely and returns the decoded reply. The spec travels
  /// as one kMineRequest carrying its deadline (the server enforces it
  /// too), its shard-σ override and its trace context.
  MineReply Mine(const serve::TaskSpec& spec);

  /// Counts the exact supports of `request.candidates` on the remote shard
  /// (the kCountRequest RPC). Same typed-failure contract as Mine.
  CountReply Count(const CountRequest& request);

  /// Fetches the remote service's counters.
  serve::ServiceStats Stats();

  /// Fetches the remote process's full metrics snapshot (the
  /// kMetricsRequest RPC), sorted by metric name.
  std::vector<obs::MetricSample> Metrics();

  /// Drops the connection; the next call reconnects.
  void Disconnect();

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

 private:
  /// Ensures a live connection (connect + retries) and performs one framed
  /// request/response exchange. Throws ServeError.
  std::string Exchange(const std::string& payload);

  /// One RPC: exchanges `request`, rethrows an error response as its
  /// ServeError, and decodes a reply of type `expected` with `decode`. Any
  /// other reply type, or a reply that fails to decode, throws
  /// kExecutionFailed.
  template <typename Response>
  Response Call(const std::string& request, MessageType expected,
                Response (*decode)(std::string_view));

  void EnsureConnected();
  void SendAll(const std::string& bytes);
  std::string ReadFrame();
  /// Polls `fd_` for `events` within the call's remaining budget; throws
  /// kDeadlineExceeded on expiry.
  void WaitIo(short events);

  std::string host_;
  uint16_t port_;
  ClientOptions options_;
  UniqueFd fd_;
  std::string rbuf_;
  /// Absolute deadline of the in-progress exchange (0 = none), in
  /// steady-clock milliseconds.
  double io_deadline_ms_ = 0;
};

/// "host:port" of one worker, e.g. "127.0.0.1:7421".
struct WorkerAddress {
  std::string host;
  uint16_t port = 0;
};

/// Parses "host:port"; throws serve::ServeError(kInvalidTask) on garbage.
WorkerAddress ParseWorkerAddress(const std::string& address);

}  // namespace lash::net

#endif  // LASH_NET_CLIENT_H_
