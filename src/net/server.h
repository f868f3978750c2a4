#ifndef LASH_NET_SERVER_H_
#define LASH_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace lash::net {

/// A one-shot handle for answering one request frame. Thread-safe and
/// detachable: the backend may call Send from any thread, at any later time
/// (the epoll loop wakes itself up and flushes), and a Send that arrives
/// after the connection or the server died is a silent no-op — the reply
/// simply has nowhere to go, exactly like a TCP peer that hung up.
///
/// Replies are delivered *in request order per connection* regardless of
/// completion order: the server stamps each incoming frame with a serial
/// and buffers out-of-order completions until their turn.
class Reply {
 public:
  /// Defined in server.cc; incomplete everywhere else, so only the server
  /// can mint live replies.
  struct Target;

  Reply() = default;
  explicit Reply(std::shared_ptr<Target> target)
      : target_(std::move(target)) {}

  /// Queues `payload` (one wire payload, framed by the server) as the
  /// answer to the request this Reply was created for. Only the first call
  /// has an effect.
  void Send(std::string payload) const;

 private:
  std::shared_ptr<Target> target_;
};

/// What a NetServer serves. Handle() runs on the event-loop thread and must
/// not block: hand long work to an executor (the mining service already is
/// one; support counting goes to the worker backend's own counting pool)
/// and answer through the Reply when done. Throwing IoError (or
/// anything else) out of Handle closes that connection — the peer sent a
/// frame this backend cannot parse, and the only safe protocol state is
/// "gone" — while every other connection keeps being served.
class Backend {
 public:
  virtual ~Backend() = default;

  /// `payload` is one complete frame payload; the view is valid only for
  /// the duration of the call.
  virtual void Handle(std::string_view payload, Reply reply) = 0;

  /// Polled during graceful shutdown: the server exits once the listener
  /// is closed, all connections have drained, and this returns 0.
  virtual size_t InFlight() const { return 0; }
};

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = kernel-assigned ephemeral port.
  /// Registry for the net.server.* instruments: live connection count,
  /// accepted connections, frames/bytes in and out, protocol errors
  /// (malformed frames — each closes its connection) and per-connection
  /// I/O errors. Null (default) records nothing. All updates happen on the
  /// event-loop thread.
  obs::MetricsRegistry* metrics = nullptr;
};

/// A single-threaded epoll event-loop TCP server speaking the framed wire
/// protocol (net/wire.h): non-blocking sockets, one read and one write
/// buffer per connection, frames dispatched to the backend as they
/// complete. Linux-only (construction throws elsewhere).
///
/// Shutdown contract: Shutdown() is async-signal-safe (an atomic flag plus
/// an eventfd write), so a SIGTERM handler may call it directly. The loop
/// then *drains gracefully*: the listener closes (no new connections),
/// idle connections close, in-flight requests finish and their replies are
/// flushed, then Run() returns.
class NetServer {
 public:
  /// Binds and listens immediately — port() is valid (and the port
  /// occupied) as soon as the constructor returns, before Run().
  NetServer(ServerOptions options, Backend* backend);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (resolves an ephemeral-port request).
  uint16_t port() const;

  /// Runs the event loop on the calling thread until Shutdown().
  void Run();

  /// Requests a graceful drain; safe from signal handlers and any thread.
  void Shutdown();

  /// Shared state between the public handle, the event loop, and live
  /// Replies. Defined in server.cc.
  struct Core;

 private:
  std::shared_ptr<Core> core_;
};

}  // namespace lash::net

#endif  // LASH_NET_SERVER_H_
