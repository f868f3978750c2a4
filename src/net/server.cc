#include "net/server.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace lash::net {

/// Identity of one pending reply: which connection (by loop-assigned id, so
/// fd reuse can never alias), which request serial on it.
struct Reply::Target {
  std::weak_ptr<NetServer::Core> core;
  uint64_t conn_id = 0;
  uint64_t serial = 0;
  std::atomic<bool> sent{false};
};

struct NetServer::Core {
  ServerOptions options;
  Backend* backend = nullptr;
  ListenSocket listener;
  UniqueFd epoll;
  UniqueFd wake;
  std::atomic<bool> stop{false};

  struct Conn {
    UniqueFd fd;
    std::string rbuf;
    std::string wbuf;
    /// Serial stamped on the next incoming frame (loop thread only).
    uint64_t next_serial = 0;
    /// Serial whose reply is flushed next — replies complete out of order
    /// but leave in request order.
    uint64_t next_flush = 0;
    /// Dispatched frames whose Reply has not fired yet (guarded by mu).
    uint64_t inflight = 0;
    /// Completed replies waiting for their serial's turn (guarded by mu).
    std::map<uint64_t, std::string> ready;
    bool want_write = false;
  };

  /// Guards `conns` membership and every Conn's ready/inflight. The loop
  /// never holds it across a Backend::Handle call or a syscall.
  std::mutex mu;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  uint64_t next_conn_id = 2;  // 0 = listener, 1 = wake eventfd.

  /// net.server.* instruments; all null when ServerOptions::metrics was.
  /// Updated only on the event-loop thread.
  struct Instruments {
    obs::Gauge* connections = nullptr;
    obs::Counter* accepted = nullptr;
    obs::Counter* frames_in = nullptr;
    obs::Counter* frames_out = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* conn_errors = nullptr;
  } inst;

  void WakeLoop() {
#ifdef __linux__
    if (wake.valid()) {
      const uint64_t one = 1;
      // write() is async-signal-safe — Shutdown() may run in a handler.
      [[maybe_unused]] ssize_t n = ::write(wake.get(), &one, sizeof(one));
    }
#endif
  }
};

void Reply::Send(std::string payload) const {
  if (!target_) return;
  if (target_->sent.exchange(true)) return;
  std::shared_ptr<NetServer::Core> core = target_->core.lock();
  if (!core) return;
  {
    std::lock_guard<std::mutex> lock(core->mu);
    auto it = core->conns.find(target_->conn_id);
    if (it != core->conns.end()) {
      it->second->ready.emplace(target_->serial, std::move(payload));
      --it->second->inflight;
    }
  }
  core->WakeLoop();
}

#ifdef __linux__

namespace {

constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

void EpollAdd(int epoll_fd, int fd, uint64_t tag, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw SocketError(std::string("epoll_ctl add: ") + std::strerror(errno));
  }
}

void EpollMod(int epoll_fd, int fd, uint64_t tag, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
}

void EpollDel(int epoll_fd, int fd) {
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
}

/// The event loop, operating on a shared Core. Free-standing so Reply
/// construction can capture the shared_ptr.
class Loop {
 public:
  explicit Loop(std::shared_ptr<NetServer::Core> core)
      : core_(std::move(core)) {}

  void Run() {
    bool listener_open = true;
    while (true) {
      const bool draining = core_->stop.load(std::memory_order_acquire);
      if (draining) {
        if (listener_open) {
          EpollDel(core_->epoll.get(), core_->listener.fd.get());
          core_->listener.fd.Reset();
          listener_open = false;
        }
        CloseIdleConns();
        if (Drained()) return;
      }

      epoll_event events[64];
      const int n =
          ::epoll_wait(core_->epoll.get(), events, 64, draining ? 20 : 200);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw SocketError(std::string("epoll_wait: ") + std::strerror(errno));
      }
      for (int i = 0; i < n; ++i) {
        const uint64_t tag = events[i].data.u64;
        if (tag == kListenerTag) {
          Accept();
        } else if (tag == kWakeTag) {
          uint64_t drain_count = 0;
          [[maybe_unused]] ssize_t r = ::read(core_->wake.get(), &drain_count,
                                              sizeof(drain_count));
        } else {
          HandleConnEvent(tag, events[i].events);
        }
      }
      FlushReady();
    }
  }

 private:
  NetServer::Core::Conn* FindConn(uint64_t id) {
    std::lock_guard<std::mutex> lock(core_->mu);
    auto it = core_->conns.find(id);
    return it == core_->conns.end() ? nullptr : it->second.get();
  }

  void Accept() {
    while (true) {
      const int fd = ::accept(core_->listener.fd.get(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;  // Transient accept failure; the listener stays armed.
      }
      UniqueFd conn_fd(fd);
      if (core_->stop.load(std::memory_order_acquire)) continue;  // Drain.
      try {
        SetNonBlocking(fd);
      } catch (const SocketError&) {
        continue;
      }
      SetNoDelay(fd);
      auto conn = std::make_unique<NetServer::Core::Conn>();
      conn->fd = std::move(conn_fd);
      const uint64_t id = core_->next_conn_id++;
      EpollAdd(core_->epoll.get(), conn->fd.get(), id, EPOLLIN);
      if (core_->inst.accepted != nullptr) {
        core_->inst.accepted->Add();
        core_->inst.connections->Add(1);
      }
      std::lock_guard<std::mutex> lock(core_->mu);
      core_->conns.emplace(id, std::move(conn));
    }
  }

  void CloseConn(uint64_t id) {
    std::unique_ptr<NetServer::Core::Conn> conn;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      auto it = core_->conns.find(id);
      if (it == core_->conns.end()) return;
      conn = std::move(it->second);
      core_->conns.erase(it);
    }
    if (core_->inst.connections != nullptr) core_->inst.connections->Sub(1);
    EpollDel(core_->epoll.get(), conn->fd.get());
    // conn (and its fd) destroyed here; any late Reply::Send for this
    // connection finds no entry and becomes a no-op.
  }

  void HandleConnEvent(uint64_t id, uint32_t events) {
    NetServer::Core::Conn* conn = FindConn(id);
    if (conn == nullptr) return;  // Closed earlier in this batch.
    if (events & (EPOLLHUP | EPOLLERR)) {
      CloseConn(id);
      return;
    }
    if (events & EPOLLOUT) {
      if (!TrySend(id, conn)) return;
    }
    if (events & EPOLLIN) Readable(id, conn);
  }

  void Readable(uint64_t id, NetServer::Core::Conn* conn) {
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
      if (n > 0) {
        conn->rbuf.append(buf, static_cast<size_t>(n));
        if (core_->inst.bytes_in != nullptr) {
          core_->inst.bytes_in->Add(static_cast<uint64_t>(n));
        }
        continue;
      }
      if (n == 0) {  // Peer closed; outstanding replies have nowhere to go.
        CloseConn(id);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      if (core_->inst.conn_errors != nullptr) core_->inst.conn_errors->Add();
      CloseConn(id);
      return;
    }
    // During a drain, buffered bytes stay buffered: no new work starts.
    if (core_->stop.load(std::memory_order_acquire)) return;
    try {
      std::string payload;
      while (TryExtractFrame(&conn->rbuf, &payload) == FrameStatus::kFrame) {
        if (core_->inst.frames_in != nullptr) core_->inst.frames_in->Add();
        auto target = std::make_shared<Reply::Target>();
        target->core = core_;
        target->conn_id = id;
        target->serial = conn->next_serial++;
        Reply reply(std::move(target));
        {
          std::lock_guard<std::mutex> lock(core_->mu);
          ++conn->inflight;
        }
        core_->backend->Handle(payload, reply);
      }
    } catch (...) {
      // A frame this server cannot parse (or a backend that rejected it
      // structurally): the only safe protocol state is a closed
      // connection. Every other connection keeps being served.
      if (core_->inst.protocol_errors != nullptr) {
        core_->inst.protocol_errors->Add();
      }
      CloseConn(id);
    }
  }

  /// Flushes as much of wbuf as the socket accepts. Returns false if the
  /// connection was closed.
  bool TrySend(uint64_t id, NetServer::Core::Conn* conn) {
    size_t sent = 0;
    while (sent < conn->wbuf.size()) {
      const ssize_t n =
          ::send(conn->fd.get(), conn->wbuf.data() + sent,
                 conn->wbuf.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      if (core_->inst.conn_errors != nullptr) core_->inst.conn_errors->Add();
      CloseConn(id);
      return false;
    }
    if (core_->inst.bytes_out != nullptr && sent > 0) {
      core_->inst.bytes_out->Add(sent);
    }
    conn->wbuf.erase(0, sent);
    const bool want_write = !conn->wbuf.empty();
    if (want_write != conn->want_write) {
      conn->want_write = want_write;
      EpollMod(core_->epoll.get(), conn->fd.get(), id,
               want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
    }
    return true;
  }

  /// Moves completed replies (in per-connection serial order) into write
  /// buffers and pushes them to the sockets.
  void FlushReady() {
    std::vector<uint64_t> to_flush;
    std::vector<uint64_t> to_close;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      for (auto& [id, conn] : core_->conns) {
        bool moved = false;
        auto it = conn->ready.begin();
        while (it != conn->ready.end() && it->first == conn->next_flush) {
          if (it->second.size() > kMaxFramePayloadBytes) {
            // A reply this protocol cannot frame; the connection cannot
            // stay in sync past a hole in the serial sequence.
            to_close.push_back(id);
            break;
          }
          AppendFrame(&conn->wbuf, it->second);
          if (core_->inst.frames_out != nullptr) {
            core_->inst.frames_out->Add();
          }
          it = conn->ready.erase(it);
          ++conn->next_flush;
          moved = true;
        }
        if (moved) to_flush.push_back(id);
      }
    }
    for (uint64_t id : to_close) CloseConn(id);
    for (uint64_t id : to_flush) {
      NetServer::Core::Conn* conn = FindConn(id);
      if (conn != nullptr) TrySend(id, conn);
    }
  }

  void CloseIdleConns() {
    FlushReady();
    std::vector<uint64_t> idle;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      for (auto& [id, conn] : core_->conns) {
        if (conn->inflight == 0 && conn->ready.empty() && conn->wbuf.empty()) {
          idle.push_back(id);
        }
      }
    }
    for (uint64_t id : idle) CloseConn(id);
  }

  bool Drained() {
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      if (!core_->conns.empty()) return false;
    }
    return core_->backend->InFlight() == 0;
  }

  std::shared_ptr<NetServer::Core> core_;
};

}  // namespace

NetServer::NetServer(ServerOptions options, Backend* backend)
    : core_(std::make_shared<Core>()) {
  core_->options = std::move(options);
  core_->backend = backend;
  core_->listener = ListenTcp(core_->options.bind_address,
                              core_->options.port);
  core_->epoll = UniqueFd(::epoll_create1(0));
  if (!core_->epoll.valid()) {
    throw SocketError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  core_->wake = UniqueFd(::eventfd(0, EFD_NONBLOCK));
  if (!core_->wake.valid()) {
    throw SocketError(std::string("eventfd: ") + std::strerror(errno));
  }
  EpollAdd(core_->epoll.get(), core_->listener.fd.get(), kListenerTag,
           EPOLLIN);
  EpollAdd(core_->epoll.get(), core_->wake.get(), kWakeTag, EPOLLIN);
  if (core_->options.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *core_->options.metrics;
    core_->inst.connections = metrics.GetGauge("net.server.connections");
    core_->inst.accepted = metrics.GetCounter("net.server.accepted");
    core_->inst.frames_in = metrics.GetCounter("net.server.frames_in");
    core_->inst.frames_out = metrics.GetCounter("net.server.frames_out");
    core_->inst.bytes_in = metrics.GetCounter("net.server.bytes_in");
    core_->inst.bytes_out = metrics.GetCounter("net.server.bytes_out");
    core_->inst.protocol_errors =
        metrics.GetCounter("net.server.protocol_errors");
    core_->inst.conn_errors = metrics.GetCounter("net.server.conn_errors");
  }
}

NetServer::~NetServer() = default;

uint16_t NetServer::port() const { return core_->listener.bound_port; }

void NetServer::Run() { Loop(core_).Run(); }

void NetServer::Shutdown() {
  core_->stop.store(true, std::memory_order_release);
  core_->WakeLoop();
}

#else  // !__linux__

NetServer::NetServer(ServerOptions, Backend*) {
  throw SocketError("NetServer requires Linux (epoll)");
}

NetServer::~NetServer() = default;

uint16_t NetServer::port() const { return 0; }

void NetServer::Run() {}

void NetServer::Shutdown() {}

#endif  // __linux__

}  // namespace lash::net
