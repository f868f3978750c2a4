#include "net/client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "io/io_error.h"

#ifdef __unix__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace lash::net {

using serve::ServeError;
using serve::ServeErrorCode;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WorkerAddress ParseWorkerAddress(const std::string& address) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    throw ServeError(ServeErrorCode::kInvalidTask,
                     "worker address must be host:port, got \"" + address +
                         "\"");
  }
  WorkerAddress worker;
  worker.host = address.substr(0, colon);
  int port = 0;
  for (size_t i = colon + 1; i < address.size(); ++i) {
    const char c = address[i];
    if (c < '0' || c > '9' || (port = port * 10 + (c - '0')) > 65535) {
      throw ServeError(ServeErrorCode::kInvalidTask,
                       "invalid port in worker address \"" + address + "\"");
    }
  }
  if (port == 0) {
    throw ServeError(ServeErrorCode::kInvalidTask,
                     "invalid port in worker address \"" + address + "\"");
  }
  worker.port = static_cast<uint16_t>(port);
  return worker;
}

#ifdef __unix__

NetClient::NetClient(std::string host, uint16_t port, ClientOptions options)
    : host_(std::move(host)), port_(port), options_(options) {}

NetClient::~NetClient() = default;

void NetClient::Disconnect() {
  fd_.Reset();
  rbuf_.clear();
}

void NetClient::EnsureConnected() {
  if (fd_.valid()) return;
  std::string last_error = "no attempt made";
  const int attempts = 1 + (options_.connect_retries > 0
                                ? options_.connect_retries
                                : 0);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options_.retry_backoff_ms << (attempt - 1)));
    }
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    try {
      SetNonBlocking(fd.get());
    } catch (const SocketError& e) {
      last_error = e.what();
      continue;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      throw ServeError(ServeErrorCode::kInvalidTask,
                       "invalid worker host \"" + host_ + "\"");
    }
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      last_error = std::string("connect: ") + std::strerror(errno);
      continue;
    }
    pollfd pfd{fd.get(), POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, options_.connect_timeout_ms);
    if (ready <= 0) {
      last_error = ready == 0 ? "connect timed out"
                              : std::string("poll: ") + std::strerror(errno);
      continue;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      last_error = std::string("connect: ") +
                   std::strerror(so_error != 0 ? so_error : errno);
      continue;
    }
    SetNoDelay(fd.get());
    fd_ = std::move(fd);
    rbuf_.clear();
    return;
  }
  throw ServeError(ServeErrorCode::kExecutionFailed,
                   "cannot connect to " + host_ + ":" +
                       std::to_string(port_) + " after " +
                       std::to_string(attempts) + " attempts (" + last_error +
                       ")");
}

void NetClient::WaitIo(short events) {
  while (true) {
    int timeout = -1;
    if (io_deadline_ms_ > 0) {
      const double remaining = io_deadline_ms_ - NowMs();
      if (remaining <= 0) {
        // The exchange is torn mid-frame; the connection cannot be reused.
        Disconnect();
        throw ServeError(ServeErrorCode::kDeadlineExceeded,
                         "request to " + host_ + ":" + std::to_string(port_) +
                             " timed out");
      }
      timeout = static_cast<int>(remaining) + 1;
    }
    pollfd pfd{fd_.get(), events, 0};
    const int ready = ::poll(&pfd, 1, timeout);
    if (ready > 0) return;
    if (ready < 0 && errno != EINTR) {
      Disconnect();
      throw ServeError(ServeErrorCode::kExecutionFailed,
                       std::string("poll: ") + std::strerror(errno));
    }
  }
}

void NetClient::SendAll(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_.get(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      WaitIo(POLLOUT);
      continue;
    }
    if (errno == EINTR) continue;
    Disconnect();
    throw ServeError(ServeErrorCode::kExecutionFailed,
                     "connection to " + host_ + ":" + std::to_string(port_) +
                         " lost while sending: " + std::strerror(errno));
  }
}

std::string NetClient::ReadFrame() {
  std::string payload;
  while (true) {
    try {
      if (TryExtractFrame(&rbuf_, &payload) == FrameStatus::kFrame) {
        return payload;
      }
    } catch (const IoError& e) {
      Disconnect();
      throw ServeError(ServeErrorCode::kExecutionFailed,
                       std::string("malformed response frame: ") + e.what());
    }
    WaitIo(POLLIN);
    char buf[65536];
    const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      rbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    Disconnect();
    throw ServeError(ServeErrorCode::kExecutionFailed,
                     "connection to " + host_ + ":" + std::to_string(port_) +
                         (n == 0 ? " closed by peer mid-exchange"
                                 : std::string(" lost while reading: ") +
                                       std::strerror(errno)));
  }
}

std::string NetClient::Exchange(const std::string& payload) {
  // A pooled connection can be stale (the server restarted or closed an
  // idle connection); a failure before any response byte arrives is safe
  // to retry once on a fresh connection. A timeout is not retried — the
  // budget is gone.
  const bool reused = fd_.valid();
  std::string frame;
  AppendFrame(&frame, payload);
  for (int attempt = 0;; ++attempt) {
    EnsureConnected();
    if (options_.io_timeout_ms > 0) {
      io_deadline_ms_ = NowMs() + options_.io_timeout_ms;
    } else {
      io_deadline_ms_ = 0;
    }
    try {
      SendAll(frame);
      return ReadFrame();
    } catch (const ServeError& e) {
      if (e.code() == ServeErrorCode::kExecutionFailed && reused &&
          attempt == 0 && rbuf_.empty()) {
        Disconnect();
        continue;
      }
      throw;
    }
  }
}

#else  // !__unix__

NetClient::NetClient(std::string host, uint16_t port, ClientOptions options)
    : host_(std::move(host)), port_(port), options_(options) {}

NetClient::~NetClient() = default;

void NetClient::Disconnect() {}

// Every RPC goes through Exchange, so the socket helpers are never called.
std::string NetClient::Exchange(const std::string&) {
  throw ServeError(ServeErrorCode::kExecutionFailed,
                   "lash::net requires a POSIX platform");
}

#endif  // __unix__

template <typename Response>
Response NetClient::Call(const std::string& request, MessageType expected,
                         Response (*decode)(std::string_view)) {
  const std::string payload = Exchange(request);
  try {
    const MessageType type = PeekMessageType(payload);
    if (type == MessageType::kErrorResponse) {
      const ErrorResponse error = DecodeErrorResponse(payload);
      throw ServeError(error.code, error.message);
    }
    if (type != expected) {
      throw ServeError(ServeErrorCode::kExecutionFailed,
                       "unexpected response message type " +
                           std::to_string(static_cast<unsigned>(type)));
    }
    return decode(payload);
  } catch (const IoError& e) {
    throw ServeError(ServeErrorCode::kExecutionFailed,
                     std::string("malformed response: ") + e.what());
  }
}

MineReply NetClient::Mine(const serve::TaskSpec& spec) {
  const double start_ms = NowMs();
  MineResponse response = Call(EncodeMineRequest(spec),
                               MessageType::kMineResponse, &DecodeMineResponse);
  MineReply reply;
  reply.run = std::move(response.run);
  reply.patterns = std::move(response.patterns);
  reply.cache_hit = response.cache_hit;
  reply.coalesced = response.coalesced;
  reply.server_ms = response.server_ms;
  reply.round_trip_ms = NowMs() - start_ms;
  return reply;
}

CountReply NetClient::Count(const CountRequest& request) {
  const double start_ms = NowMs();
  CountResponse response = Call(EncodeCountRequest(request),
                                MessageType::kCountResponse,
                                &DecodeCountResponse);
  CountReply reply;
  reply.supports = std::move(response.supports);
  reply.server_ms = response.server_ms;
  reply.round_trip_ms = NowMs() - start_ms;
  return reply;
}

serve::ServiceStats NetClient::Stats() {
  return Call(EncodeStatsRequest(), MessageType::kStatsResponse,
              &DecodeStatsResponse);
}

std::vector<obs::MetricSample> NetClient::Metrics() {
  return Call(EncodeMetricsRequest(), MessageType::kMetricsResponse,
              &DecodeMetricsResponse);
}

}  // namespace lash::net
