#include "loadgen.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "util/rng.h"

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> JitteredArrivals(uint64_t seed, size_t count, double seconds) {
  lash::Rng rng(seed);
  std::vector<double> due(count);
  const double slot = seconds * 1000.0 / static_cast<double>(count);
  for (size_t i = 0; i < count; ++i) {
    due[i] = (static_cast<double>(i) + rng.NextDouble()) * slot;
  }
  return due;
}

std::vector<RequestTiming> RunLane(
    const std::vector<double>& due_ms, size_t connections, double origin_ms,
    const std::function<bool(size_t connection, size_t index)>& send,
    const std::function<bool(size_t connection, size_t index)>& check) {
  std::vector<RequestTiming> timings(due_ms.size());
  std::atomic<size_t> next{0};
  auto connection_loop = [&](size_t connection) {
    for (size_t i = next.fetch_add(1); i < due_ms.size(); i = next.fetch_add(1)) {
      RequestTiming& t = timings[i];
      t.due_ms = due_ms[i];
      // Sleep until just before the due time, then spin: a sleeping
      // thread wakes up to ~0.1 ms late, which is a sizeable and noisy part
      // of a sub-millisecond hit's due-time latency.
      constexpr double kSpinMs = 0.3;
      const double due = origin_ms + t.due_ms;
      const double wait = due - NowMs();
      if (wait > kSpinMs) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(wait - kSpinMs));
      }
      while (NowMs() < due) {
      }
      t.sent_ms = NowMs() - origin_ms;
      const bool answered = send(connection, i);
      t.done_ms = NowMs() - origin_ms;
      t.ok = answered && check(connection, i);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < connections; ++c) threads.emplace_back(connection_loop, c);
  connection_loop(0);
  for (std::thread& thread : threads) thread.join();
  return timings;
}

}  // namespace perfbench
