#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Open-loop load generation: a seeded arrival schedule per lane, and a lane
// runner that sends each request at its due time over a fixed number of
// connections and times it from that due time, so a stalled sender shows up
// as latency instead of as missing load (coordinated omission).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// `count` arrival times in [0, seconds*1000) ms, sorted: the window is
/// cut into `count` equal slots and each arrival falls uniformly at random
/// in its own slot. The rate is fixed and the gaps are random, but unlike
/// Poisson arrivals no seed can pile a burst of requests into one stretch
/// of the window, which made the cold latency percentiles of a 30 s run
/// swing with the seed.
std::vector<double> JitteredArrivals(uint64_t seed, size_t count, double seconds);

/// Timing of one request of a lane, in ms since the lane's time origin.
struct RequestTiming {
  double due_ms = 0;   ///< When the schedule says it is sent.
  double sent_ms = 0;  ///< When a connection was free and it went out.
  double done_ms = 0;  ///< When the last reply byte was read.
  bool ok = false;     ///< Answered, and the answer checked out.

  /// What the user waited: from the due time, not the send time.
  double LatencyMs() const { return done_ms - due_ms; }
  /// How late the generator sent.
  double LagMs() const { return sent_ms - due_ms; }
};

/// Sends request i of `due_ms` (sorted) at its due time, over
/// `connections` threads that each hold one connection and take the next
/// due request when free. `send(connection, i)` performs request i on that
/// connection and returns whether it was answered; `check(connection, i)`
/// then verifies the answer outside the timed interval. Neither may throw.
/// `origin_ms` is the steady-clock time (NowMs) the schedule is relative
/// to. Returns one timing per request.
std::vector<RequestTiming> RunLane(
    const std::vector<double>& due_ms, size_t connections, double origin_ms,
    const std::function<bool(size_t connection, size_t index)>& send,
    const std::function<bool(size_t connection, size_t index)>& check);

/// Steady-clock milliseconds.
double NowMs();

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
