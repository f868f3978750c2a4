#ifndef PERFBENCH_CLUSTER_H_
#define PERFBENCH_CLUSTER_H_

// The lash_served processes of one workload: spawned on ephemeral ports,
// polled until each is bound and answers, observed through /proc, and
// drained with SIGTERM at the end. Every child dies with the benchmark
// (PR_SET_PDEATHSIG) and is killed by the destructor on any abort path.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/client.h"

namespace perfbench {

/// One spawned lash_served.
struct ServerProcess {
  pid_t pid = -1;
  uint16_t port = 0;
  std::string log_path;   ///< Its stderr.
  std::string port_path;  ///< Its --port-file.
};

/// What a cluster runs: `shard_snapshots.size()` workers, one snapshot
/// each, and a router in front of them when `router` is set.
struct ClusterSpec {
  std::string served_binary;
  std::string work_dir;  ///< Port files and logs go here.
  std::vector<std::string> shard_snapshots;
  bool router = false;
};

class Cluster {
 public:
  /// Spawns every process and returns once each is bound and has answered
  /// a metrics request. Throws std::runtime_error (after killing whatever
  /// it spawned) when a process exits or stays silent for 60 s.
  explicit Cluster(const ClusterSpec& spec);
  /// Kills (SIGKILL) and reaps every process still running.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// The address clients send queries to: the router, or the only worker.
  uint16_t front_port() const;
  const std::vector<ServerProcess>& workers() const { return workers_; }
  /// Workers first, then the router if any.
  std::vector<const ServerProcess*> all() const;

  /// utime+stime ticks of every process, in all() order.
  std::vector<int64_t> CpuTicks() const;
  /// Summed VmHWM of every process, in MiB.
  double PeakRssMb() const;

  /// Sends SIGTERM to every process (router first, so no query is cut off
  /// behind it), waits for each to exit, and returns true iff every one
  /// exited 0 with the "drained, exiting" epilogue on its stderr.
  bool Drain();

 private:
  ServerProcess Spawn(const std::vector<std::string>& args,
                      const std::string& name);
  void WaitReady(ServerProcess* process);

  ClusterSpec spec_;
  std::vector<ServerProcess> workers_;
  ServerProcess router_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLUSTER_H_
