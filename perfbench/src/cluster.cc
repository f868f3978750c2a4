#include "cluster.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "loadgen.h"
#include "stats.h"

namespace perfbench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Reaps `pid` within `timeout_ms`; returns its wait status, or -1 if it
/// is still running at the deadline.
int WaitExit(pid_t pid, double timeout_ms) {
  const double deadline = NowMs() + timeout_ms;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0) return -1;
    if (NowMs() > deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void KillAndReap(ServerProcess* process) {
  if (process->pid <= 0) return;
  ::kill(process->pid, SIGKILL);
  int status = 0;
  ::waitpid(process->pid, &status, 0);
  process->pid = -1;
}

}  // namespace

Cluster::Cluster(const ClusterSpec& spec) : spec_(spec) {
  try {
    // Workers load their snapshots in parallel; the router needs their
    // ports, so it starts once they are all up.
    for (size_t s = 0; s < spec_.shard_snapshots.size(); ++s) {
      workers_.push_back(Spawn({"--snapshot", spec_.shard_snapshots[s]},
                               "worker" + std::to_string(s)));
    }
    for (ServerProcess& worker : workers_) WaitReady(&worker);
    if (spec_.router) {
      std::string list;
      for (const ServerProcess& worker : workers_) {
        if (!list.empty()) list += ",";
        list += "127.0.0.1:" + std::to_string(worker.port);
      }
      router_ = Spawn({"--router", "--workers", list}, "router");
      WaitReady(&router_);
    }
  } catch (...) {
    KillAndReap(&router_);
    for (ServerProcess& worker : workers_) KillAndReap(&worker);
    throw;
  }
}

Cluster::~Cluster() {
  KillAndReap(&router_);
  for (ServerProcess& worker : workers_) KillAndReap(&worker);
}

uint16_t Cluster::front_port() const {
  return spec_.router ? router_.port : workers_.front().port;
}

std::vector<const ServerProcess*> Cluster::all() const {
  std::vector<const ServerProcess*> out;
  for (const ServerProcess& worker : workers_) out.push_back(&worker);
  if (spec_.router) out.push_back(&router_);
  return out;
}

ServerProcess Cluster::Spawn(const std::vector<std::string>& args,
                             const std::string& name) {
  ServerProcess process;
  process.port_path = spec_.work_dir + "/" + name + ".port";
  process.log_path = spec_.work_dir + "/" + name + ".log";
  ::unlink(process.port_path.c_str());

  std::vector<std::string> argv_strings = {spec_.served_binary};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  for (const char* flag : {"--port", "0", "--port-file"}) {
    argv_strings.emplace_back(flag);
  }
  argv_strings.push_back(process.port_path);
  // Everything the child touches is prepared before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<char*> argv;
  for (std::string& arg : argv_strings) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int log_fd =
      ::open(process.log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + process.log_path);
  const pid_t parent = ::getpid();

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDERR_FILENO);
    ::dup2(log_fd, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  process.pid = pid;
  return process;
}

void Cluster::WaitReady(ServerProcess* process) {
  const double deadline = NowMs() + 60000;
  // The port file is written in one short fprintf and closed; a complete
  // line means the socket is bound.
  for (;;) {
    const std::string text = ReadFile(process->port_path);
    if (!text.empty() && text.back() == '\n') {
      process->port = static_cast<uint16_t>(std::stoul(text));
      break;
    }
    int status = 0;
    if (::waitpid(process->pid, &status, WNOHANG) == process->pid) {
      process->pid = -1;
      throw std::runtime_error("lash_served exited during start-up: " +
                               ReadFile(process->log_path));
    }
    if (NowMs() > deadline) {
      throw std::runtime_error("lash_served did not bind within 60 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Bound is not the same as answering: one metrics round trip proves the
  // event loop serves.
  lash::net::NetClient client("127.0.0.1", process->port);
  client.Metrics();
}

std::vector<int64_t> Cluster::CpuTicks() const {
  std::vector<int64_t> ticks;
  for (const ServerProcess* process : all()) {
    ticks.push_back(ParseProcStatCpuTicks(
        ReadFile("/proc/" + std::to_string(process->pid) + "/stat")));
  }
  return ticks;
}

double Cluster::PeakRssMb() const {
  double total_kb = 0;
  for (const ServerProcess* process : all()) {
    total_kb += static_cast<double>(ParseProcStatusHwmKb(
        ReadFile("/proc/" + std::to_string(process->pid) + "/status")));
  }
  return total_kb / 1024.0;
}

bool Cluster::Drain() {
  bool clean = true;
  std::vector<ServerProcess*> order;
  if (spec_.router) order.push_back(&router_);
  for (ServerProcess& worker : workers_) order.push_back(&worker);
  for (ServerProcess* process : order) {
    ::kill(process->pid, SIGTERM);
    const int status = WaitExit(process->pid, 30000);
    if (status == -1) {
      KillAndReap(process);
      clean = false;
      continue;
    }
    process->pid = -1;
    const bool exited_zero = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const bool epilogue =
        ReadFile(process->log_path).find("drained, exiting") != std::string::npos;
    clean = clean && exited_zero && epilogue;
  }
  return clean;
}

}  // namespace perfbench
