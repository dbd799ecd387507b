// One rqserved child process: spawned with an ephemeral port, found via its
// --port-file, stopped with SIGTERM (SIGKILL after a grace period), and
// read from /proc for CPU time and peak RSS while it runs.
#ifndef RQBENCH_LOADGEN_SERVER_PROCESS_H_
#define RQBENCH_LOADGEN_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace rqbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `binary args... --port 0 --port-file <port_file>` and waits
  // until the port file is written. Returns "" or an error message.
  std::string Start(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::string& port_file, const std::string& log_file);
  // SIGTERM, wait for the drain, SIGKILL if it takes too long. Returns the
  // server's user + system CPU seconds over its whole life (from wait4, to
  // the microsecond), or 0 when no server was running.
  double Stop();

  bool running() const { return pid_ > 0; }
  uint16_t port() const { return port_; }
  // User + system CPU seconds so far (/proc/<pid>/stat).
  double CpuSeconds() const;
  // Peak resident set (VmHWM, /proc/<pid>/status) in MiB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace rqbench

#endif  // RQBENCH_LOADGEN_SERVER_PROCESS_H_
