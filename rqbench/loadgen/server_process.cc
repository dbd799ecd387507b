#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace rqbench {

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::string ServerProcess::Start(const std::string& binary,
                                 const std::vector<std::string>& args,
                                 const std::string& port_file,
                                 const std::string& log_file) {
  Stop();
  unlink(port_file.c_str());
  std::vector<std::string> argv_strings = {binary};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  argv_strings.insert(argv_strings.end(),
                      {"--port", "0", "--port-file", port_file});
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  pid_t pid = fork();
  if (pid < 0) return "fork failed";
  if (pid == 0) {
    int fd = open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  pid_ = pid;

  // The server writes "<port>\n" once it listens (after any --graph load).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return "rqserved exited during start-up (see " + log_file + ")";
    }
    std::string text = ReadFile(port_file);
    if (!text.empty() && text.back() == '\n') {
      port_ = static_cast<uint16_t>(std::strtoul(text.c_str(), nullptr, 10));
      return port_ != 0 ? "" : "bad port file";
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Stop();
  return "rqserved did not write its port file within 60 s";
}

double ServerProcess::Stop() {
  if (pid_ <= 0) return 0;
  kill(pid_, SIGTERM);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int status = 0;
  struct rusage usage {};
  while (wait4(pid_, &status, WNOHANG, &usage) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid_, SIGKILL);
      wait4(pid_, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  port_ = 0;
  auto seconds = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ServerProcess::CpuSeconds() const {
  if (pid_ <= 0) return 0;
  std::string stat = ReadFile("/proc/" + std::to_string(pid_) + "/stat");
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::istringstream in(ReadFile("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace rqbench
