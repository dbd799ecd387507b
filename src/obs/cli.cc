#include "obs/cli.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/chrome_trace.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/prometheus.h"
#include "obs/trace.h"

namespace rq {
namespace obs {

bool TakeFlagValue(std::string_view name, int argc, char** argv, int* i,
                   std::string* value) {
  std::string_view arg = argv[*i];
  if (arg == name && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  if (arg.size() > name.size() && arg.substr(0, name.size()) == name &&
      arg[name.size()] == '=') {
    *value = std::string(arg.substr(name.size() + 1));
    return true;
  }
  return false;
}

bool CliOutputs::TakeFlag(int argc, char** argv, int* i) {
  std::string_view arg = argv[*i];
  if (arg == "--trace") return trace = true;
  if (arg == "--profile") return profile_text = true;
  return TakeFlagValue("--profile-json", argc, argv, i, &profile_json) ||
         TakeFlagValue("--stats-json", argc, argv, i, &stats_json) ||
         TakeFlagValue("--chrome-trace", argc, argv, i, &chrome_trace) ||
         TakeFlagValue("--flight-dump", argc, argv, i, &flight_dump) ||
         TakeFlagValue("--prometheus", argc, argv, i, &prometheus);
}

void CliOutputs::Begin(const std::string& tool,
                       const std::string& query_class,
                       const std::string& query_text,
                       const std::string& label) {
  // Full tracing when any output needs span rows; counters always run.
  if (trace || !stats_json.empty() || !chrome_trace.empty()) {
    SetTraceMode(TraceMode::kFull);
  }
  InstallFlightSignalHandler();
  SetFlightQueryLabel(label);
  if (profile_text || !profile_json.empty()) {
    profile.Begin(tool, query_class, query_text);
  }
}

std::string CliOutputs::Finish() {
  if (profile_text || !profile_json.empty()) {
    profile.End();
    if (profile_text) std::fputs(profile.ToText().c_str(), stdout);
    if (!profile_json.empty()) {
      std::ofstream out(profile_json);
      out << profile.ToJson().Dump(2) << '\n';
      if (!out) return "cannot write " + profile_json;
    }
  }
  if (trace) PrintSpanTree(stderr);
  const std::pair<const std::string*, Status (*)(const std::string&)>
      files[] = {{&stats_json, WriteSnapshotJsonFile},
                 {&chrome_trace, WriteChromeTraceFile},
                 {&flight_dump, WriteFlightDump},
                 {&prometheus, WritePrometheusTextFile}};
  for (const auto& [path, write] : files) {
    if (path->empty()) continue;
    if (Status status = write(*path); !status.ok()) return status.ToString();
  }
  return "";
}

}  // namespace obs
}  // namespace rq
