// The observability front end shared by the command-line tools: rqcheck and
// rqeval take the same seven output flags, and bench/harness.cc takes the
// two whose meaning matches (--chrome-trace, --prometheus).
//
//   --profile               rq-profile/1 text report on stdout
//   --profile-json <path>   the same report as JSON
//   --trace                 span tree plus non-zero counters on stderr
//   --stats-json <path>     observability snapshot (rq-obs/2)
//   --chrome-trace <path>   spans as Chrome trace-event JSON
//   --flight-dump <path>    flight-recorder ring and slow log ("-" = stderr)
//   --prometheus <path>     every metric in Prometheus text format
//
// Every valued flag is accepted as `--flag value` and `--flag=value`.
#ifndef RQ_OBS_CLI_H_
#define RQ_OBS_CLI_H_

#include <string>
#include <string_view>

#include "obs/profile.h"

namespace rq {
namespace obs {

// Takes the valued flag `name` ("--jobs") at argv[*i] in either spelling:
// on a match stores its value, leaves *i on the last argument used, and
// returns true. `--flag` as the last argument does not match.
bool TakeFlagValue(std::string_view name, int argc, char** argv, int* i,
                   std::string* value);

struct CliOutputs {
  bool trace = false;
  bool profile_text = false;
  std::string profile_json;
  std::string stats_json;
  std::string chrome_trace;
  std::string flight_dump;
  std::string prometheus;
  QueryProfile profile;

  // Takes one of the seven flags at argv[*i]; false if it is none of them.
  bool TakeFlag(int argc, char** argv, int* i);

  // Before the query runs: full tracing when an output needs span rows,
  // the fatal-signal flight dump, the slow-query `label`, and the profile
  // window when a profile was asked for.
  void Begin(const std::string& tool, const std::string& query_class,
             const std::string& query_text, const std::string& label);

  // After it ran (with its MemContext still installed): closes the
  // profile and writes the outputs in the order listed above. Returns the
  // first failure as the message to print, or "" when all were written.
  std::string Finish();
};

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_CLI_H_
