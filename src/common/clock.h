// The one steady-clock reader shared by deadlines, the observability
// layer and the server's latency histograms.
#ifndef RQ_COMMON_CLOCK_H_
#define RQ_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace rq {

// Nanoseconds on the steady clock since its (unspecified) epoch.
inline uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace rq

#endif  // RQ_COMMON_CLOCK_H_
