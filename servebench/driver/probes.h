// Measurements the benchmark takes from outside the archive: process
// and machine counters, bytes on disk, and the traced run's spans.

#ifndef SERVEBENCH_PROBES_H_
#define SERVEBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

/// One reading of the counters a timed phase is measured with.
struct ProcSample {
  double cpu_s = 0.0;           ///< This process, user + sys.
  uint64_t ctx_switches = 0;    ///< Voluntary + involuntary.
  uint64_t forks = 0;           ///< /proc/stat "processes" (machine-wide).
  uint64_t cpu_ticks = 0;       ///< /proc/stat cpu line, all fields.
  uint64_t steal_ticks = 0;     ///< /proc/stat cpu line, steal.

  static ProcSample Now();
};

/// Peak resident set of this process (VmHWM), bytes.
uint64_t PeakRssBytes();
/// Current resident set of this process (VmRSS), bytes.
uint64_t RssBytes();

/// Sum of the sizes of all regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

/// Closed spans kept in memory and written out once, at the end, as
/// chrome://tracing JSON (the format tools/check_trace.py validates).
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : origin_(Clock::now()) {}

  /// Records a span that started at `start` and ends now. `lane` is the
  /// display row (client index + 1); `stmt` ties the spans of one
  /// statement together.
  void Add(const char* name, Clock::time_point start, int lane,
           uint64_t stmt);

  size_t size() const;
  std::string ToChromeJson(const std::string& label) const;

 private:
  struct Span {
    const char* name;
    double ts_us;
    double dur_us;
    int lane;
    uint64_t stmt;
  };
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace servebench

#endif  // SERVEBENCH_PROBES_H_
