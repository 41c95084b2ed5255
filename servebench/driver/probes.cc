#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace servebench {

ProcSample ProcSample::Now() {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
            ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  s.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "cpu") {
      // user nice system idle iowait irq softirq steal [guest guest_nice]
      // -- guests are already counted in user/nice.
      uint64_t v = 0;
      for (int field = 0; field < 8 && in >> v; ++field) {
        s.cpu_ticks += v;
        if (field == 7) s.steal_ticks = v;
      }
    } else if (key == "processes") {
      in >> s.forks;
    }
  }
  return s;
}

namespace {

/// A "Vm...:" line of /proc/self/status (given in kB), in bytes.
uint64_t StatusBytes(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stoull(line.substr(key.size())) * 1024;
    }
  }
  return 0;
}

}  // namespace

uint64_t PeakRssBytes() { return StatusBytes("VmHWM:"); }

uint64_t RssBytes() { return StatusBytes("VmRSS:"); }

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator
           it(dir, std::filesystem::directory_options::skip_permission_denied,
              ec),
       end;
       !ec && it != end; it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const auto n = it->file_size(size_ec);
      if (!size_ec) total += n;
    }
  }
  return total;
}

void SpanLog::Add(const char* name, Clock::time_point start, int lane,
                  uint64_t stmt) {
  const auto end = Clock::now();
  const double ts =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  const double dur =
      std::chrono::duration<double, std::micro>(end - start).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, ts, dur, lane, stmt});
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string SpanLog::ToChromeJson(const std::string& label) const {
  std::lock_guard<std::mutex> lock(mu_);
  double origin = 0.0;
  if (!spans_.empty()) {
    origin = std::min_element(spans_.begin(), spans_.end(),
                              [](const Span& a, const Span& b) {
                                return a.ts_us < b.ts_us;
                              })
                 ->ts_us;
  }
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%d,\"args\":{\"stmt\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.ts_us - origin, s.dur_us,
                  s.lane, static_cast<unsigned long long>(s.stmt));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\"" + label +
         "\"}}\n";
  return out;
}

}  // namespace servebench
