// The three traffic mixes and the closed-loop callers that send them.
//
// A workload is a set of callers (sessions), each sending whole rounds
// of statements and waiting for every reply before sending the next (a
// closed loop). Round k of caller c is a pure function
// of (seed, workload, c, k), so every run of a seed sends the same
// statement sequence, however far it gets in its time.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "catalog/photo_obj.h"
#include "probes.h"
#include "reference.h"
#include "served.h"
#include "server/protocol.h"

namespace servebench {

enum class Workload { kConeSearch, kFullSweep, kMiningSession };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);
/// Concurrent sessions (callers) of a workload.
int Sessions(Workload w);

/// One round of one caller: the user it runs as and its statements.
struct Round {
  std::string user;
  std::vector<Statement> stmts;
};

Round MakeRound(Workload w, const Reference& ref, uint64_t seed, int caller,
                uint64_t round);

/// Everything the caller kept of one statement.
struct Record {
  enum class Outcome { kDone, kError, kBusy, kBroken };
  Statement stmt;
  std::string user;
  Outcome outcome = Outcome::kBroken;
  std::string error;
  double latency_s = 0.0;
  double end_s = 0.0;  ///< Reply received, seconds since the phase began.
  sdss::server::DoneMsg done;
  uint64_t batches = 0;
  Answer answer;
};

/// Wall times of the traced run's direct calls, milliseconds (counts
/// where named so).
struct DirectTimings {
  std::vector<double> parse_plan, cover, cover_trixels, submit, execute,
      region_scan, mydb_put, snapshot_write;
  void Merge(const DirectTimings& other);
};

struct PhaseOptions {
  Workload workload = Workload::kConeSearch;
  uint64_t seed = 0;
  /// Distinguishes the statement streams of warm-up, timed and traced
  /// phases, so no phase replays another's statements.
  uint64_t round_base = 0;
  std::string user_prefix;
  double seconds = 1.0;
  /// Checked at round boundaries: ends the phase early once true.
  std::function<bool()> done_early;
  /// Traced phase: spans of every statement and its direct calls go
  /// here, timings into PhaseResult::direct.
  SpanLog* spans = nullptr;
};

struct PhaseResult {
  std::vector<Record> records;
  double wall_s = 0.0;
  DirectTimings direct;
};

/// Runs one phase: Sessions(workload) callers, each sending whole rounds
/// until `seconds` have passed (checked before each round). `start` is
/// the phase's time origin; it must not lie in the future.
PhaseResult RunPhase(ServedArchive& archive, const Reference& ref,
                     const std::vector<sdss::catalog::PhotoObj>& sky,
                     const PhaseOptions& options,
                     std::chrono::steady_clock::time_point start);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
