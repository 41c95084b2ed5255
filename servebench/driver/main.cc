// servebench: the archive's served path, measured from outside.
//
//   servebench --workload <cone_search|full_sweep|mining_session>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--objects <n>] [--selftest] [--out-dir <dir>]
//
// One run: generate the sky from the seed, start the served archive
// several times (the median start-up is setup_s), warm it up, run the
// workload's closed-loop callers for --seconds, stop serving, recover
// the durable state as a restart would, check every answer against the
// brute-force reference, and print the metrics as the last line of
// standard output (one JSON object). With --trace 1 the time is split
// between an untraced half (counters) and a traced half (direct calls
// into each module, spans written as chrome://tracing JSON), and the
// per-layer metrics are printed instead of the end-to-end ones.
//
// Exit status: 0 when every statement completed and every served answer
// matched; 1 on a failed statement or a mismatch (the result line says
// "correct": false); 2 on a usage or start-up error (no result line).

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/sky_generator.h"
#include "probes.h"
#include "reference.h"
#include "served.h"
#include "server/client.h"
#include "workloads.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

/// Start-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Default catalog size: large enough that load and fleet build take
/// most of a second, so start-up time holds steady between runs.
constexpr uint64_t kDefaultObjects = 787'920;
/// Warm-up ends once the result cache has turned over once (it filled
/// up and then evicted as many entries as it holds), or after this long.
constexpr double kWarmupCapSeconds = 20.0;

struct Args {
  Workload workload = Workload::kConeSearch;
  bool have_workload = false;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  uint64_t objects = kDefaultObjects;
  bool selftest = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(v, &a->workload)) return false;
      a->have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--objects") {
      a->objects = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return a->have_workload && a->seconds > 0 && a->objects >= 1000;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(std::ceil(q * v.size())) - 1);
  return v[k];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The server's metrics snapshot, fetched over its own short session.
sdss::server::StatsMsg FetchStats(uint16_t port) {
  auto client = sdss::server::Client::Connect("127.0.0.1", port, "monitor");
  if (!client.ok()) return {};
  auto stats = client->Stats();
  (void)client->Bye();
  return stats.ok() ? *stats : sdss::server::StatsMsg{};
}

const sdss::metrics::InstrumentSnapshot* FindInstrument(
    const sdss::server::StatsMsg& s, const std::string& name) {
  for (const auto& i : s.instruments) {
    if (i.name == name) return &i;
  }
  return nullptr;
}

double CounterDelta(const sdss::server::StatsMsg& a,
                    const sdss::server::StatsMsg& b, const std::string& name) {
  const auto* x = FindInstrument(a, name);
  const auto* y = FindInstrument(b, name);
  if (y == nullptr) return 0.0;
  return static_cast<double>(y->counter - (x ? x->counter : 0));
}

/// Mean of a histogram's observations between two snapshots. (Its
/// quantiles are bucket upper bounds, powers of two, too coarse to
/// compare runs.)
double HistogramMeanDelta(const sdss::server::StatsMsg& a,
                          const sdss::server::StatsMsg& b,
                          const std::string& name) {
  const auto* x = FindInstrument(a, name);
  const auto* y = FindInstrument(b, name);
  if (y == nullptr) return 0.0;
  const uint64_t n = y->hist.count - (x ? x->hist.count : 0);
  const uint64_t sum = y->hist.sum - (x ? x->hist.sum : 0);
  return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
}

/// The timed phase is cut into windows of about this length, and the
/// throughput and median-latency metrics are read from a line fitted
/// through all of them. Other tenants of the host steal from under 1% to
/// over 30% of the CPU during a run, and each point of steal costs these
/// latency-bound workloads two to three points of throughput, so each
/// window's figure is regressed (least squares, on a log scale) on the
/// window's steal share and the line is read at this share, a lightly
/// loaded host (README, "Windows").
constexpr double kWindowSeconds = 1.0;
constexpr double kReferenceStealPct = 5.0;

/// A phase with the outside counters read around it, and process
/// counters sampled at every window boundary.
struct Measured {
  PhaseResult phase;
  ProcSample before, after;
  std::vector<ProcSample> samples;  ///< At 0, w, 2w, ..., and the end.
  double window_s = 0.0;
  uint64_t disk_before = 0, disk_after = 0;
  sdss::server::StatsMsg stats_before, stats_after;

  struct Window {
    double qps = 0.0;
    double p50_ms = 0.0;
    double cpu_ms_per_stmt = 0.0;
    double steal_pct = 0.0;
  };

  std::vector<double> DoneLatencies() const {
    std::vector<double> v;
    for (const auto& r : phase.records) {
      if (r.outcome == Record::Outcome::kDone) v.push_back(r.latency_s);
    }
    return v;
  }
  double Completed() const {
    return std::count_if(phase.records.begin(), phase.records.end(),
                         [](const Record& r) {
                           return r.outcome == Record::Outcome::kDone;
                         });
  }

  /// Per-window figures. A statement counts towards a window's
  /// completions in proportion to the share of its [send, reply]
  /// interval that falls inside the window, so window rates are not
  /// quantized by whole statements; its latency counts in the window of
  /// its reply.
  std::vector<Window> Windows() const {
    const size_t n = samples.size() - 1;
    std::vector<std::vector<double>> lat(n);
    std::vector<double> work(n, 0.0);
    auto edge = [&](size_t k) {
      return k >= n ? phase.wall_s : k * window_s;
    };
    for (const auto& r : phase.records) {
      if (r.outcome != Record::Outcome::kDone) continue;
      const size_t last = std::min(n - 1, static_cast<size_t>(r.end_s / window_s));
      lat[last].push_back(r.latency_s);
      const double begin = std::max(0.0, r.end_s - r.latency_s);
      if (r.end_s <= begin) {
        work[last] += 1.0;
        continue;
      }
      for (size_t k = std::min(last, static_cast<size_t>(begin / window_s));
           k <= last; ++k) {
        const double overlap = std::min(r.end_s, k == last ? r.end_s : edge(k + 1)) -
                               std::max(begin, edge(k));
        work[k] += std::max(0.0, overlap) / (r.end_s - begin);
      }
    }
    std::vector<Window> out(n);
    for (size_t k = 0; k < n; ++k) {
      out[k].qps = work[k] / (edge(k + 1) - edge(k));
      out[k].p50_ms = 1e3 * Median(lat[k]);
      out[k].cpu_ms_per_stmt = 1e3 * (samples[k + 1].cpu_s - samples[k].cpu_s) /
                               std::max(1e-9, work[k]);
      const double ticks = static_cast<double>(samples[k + 1].cpu_ticks -
                                               samples[k].cpu_ticks);
      out[k].steal_pct =
          ticks > 0 ? 100.0 *
                          (samples[k + 1].steal_ticks - samples[k].steal_ticks) /
                          ticks
                    : 0.0;
    }
    return out;
  }
  /// `field` at kReferenceStealPct: the least-squares line of
  /// log(field) against steal over every window with a positive value,
  /// read at that steal share. With all windows at one steal share it is
  /// their geometric mean.
  double AtReferenceSteal(double Window::*field) const {
    std::vector<double> xs, ys;
    for (const auto& w : Windows()) {
      if (w.*field <= 0) continue;
      xs.push_back(w.steal_pct);
      ys.push_back(std::log(w.*field));
    }
    if (xs.empty()) return 0.0;
    const double mx = Mean(xs), my = Mean(ys);
    double sxx = 0.0, sxy = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      sxx += (xs[i] - mx) * (xs[i] - mx);
      sxy += (xs[i] - mx) * (ys[i] - my);
    }
    const double slope = sxx > 1e-9 ? sxy / sxx : 0.0;
    return std::exp(my + slope * (kReferenceStealPct - mx));
  }
  /// The extreme of `field` over the windows: the highest, or the lowest
  /// when `lower_is_better` (accounting only).
  double Best(double Window::*field, bool lower_is_better) const {
    std::vector<double> v;
    for (const auto& w : Windows()) v.push_back(w.*field);
    return lower_is_better ? *std::min_element(v.begin(), v.end())
                           : *std::max_element(v.begin(), v.end());
  }
  double Qps() const { return AtReferenceSteal(&Window::qps); }
  double P50Ms() const { return AtReferenceSteal(&Window::p50_ms); }
  /// Process CPU time of the whole phase per completed statement, ms.
  double CpuMsPerStmt() const {
    return 1e3 * (after.cpu_s - before.cpu_s) / std::max(1.0, Completed());
  }
};

Measured RunMeasured(ServedArchive& archive, const Reference& ref,
                     const std::vector<sdss::catalog::PhotoObj>& sky,
                     const PhaseOptions& options) {
  Measured m;
  const int windows =
      std::max(1, static_cast<int>(std::lround(options.seconds /
                                               kWindowSeconds)));
  m.window_s = options.seconds / windows;
  m.stats_before = FetchStats(archive.port());
  m.disk_before = DirBytes(archive.dir());
  const auto start = Clock::now();
  m.samples.push_back(ProcSample::Now());
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread sampler([&] {
    for (int k = 1; k < windows; ++k) {
      const auto at = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(k * m.window_s));
      std::unique_lock<std::mutex> lock(mu);
      if (cv.wait_until(lock, at, [&] { return finished; })) return;
      m.samples.push_back(ProcSample::Now());
    }
  });
  m.phase = RunPhase(archive, ref, sky, options, start);
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_all();
  sampler.join();
  m.samples.push_back(ProcSample::Now());
  m.before = m.samples.front();
  m.after = m.samples.back();
  m.disk_after = DirBytes(archive.dir());
  m.stats_after = FetchStats(archive.port());
  return m;
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Checks every served answer; INTO tables against the recovered MyDB.
struct CheckReport {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  uint64_t boundary_flips = 0;
  uint64_t tables_verified = 0;
  std::vector<std::string> problems;
  std::string first_flip;  ///< A statement with an edge flip, if any.

  void Fail(std::string why) {
    ++mismatches;
    if (problems.size() < 10) problems.push_back(std::move(why));
  }
};

void CheckAll(const Reference& ref, const std::vector<const Record*>& records,
              sdss::archive::MyDb* recovered, CheckReport* report) {
  // INTO first: the tables the mining statements read must be exactly
  // what the INTO acknowledged and what the reference selects.
  std::map<std::pair<std::string, std::string>, std::vector<size_t>> tables;
  for (const Record* r : records) {
    if (r->outcome != Record::Outcome::kDone || r->stmt.op != Op::kInto) {
      continue;
    }
    const std::string what = r->user + "/" + r->stmt.table;
    ++report->checked;
    Answer acked;
    acked.rows = r->done.rows;
    const Verdict v = ref.Check(r->stmt, acked, nullptr);
    if (!v.ok) {
      report->Fail("INTO " + what + ": " + v.why);
      continue;
    }
    report->boundary_flips += v.boundary_flips;
    auto table = recovered->Find(r->user, r->stmt.table);
    if (!table.ok()) {
      report->Fail("INTO " + what + " not recovered: " +
                   table.status().ToString());
      continue;
    }
    std::vector<uint64_t> ids;
    (*table)->ForEachObject(
        [&ids](const sdss::catalog::PhotoObj& o) { ids.push_back(o.obj_id); });
    std::vector<size_t> content;
    std::vector<size_t> sure, edge;
    ref.Select(r->stmt.where, nullptr, &sure, &edge);
    bool ok = ids.size() == r->done.rows && ref.IndicesOf(ids, &content);
    // Content: every certain match, plus only edge objects.
    ok = ok && std::includes(content.begin(), content.end(), sure.begin(),
                             sure.end());
    if (ok) {
      std::vector<size_t> allowed = sure;
      allowed.insert(allowed.end(), edge.begin(), edge.end());
      std::sort(allowed.begin(), allowed.end());
      ok = std::includes(allowed.begin(), allowed.end(), content.begin(),
                         content.end());
    }
    if (!ok) {
      report->Fail("INTO " + what + ": recovered table holds " +
                   std::to_string(ids.size()) + " objects, acknowledged " +
                   std::to_string(r->done.rows));
      continue;
    }
    ++report->tables_verified;
    tables[{r->user, r->stmt.table}] = std::move(content);
  }
  for (const Record* r : records) {
    if (r->outcome != Record::Outcome::kDone || r->stmt.op == Op::kInto) {
      continue;
    }
    ++report->checked;
    const std::string what = r->stmt.Sql();
    if (r->done.rows != r->answer.rows) {
      report->Fail(what + ": DONE says " + std::to_string(r->done.rows) +
                   " rows, " + std::to_string(r->answer.rows) + " streamed");
      continue;
    }
    const std::vector<size_t>* among = nullptr;
    if (r->stmt.reads_mydb()) {
      auto it = tables.find({r->user, r->stmt.table});
      if (it == tables.end()) {
        report->Fail(what + ": reads an unverified table");
        continue;
      }
      among = &it->second;
    }
    const Verdict v = ref.Check(r->stmt, r->answer, among);
    if (!v.ok) {
      report->Fail(what + ": " + v.why);
    } else {
      report->boundary_flips += v.boundary_flips;
      if (v.boundary_flips > 0 && report->first_flip.empty()) {
        report->first_flip = what;
      }
    }
  }
}

/// The checker must reject corrupted answers. Re-sends one statement of
/// each kind the phase ran, takes the full rows, and feeds the checker
/// the clean digest (must pass) and corrupted ones (must fail): a
/// dropped row, two rows swapped, a count off by one, an aggregate
/// nudged past its tolerance, an INTO acknowledging one row too many.
bool SelfTest(ServedArchive& archive, const Reference& ref,
              const std::vector<Record>& records, std::string* log) {
  auto client = sdss::server::Client::Connect("127.0.0.1", archive.port(),
                                              "selftest");
  if (!client.ok()) {
    *log += "selftest: cannot connect\n";
    return false;
  }
  bool all_ok = true;
  std::map<Op, bool> done;
  for (const Record& r : records) {
    const Statement& st = r.stmt;
    if (r.outcome != Record::Outcome::kDone || st.reads_mydb() ||
        done[st.op]) {
      continue;
    }
    std::vector<Answer> bad;
    std::vector<std::string> what;
    Answer clean;
    if (st.op == Op::kInto) {
      clean.rows = r.done.rows;
      Answer more = clean;
      ++more.rows;
      bad.push_back(more);
      what.push_back("INTO acknowledging one row too many");
    } else {
      auto out = client->Query(st.Sql());
      if (!out.ok() || !out->ok()) continue;
      const auto& rows = out->rows;
      auto digest = [](const sdss::query::RowBatch& rs) {
        Answer a;
        for (const auto& row : rs) a.Add(row.obj_id, row.values);
        return a;
      };
      clean = digest(rows);
      if ((st.op == Op::kRows || st.op == Op::kTopN) && rows.size() >= 2) {
        sdss::query::RowBatch dropped(rows.begin(), rows.end() - 1);
        bad.push_back(digest(dropped));
        what.push_back("dropped row");
        if (st.op == Op::kTopN) {
          sdss::query::RowBatch swapped = rows;
          std::swap(swapped.front(), swapped.back());
          bad.push_back(digest(swapped));
          what.push_back("top-N out of order");
        }
      } else if (st.op == Op::kCount || st.op == Op::kAvg ||
                 st.op == Op::kMin || st.op == Op::kMax) {
        Answer off = clean;
        off.value = st.op == Op::kCount
                        ? clean.value + 1
                        : clean.value * (1 + 1e-6) + 1e-6;
        bad.push_back(off);
        what.push_back(st.op == Op::kCount ? "count off by one"
                                           : "aggregate off by 1e-6");
      } else {
        continue;
      }
    }
    done[st.op] = true;
    const std::string sql = st.Sql();
    if (!ref.Check(st, clean, nullptr).ok) {
      *log += "selftest: clean answer rejected: " + sql + "\n";
      all_ok = false;
    }
    for (size_t k = 0; k < bad.size(); ++k) {
      const bool caught = !ref.Check(st, bad[k], nullptr).ok;
      *log += std::string("selftest: ") + (caught ? "rejected " : "MISSED ") +
              what[k] + " [" + OpName(st.op) + "]\n";
      all_ok = all_ok && caught;
    }
  }
  (void)client->Bye();
  return all_ok;
}

int Run(const Args& args) {
  const std::string name = WorkloadName(args.workload);
  std::fprintf(stderr, "servebench: %s seed %llu, %.1f s, trace %d\n",
               name.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0);

  // Input generation (not part of setup_s).
  auto t = Clock::now();
  sdss::catalog::SkyModel model;
  model.seed = args.seed;
  model.num_quasars = std::max<uint64_t>(1, args.objects / 201);
  model.num_galaxies = (args.objects - model.num_quasars) / 2;
  model.num_stars = args.objects - model.num_quasars - model.num_galaxies;
  const std::vector<sdss::catalog::PhotoObj> sky =
      sdss::catalog::SkyGenerator(model).Generate();
  const double sky_gen_s =
      std::chrono::duration<double>(Clock::now() - t).count();
  const Reference ref(sky);
  // The harness's own share of the resident set (the sky, the reference,
  // the allocator's free pages handed back first): peak_rss_mb is the
  // peak above it.
  malloc_trim(0);
  const uint64_t harness_rss = RssBytes();

  const std::string base = ".bench_tmp/" + name + "-" +
                           std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(base, ec);

  std::vector<SetupTimes> setups;
  std::unique_ptr<ServedArchive> archive;
  for (int k = 0; k < kSetups; ++k) {
    archive.reset();
    std::filesystem::remove_all(base, ec);
    std::vector<sdss::catalog::PhotoObj> copy = sky;
    SetupTimes times;
    auto started = ServedArchive::Start(std::move(copy),
                                        base + "/setup" + std::to_string(k),
                                        &times);
    if (!started.ok()) {
      std::fprintf(stderr, "servebench: start-up failed: %s\n",
                   started.status().ToString().c_str());
      return 2;
    }
    archive = std::move(started).value();
    setups.push_back(times);
  }
  auto setup_median = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(s.*field);
    return Median(v);
  };

  // Warm-up: fill the result cache to its budget and turn it over once
  // (cone_search, mining_session), so the timed phase sees the cache's
  // steady state.
  PhaseOptions warm;
  warm.workload = args.workload;
  warm.seed = args.seed;
  warm.round_base = 1ull << 40;
  warm.user_prefix = "w";
  warm.seconds = kWarmupCapSeconds;
  sdss::query::ResultCache* cache = archive->cache();
  if (args.workload == Workload::kFullSweep) {
    warm.done_early = [] { return true; };
  } else {
    warm.done_early = [cache] {
      const auto stats = cache->stats();
      return stats.evictions > 0 && stats.evictions >= stats.entries;
    };
  }
  const PhaseResult warmup = RunPhase(*archive, ref, sky, warm, Clock::now());

  PhaseOptions timed = warm;
  timed.round_base = 0;
  timed.user_prefix = "t";
  timed.done_early = nullptr;
  timed.seconds = args.trace ? std::max(1.0, args.seconds / 2) : args.seconds;
  const Measured main_phase = RunMeasured(*archive, ref, sky, timed);
  const double peak_rss_mb =
      (PeakRssBytes() - std::min(PeakRssBytes(), harness_rss)) /
      (1024.0 * 1024.0);

  SpanLog spans;
  Measured traced_phase;
  if (args.trace) {
    PhaseOptions traced = timed;
    traced.round_base = 2ull << 40;
    traced.user_prefix = "x";
    traced.spans = &spans;
    traced_phase = RunMeasured(*archive, ref, sky, traced);
  }

  std::string selftest_log;
  const bool selftest_ok =
      !args.selftest ||
      SelfTest(*archive, ref, main_phase.phase.records, &selftest_log);

  archive->StopServing();
  std::unique_ptr<sdss::archive::MyDb> recovered;
  const auto rec_t = Clock::now();
  auto recover_s = Recover(*archive, &recovered);
  if (args.trace) spans.Add("persist.recover", rec_t, 1, 0);
  if (!recover_s.ok()) {
    std::fprintf(stderr, "servebench: recovery failed: %s\n",
                 recover_s.status().ToString().c_str());
    return 2;
  }

  std::vector<const Record*> all;
  const PhaseResult* phases[] = {&warmup, &main_phase.phase,
                                 &traced_phase.phase};
  for (const PhaseResult* p : phases) {
    for (const auto& r : p->records) all.push_back(&r);
  }
  CheckReport check;
  CheckAll(ref, all, recovered.get(), &check);
  // Every statement of every phase counts: the workloads are built so
  // that none is BUSY or fails, so any failure is a fault and fails the
  // run, however few.
  const uint64_t attempted = all.size();
  const uint64_t failed = static_cast<uint64_t>(
      std::count_if(all.begin(), all.end(), [](const Record* r) {
        return r->outcome != Record::Outcome::kDone;
      }));
  const bool correct = check.mismatches == 0 && selftest_ok && failed == 0;

  // Accounting of the measured phase (the untraced half in traced runs).
  const Measured& m = main_phase;
  const std::vector<double> lat = m.DoneLatencies();
  const double completed = m.Completed();
  const double ticks = static_cast<double>(m.after.cpu_ticks - m.before.cpu_ticks);
  const double steal_pct =
      ticks > 0 ? 100.0 * (m.after.steal_ticks - m.before.steal_ticks) / ticks
                : 0.0;
  const double forks = static_cast<double>(m.after.forks - m.before.forks);
  const double ctx =
      static_cast<double>(m.after.ctx_switches - m.before.ctx_switches);
  const double denom = std::max(1.0, completed);

  std::fprintf(stderr,
               "accounting: %s attempted %llu failed %llu (all phases) | "
               "whole-phase p50 %.3f ms p99 %.3f ms (%zu samples) | steal %.2f%% | threads created %.0f "
               "(%.2f/stmt) | sky generation %.3f s | setup median %.3f s = "
               "bulk_load %.3f + shard_build %.3f + engine %.3f + durable "
               "%.3f + server %.3f | warm-up %zu stmts | checked %llu, "
               "mismatches %llu, edge flips %llu, INTO tables verified %llu "
               "| cache %llu entries %.1f MB\n",
               name.c_str(), static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               1e3 * Median(lat), 1e3 * Percentile(lat, 0.99), lat.size(),
               steal_pct, forks, forks / denom, sky_gen_s,
               setup_median(&SetupTimes::total),
               setup_median(&SetupTimes::bulk_load),
               setup_median(&SetupTimes::shard_build),
               setup_median(&SetupTimes::engine),
               setup_median(&SetupTimes::durable),
               setup_median(&SetupTimes::server), warmup.records.size(),
               static_cast<unsigned long long>(check.checked),
               static_cast<unsigned long long>(check.mismatches),
               static_cast<unsigned long long>(check.boundary_flips),
               static_cast<unsigned long long>(check.tables_verified),
               static_cast<unsigned long long>(cache->stats().entries),
               cache->stats().bytes_used / (1024.0 * 1024.0));
  const char* phase_names[] = {"warm-up", "timed", "traced"};
  for (size_t k = 0; k < 3; ++k) {
    const auto& records = phases[k]->records;
    const auto bad = std::find_if(records.begin(), records.end(),
                                  [](const Record& r) {
                                    return r.outcome != Record::Outcome::kDone;
                                  });
    const auto n_bad = std::count_if(bad, records.end(), [](const Record& r) {
      return r.outcome != Record::Outcome::kDone;
    });
    std::fprintf(stderr, "accounting: %s phase attempted %zu failed %td\n",
                 phase_names[k], records.size(), n_bad);
    if (bad != records.end()) {
      std::fprintf(stderr, "FAILED: %td statements of the %s phase, first: %s: %s\n",
                   n_bad, phase_names[k], bad->stmt.Sql().c_str(),
                   bad->error.c_str());
    }
  }
  // Latency by statement kind: the reference figures of the README.
  std::map<std::string, std::vector<double>> by_kind;
  for (const auto& r : m.phase.records) {
    if (r.outcome != Record::Outcome::kDone) continue;
    by_kind[std::string(OpName(r.stmt.op)) +
            (r.stmt.reads_mydb() ? "(mydb)" : "")]
        .push_back(1e3 * r.latency_s);
  }
  for (const auto& [kind, v] : by_kind) {
    std::fprintf(stderr,
                 "accounting: %-12s n %5zu  mean %8.3f ms  p50 %8.3f ms  "
                 "p99 %8.3f ms\n",
                 kind.c_str(), v.size(), Mean(v), Median(v),
                 Percentile(v, 0.99));
  }
  std::string per_window;
  for (const auto& w : m.Windows()) {
    char buf[80];
    std::snprintf(buf, sizeof(buf), " %.1f/%.2f/%.2f/%.1f", w.qps, w.p50_ms,
                  w.cpu_ms_per_stmt, w.steal_pct);
    per_window += buf;
  }
  std::fprintf(stderr, "accounting: windows (qps/p50 ms/cpu ms/steal %%):%s\n",
               per_window.c_str());
  std::fprintf(stderr,
               "accounting: best window qps %.1f p50 %.3f ms cpu %.3f ms | "
               "whole phase qps %.1f cpu %.3f ms\n",
               m.Best(&Measured::Window::qps, false),
               m.Best(&Measured::Window::p50_ms, true),
               m.Best(&Measured::Window::cpu_ms_per_stmt, true),
               completed / std::max(1e-9, m.phase.wall_s), m.CpuMsPerStmt());
  if (!check.first_flip.empty()) {
    std::fprintf(stderr, "accounting: edge flip in: %s\n",
                 check.first_flip.c_str());
  }
  for (const auto& p : check.problems) {
    std::fprintf(stderr, "MISMATCH: %s\n", p.c_str());
  }
  std::fputs(selftest_log.c_str(), stderr);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_median(&SetupTimes::total), "s"},
        {"throughput_qps", m.Qps(), "1/s"},
        {"latency_p50_ms", m.P50Ms(), "ms"},
        {"cpu_ms_per_query", m.CpuMsPerStmt(), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"disk_kb_per_query",
         (m.disk_after - m.disk_before) / 1024.0 / denom, "KB"},
    };
  } else {
    // Counters from the untraced half; direct-call timings from the
    // traced half.
    std::vector<double> outside, batches, queued, probe, fan_out,
        stream_out, containers, bytes;
    for (const auto& r : m.phase.records) {
      if (r.outcome != Record::Outcome::kDone) continue;
      outside.push_back(1e3 * (r.latency_s - r.done.seconds_queued -
                               r.done.seconds_running));
      batches.push_back(static_cast<double>(r.batches));
      queued.push_back(1e3 * r.done.seconds_queued);
      probe.push_back(1e3 * r.done.seconds_cache_probe);
      fan_out.push_back(1e3 * r.done.seconds_fan_out);
      stream_out.push_back(1e3 * r.done.seconds_stream_out);
      containers.push_back(static_cast<double>(r.done.containers_scanned));
      bytes.push_back(static_cast<double>(r.done.bytes_touched));
    }
    const auto& s0 = m.stats_before;
    const auto& s1 = m.stats_after;
    const double hits = CounterDelta(s0, s1, "query_cache_hits");
    const double contained = CounterDelta(s0, s1, "query_cache_containment");
    const double misses = CounterDelta(s0, s1, "query_cache_misses");
    const double probes = hits + contained + misses;
    const DirectTimings& d = traced_phase.phase.direct;
    const double traced_qps = traced_phase.Qps();
    metrics = {
        {"server.outside_job_ms", Mean(outside), "ms"},
        {"server.batches_per_query", Mean(batches), "count"},
        {"workbench.submit_ms", Median(d.submit), "ms"},
        {"workbench.queue_wait_ms", Mean(queued), "ms"},
        {"query.parse_plan_ms", Median(d.parse_plan), "ms"},
        {"query.execute_ms", Median(d.execute), "ms"},
        {"query.cache_probe_ms", Mean(probe), "ms"},
        {"query.fan_out_ms", Mean(fan_out), "ms"},
        {"query.stream_out_ms", Mean(stream_out), "ms"},
        {"query.containers_per_query", Mean(containers), "count"},
        {"query.bytes_touched_per_query", Mean(bytes), "B"},
        {"query.cache_hits_per_query", hits / denom, "count"},
        {"query.cache_containment_per_query", contained / denom, "count"},
        {"query.cache_misses_per_query", misses / denom, "count"},
        {"query.cache_answer_ratio", probes > 0 ? (hits + contained) / probes
                                                : 0.0,
         "ratio"},
        {"htm.cover_ms", Median(d.cover), "ms"},
        {"htm.cover_trixels", Mean(d.cover_trixels), "count"},
        {"catalog.bulk_load_s", setup_median(&SetupTimes::bulk_load), "s"},
        {"catalog.region_scan_ms", Median(d.region_scan), "ms"},
        {"archive.shard_build_s", setup_median(&SetupTimes::shard_build), "s"},
        {"archive.mydb_put_ms", Median(d.mydb_put), "ms"},
        {"persist.snapshot_write_ms", Median(d.snapshot_write), "ms"},
        {"persist.journal_fsync_ms",
         HistogramMeanDelta(s0, s1, "persist_journal_fsync_us") / 1e3, "ms"},
        {"persist.recover_s", *recover_s, "s"},
        {"proc.threads_created_per_query", forks / denom, "count"},
        {"proc.ctx_switches_per_query", ctx / denom, "count"},
        {"proc.steal_pct", steal_pct, "%"},
        {"trace.overhead_pct",
         m.Qps() > 0 ? 100.0 * (m.Qps() - traced_qps) / m.Qps() : 0.0, "%"},
    };
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/trace-" + name + "-seed" +
                             std::to_string(args.seed) + ".json";
    std::ofstream(path) << spans.ToChromeJson(name);
    std::fprintf(stderr, "trace: %zu spans -> %s\n", spans.size(),
                 path.c_str());
  }

  archive.reset();
  recovered.reset();
  std::filesystem::remove_all(base, ec);

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", " : "") + Json(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " + Json(metrics[i].unit) +
            "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <cone_search|full_sweep|"
                 "mining_session> --seed <n> --seconds <s> --trace <0|1> "
                 "[--objects <n>] [--selftest] [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  return servebench::Run(args);
}
