#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "archive/mydb.h"
#include "catalog/object_store.h"
#include "htm/cover.h"
#include "htm/region.h"
#include "persist/snapshot.h"
#include "query/parser.h"
#include "query/qet.h"
#include "server/client.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;
using sdss::catalog::ObjClass;
using sdss::catalog::PhotoObj;

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  size_t Index(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t s_;
};

/// A cone of the given radius range centred on a random catalog object:
/// always inside the footprint, and placed where objects are.
Cone RandomCone(const Reference& ref, Rng* rng, double min_radius,
                double max_radius) {
  const size_t i = rng->Index(ref.size());
  return Cone{ref.RaDeg(i), ref.DecDeg(i),
              rng->Uniform(min_radius, max_radius)};
}

Statement Make(Op op, Predicate where) {
  Statement s;
  s.op = op;
  s.where = std::move(where);
  return s;
}

Predicate ConeOnly(const Cone& cone) {
  Predicate p;
  p.cone = cone;
  return p;
}

/// cone_search: a row select, a COUNT with a magnitude cut and a top-N
/// by r, each at a fresh cone of radius 0.5-3 deg.
void ConeRound(const Reference& ref, Rng* rng, Round* round) {
  round->stmts.push_back(Make(Op::kRows, ConeOnly(RandomCone(ref, rng, 0.5, 3))));
  Predicate counted = ConeOnly(RandomCone(ref, rng, 0.5, 3));
  counted.r_below = rng->Uniform(18.0, 22.0);
  round->stmts.push_back(Make(Op::kCount, counted));
  Statement top = Make(Op::kTopN, ConeOnly(RandomCone(ref, rng, 0.5, 3)));
  top.limit = 20;
  round->stmts.push_back(top);
}

/// full_sweep: whole-catalog statements with fresh thresholds.
void SweepRound(const Reference& ref, Rng* rng, uint64_t k, Round* round) {
  Predicate color;
  color.color_below = rng->Uniform(0.2, 1.2);
  round->stmts.push_back(Make(Op::kCount, color));

  static constexpr Op kAggs[] = {Op::kAvg, Op::kMin, Op::kMax};
  static constexpr ObjClass kClasses[] = {ObjClass::kGalaxy, ObjClass::kStar,
                                          ObjClass::kQuasar};
  Predicate cls;
  cls.obj_class = static_cast<int>(kClasses[(k / 3) % 3]);
  cls.color_below = rng->Uniform(0.0, 1.5);
  round->stmts.push_back(Make(kAggs[k % 3], cls));

  Predicate red;
  red.color_above = rng->Uniform(0.5, 1.5);
  Statement top = Make(Op::kTopN, red);
  top.limit = 50;
  round->stmts.push_back(top);

  // A tight cut keeping the 200-400 brightest objects.
  Predicate bright;
  bright.r_below = ref.RthSmallestR(200 + rng->Index(201));
  round->stmts.push_back(Make(Op::kRows, bright));
}

/// Fields a miner works before the next user identity takes over; keeps
/// every user far inside the MyDB quota.
constexpr uint64_t kFieldsPerUser = 8;
/// The INTO cut keeps about this many of a field's objects.
constexpr size_t kIntoObjects = 250;

/// mining_session: one field of one user -- a base cone select, its
/// refinements (answered from the cache), an INTO, and mining of the
/// saved table.
void MiningRound(const Reference& ref, Rng* rng, uint64_t k, Round* round) {
  const Cone field = RandomCone(ref, rng, 3.0, 4.0);
  const std::string table = "f" + std::to_string(k);

  round->stmts.push_back(Make(Op::kRows, ConeOnly(field)));
  Predicate cut = ConeOnly(field);
  cut.r_below = rng->Uniform(19.5, 21.5);
  round->stmts.push_back(Make(Op::kRows, cut));
  cut.color_below = rng->Uniform(0.3, 1.0);
  round->stmts.push_back(Make(Op::kCount, cut));
  Cone sub = field;
  sub.radius = rng->Uniform(0.5, 1.0);
  round->stmts.push_back(Make(Op::kRows, ConeOnly(sub)));
  round->stmts.push_back(Make(Op::kRows, ConeOnly(field)));
  Statement top = Make(Op::kTopN, ConeOnly(field));
  top.limit = 20;
  round->stmts.push_back(top);

  // Save the field's kIntoObjects brightest objects.
  std::vector<size_t> sure, edge;
  ref.Select(ConeOnly(field), nullptr, &sure, &edge);
  std::vector<double> rs;
  for (size_t i : sure) rs.push_back(ref.Attr(i, "r"));
  std::sort(rs.begin(), rs.end());
  Predicate into = ConeOnly(field);
  into.r_below = rs.size() > kIntoObjects ? rs[kIntoObjects] : 99.0;
  Statement save = Make(Op::kInto, into);
  save.table = table;
  round->stmts.push_back(save);

  Predicate mine;
  mine.color_below = rng->Uniform(0.3, 1.0);
  Statement count = Make(Op::kCount, mine);
  count.table = table;
  round->stmts.push_back(count);
  Statement avg = Make(Op::kAvg, Predicate{});
  avg.table = table;
  round->stmts.push_back(avg);
  Statement max = Make(Op::kMax, Predicate{});
  max.agg_attr = "u";
  max.table = table;
  round->stmts.push_back(max);
  Statement best = Make(Op::kTopN, Predicate{});
  best.limit = 10;
  best.table = table;
  round->stmts.push_back(best);
}

/// Direct calls are heavy (a second fleet pass, a MyDB write); they run
/// after every kHeavyEvery-th statement of a caller. 5 is coprime with
/// every round length (3, 4, 11), so they rotate over statement kinds.
constexpr uint64_t kHeavyEvery = 5;

/// Shared state of a traced phase's direct calls.
struct Tracing {
  SpanLog* spans = nullptr;
  std::unique_ptr<sdss::archive::MyDb> probe_mydb;
  std::string snap_dir;
};

sdss::htm::Region RegionOf(const Statement& st) {
  if (st.where.cone) {
    const Cone& c = *st.where.cone;
    return sdss::htm::Region::Circle(c.ra, c.dec, c.radius);
  }
  // A statement without a cone reads the whole sphere.
  return sdss::htm::Region::Circle(0.0, 0.0, 180.0);
}

/// kIntoObjects objects for the write probes: the statement's own
/// matches first, topped up with catalog objects.
std::vector<PhotoObj> IntoSizedSet(const Reference& ref,
                                   const std::vector<PhotoObj>& sky,
                                   const Statement& st, uint64_t salt) {
  std::vector<PhotoObj> objects;
  objects.reserve(kIntoObjects);
  if (!st.reads_mydb()) {
    std::vector<size_t> sure, edge;
    ref.Select(st.where, nullptr, &sure, &edge);
    for (size_t i : sure) {
      if (objects.size() == kIntoObjects) break;
      objects.push_back(sky[ref.sky_index(i)]);
    }
  }
  for (size_t i = salt % sky.size(); objects.size() < kIntoObjects;
       i = (i + 1) % sky.size()) {
    objects.push_back(sky[i]);
  }
  return objects;
}

/// The traced run's direct calls for one served statement, each timed
/// and recorded as a span of the statement.
void DirectCalls(ServedArchive& archive, const Reference& ref,
                 const std::vector<PhotoObj>& sky, const Statement& st,
                 const std::string& user, int lane, uint64_t id, bool heavy,
                 Tracing* tracing, DirectTimings* d) {
  SpanLog* spans = tracing->spans;
  const std::string sql = st.Sql();
  sdss::query::MyDbResolver resolver;
  if (st.reads_mydb()) resolver = archive.mydb().ResolverFor(user);

  auto t = Clock::now();
  auto parsed = sdss::query::Parse(sql);
  if (parsed.ok()) {
    sdss::query::PlannerOptions popt;
    popt.mydb = resolver;
    auto plan = sdss::query::BuildPlan(*parsed, archive.source(), popt);
    (void)plan;
  }
  d->parse_plan.push_back(MsSince(t));
  spans->Add("query.parse_plan", t, lane, id);

  const sdss::htm::Region region = RegionOf(st);
  t = Clock::now();
  const sdss::htm::CoverResult cover =
      sdss::htm::Cover(region, archive.source().cluster_level());
  d->cover.push_back(MsSince(t));
  spans->Add("htm.cover", t, lane, id);
  d->cover_trixels.push_back(
      static_cast<double>(cover.full.size() + cover.partial.size()));

  if (!heavy) return;
  if (st.op != Op::kInto) {
    t = Clock::now();
    auto job = archive.scheduler().Submit(user, sql);
    d->submit.push_back(MsSince(t));
    spans->Add("workbench.submit", t, lane, id);
    if (job.ok()) {
      (void)archive.scheduler().Wait(*job);
      (void)archive.scheduler().TakeResult(*job);
    }

    sdss::query::ExecContext ctx;
    ctx.no_result_cache = true;
    ctx.mydb = resolver;
    t = Clock::now();
    auto result = archive.engine().Execute(sql, ctx);
    d->execute.push_back(MsSince(t));
    spans->Add("query.execute", t, lane, id);
  }

  const sdss::catalog::ObjectStore* store = &archive.source();
  if (st.reads_mydb()) {
    auto table = archive.mydb().Find(user, st.table);
    if (table.ok()) store = *table;
  }
  uint64_t seen = 0;
  t = Clock::now();
  store->QueryRegion(region, [&seen](const PhotoObj&) { ++seen; });
  d->region_scan.push_back(MsSince(t));
  spans->Add("catalog.region_scan", t, lane, id);

  std::vector<PhotoObj> objects = IntoSizedSet(ref, sky, st, id);
  sdss::catalog::ObjectStore saved;
  (void)saved.BulkLoad(objects);
  t = Clock::now();
  (void)tracing->probe_mydb->Put("probe" + std::to_string(lane),
                                 "p" + std::to_string(id), std::move(objects));
  d->mydb_put.push_back(MsSince(t));
  spans->Add("archive.mydb_put", t, lane, id);

  sdss::persist::SnapshotWriter writer(tracing->snap_dir + "/lane" +
                                       std::to_string(lane) + ".snap");
  t = Clock::now();
  (void)writer.Write(saved);
  d->snapshot_write.push_back(MsSince(t));
  spans->Add("persist.snapshot_write", t, lane, id);
}

void Caller(ServedArchive& archive, const Reference& ref,
            const std::vector<PhotoObj>& sky, const PhaseOptions& opt,
            int caller, Clock::time_point start, Clock::time_point deadline,
            Tracing* tracing,
            std::vector<Record>* out, DirectTimings* direct) {
  std::optional<sdss::server::Client> conn;
  std::string conn_user;
  uint64_t seq = 0;
  const int lane = caller + 1;
  for (uint64_t k = 0;; ++k) {
    if (k > 0 && (Clock::now() >= deadline ||
                  (opt.done_early && opt.done_early()))) {
      break;
    }
    const Round round =
        MakeRound(opt.workload, ref, opt.seed, caller, opt.round_base + k);
    const std::string user = opt.user_prefix + round.user;
    for (const Statement& st : round.stmts) {
      Record rec;
      rec.stmt = st;
      rec.user = user;
      const uint64_t id = (static_cast<uint64_t>(lane) << 32) | ++seq;
      if (!conn || conn_user != user) {
        if (conn) (void)conn->Bye();
        conn.reset();
        auto fresh = sdss::server::Client::Connect("127.0.0.1",
                                                   archive.port(), user);
        if (!fresh.ok()) {
          rec.error = "connect: " + fresh.status().ToString();
          out->push_back(std::move(rec));
          continue;
        }
        conn.emplace(std::move(fresh).value());
        conn_user = user;
      }
      const std::string sql = st.Sql();
      Answer answer;
      uint64_t batches = 0;
      const auto t0 = Clock::now();
      auto result = conn->Query(sql, [&](const sdss::query::RowBatch& batch) {
        ++batches;
        for (const auto& row : batch) answer.Add(row.obj_id, row.values);
        return true;
      });
      rec.latency_s = MsSince(t0) / 1e3;
      rec.end_s = MsSince(start) / 1e3;
      if (tracing != nullptr) tracing->spans->Add("served.query", t0, lane, id);
      rec.answer = answer;
      rec.batches = batches;
      if (!result.ok()) {
        rec.error = result.status().ToString();
        conn.reset();
      } else if (result->kind == sdss::server::QueryOutcome::Kind::kDone) {
        rec.outcome = Record::Outcome::kDone;
        rec.done = result->done;
      } else if (result->kind == sdss::server::QueryOutcome::Kind::kError) {
        rec.outcome = Record::Outcome::kError;
        rec.error = result->error.message;
      } else {
        rec.outcome = Record::Outcome::kBusy;
        rec.error = "BUSY";
      }
      if (tracing != nullptr && rec.outcome == Record::Outcome::kDone) {
        DirectCalls(archive, ref, sky, st, user, lane, id,
                    seq % kHeavyEvery == 0, tracing, direct);
      }
      out->push_back(std::move(rec));
    }
  }
  if (conn) (void)conn->Bye();
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kConeSearch, Workload::kFullSweep,
                     Workload::kMiningSession}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kConeSearch:
      return "cone_search";
    case Workload::kFullSweep:
      return "full_sweep";
    case Workload::kMiningSession:
      return "mining_session";
  }
  return "?";
}

int Sessions(Workload w) { return w == Workload::kFullSweep ? 1 : 2; }

Round MakeRound(Workload w, const Reference& ref, uint64_t seed, int caller,
                uint64_t round) {
  Rng rng(seed * 0x100000001b3ull ^
          (static_cast<uint64_t>(w) << 56) ^
          (static_cast<uint64_t>(caller) << 48) ^ round);
  rng.Next();
  Round r;
  switch (w) {
    case Workload::kConeSearch:
      r.user = "cone" + std::to_string(caller);
      ConeRound(ref, &rng, &r);
      break;
    case Workload::kFullSweep:
      r.user = "sweep" + std::to_string(caller);
      SweepRound(ref, &rng, round, &r);
      break;
    case Workload::kMiningSession:
      r.user = "miner" + std::to_string(caller) + "g" +
               std::to_string(round / kFieldsPerUser);
      MiningRound(ref, &rng, round, &r);
      break;
  }
  return r;
}

void DirectTimings::Merge(const DirectTimings& o) {
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&parse_plan, o.parse_plan);
  cat(&cover, o.cover);
  cat(&cover_trixels, o.cover_trixels);
  cat(&submit, o.submit);
  cat(&execute, o.execute);
  cat(&region_scan, o.region_scan);
  cat(&mydb_put, o.mydb_put);
  cat(&snapshot_write, o.snapshot_write);
}

PhaseResult RunPhase(ServedArchive& archive, const Reference& ref,
                     const std::vector<PhotoObj>& sky,
                     const PhaseOptions& options, Clock::time_point start) {
  std::unique_ptr<Tracing> tracing;
  if (options.spans != nullptr) {
    tracing = std::make_unique<Tracing>();
    tracing->spans = options.spans;
    sdss::archive::MyDb::Options mopt;
    mopt.persist_dir = archive.dir() + "/probe_mydb";
    mopt.per_user_quota_bytes = 1ull << 40;
    tracing->probe_mydb = std::make_unique<sdss::archive::MyDb>(mopt);
    (void)tracing->probe_mydb->AttachStorage();
    tracing->snap_dir = archive.dir() + "/probe_snap";
    std::filesystem::create_directories(tracing->snap_dir);
  }
  const int n = Sessions(options.workload);
  std::vector<std::vector<Record>> records(n);
  std::vector<DirectTimings> direct(n);
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> callers;
  for (int c = 0; c < n; ++c) {
    callers.emplace_back([&, c] {
      Caller(archive, ref, sky, options, c, start, deadline, tracing.get(),
             &records[c], &direct[c]);
    });
  }
  for (auto& t : callers) t.join();
  PhaseResult result;
  result.wall_s = MsSince(start) / 1e3;
  for (int c = 0; c < n; ++c) {
    for (auto& r : records[c]) result.records.push_back(std::move(r));
    result.direct.Merge(direct[c]);
  }
  return result;
}

}  // namespace servebench
