#include "served.h"

#include <chrono>
#include <filesystem>
#include <utility>

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

sdss::workbench::JobScheduler::Options LaneOptions(
    sdss::metrics::Registry* registry) {
  sdss::workbench::JobScheduler::Options lanes;
  lanes.quick_workers = ServedShape::kQuickWorkers;
  lanes.long_workers = ServedShape::kLongWorkers;
  lanes.max_retained_terminal_jobs = ServedShape::kRetainedJobs;
  lanes.metrics = registry;
  return lanes;
}

}  // namespace

sdss::Result<std::unique_ptr<ServedArchive>> ServedArchive::Start(
    std::vector<sdss::catalog::PhotoObj> objects, const std::string& dir,
    SetupTimes* times) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return sdss::Status::IOError("create " + dir + ": " + ec.message());
  std::unique_ptr<ServedArchive> a(new ServedArchive(dir));
  const auto t0 = Clock::now();

  auto t = Clock::now();
  SDSS_RETURN_IF_ERROR(a->source_.BulkLoad(std::move(objects)));
  times->bulk_load = Since(t);

  t = Clock::now();
  sdss::archive::ReplicationOptions repl;
  repl.num_servers = ServedShape::kServers;
  repl.base_replicas = ServedShape::kReplicas;
  a->fleet_ = std::make_unique<sdss::archive::ShardedStore>(a->source_, repl);
  auto shards = a->fleet_->LiveShards();
  if (!shards.ok()) return shards.status();
  times->shard_build = Since(t);

  t = Clock::now();
  sdss::query::FederatedQueryEngine::Options eopt;
  eopt.executor.scan_threads = ServedShape::kScanThreads;
  eopt.result_cache_bytes = ServedShape::kResultCacheBytes;
  sdss::archive::ShardedStore* fleet = a->fleet_.get();
  eopt.cache_epoch_source = [fleet] { return fleet->Epoch(); };
  eopt.metrics = &a->registry_;
  a->engine_ = std::make_unique<sdss::query::FederatedQueryEngine>(
      std::move(shards).value(), eopt);
  times->engine = Since(t);

  t = Clock::now();
  sdss::archive::MyDb::Options mopt;
  mopt.persist_dir = a->mydb_dir();
  a->mydb_ = std::make_unique<sdss::archive::MyDb>(mopt);
  auto attached = a->mydb_->AttachStorage();
  if (!attached.ok()) return attached.status();
  a->scheduler_ = std::make_unique<sdss::workbench::JobScheduler>(
      a->engine_.get(), a->mydb_.get(), LaneOptions(&a->registry_));
  auto recovered = a->scheduler_->RecoverFrom(a->jobs_dir());
  if (!recovered.ok()) return recovered.status();
  times->durable = Since(t);

  t = Clock::now();
  sdss::server::ServerOptions sopt;
  sopt.metrics = &a->registry_;
  a->server_ = std::make_unique<sdss::server::QueryServer>(a->scheduler_.get(),
                                                           sopt);
  SDSS_RETURN_IF_ERROR(a->server_->Start());
  times->server = Since(t);
  times->total = Since(t0);
  return a;
}

ServedArchive::~ServedArchive() { StopServing(); }

void ServedArchive::StopServing() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  scheduler_.reset();
  mydb_.reset();
}

sdss::Result<double> Recover(ServedArchive& archive,
                             std::unique_ptr<sdss::archive::MyDb>* tables) {
  const auto t = Clock::now();
  sdss::archive::MyDb::Options mopt;
  mopt.persist_dir = archive.mydb_dir();
  auto mydb = std::make_unique<sdss::archive::MyDb>(mopt);
  auto attached = mydb->AttachStorage();
  if (!attached.ok()) return attached.status();
  sdss::metrics::Registry registry;
  sdss::workbench::JobScheduler scheduler(&archive.engine(), mydb.get(),
                                          LaneOptions(&registry));
  auto recovered = scheduler.RecoverFrom(archive.jobs_dir());
  if (!recovered.ok()) return recovered.status();
  const double seconds = Since(t);
  *tables = std::move(mydb);
  return seconds;
}

}  // namespace servebench
