// The archive, started in-process the way it is served: a replicated
// shard fleet behind the federated engine with its result cache on, a
// durable job scheduler and a durable MyDB, and the TCP query server on
// loopback. The benchmark talks to it through server::Client only; the
// members are exposed for the traced run's direct calls.

#ifndef SERVEBENCH_SERVED_H_
#define SERVEBENCH_SERVED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/object_store.h"
#include "core/metrics.h"
#include "core/status.h"
#include "query/federated_engine.h"
#include "server/server.h"
#include "workbench/scheduler.h"

namespace servebench {

/// The served configuration (README, "Served configuration").
struct ServedShape {
  static constexpr size_t kServers = 4;
  static constexpr size_t kReplicas = 2;
  static constexpr size_t kScanThreads = 4;
  static constexpr size_t kQuickWorkers = 2;
  static constexpr size_t kLongWorkers = 1;
  /// The result cache's own default budget.
  static constexpr size_t kResultCacheBytes = 8u << 20;
  static constexpr size_t kRetainedJobs = 1024;
};

/// Wall time of each start-up step, seconds.
struct SetupTimes {
  double bulk_load = 0.0;    ///< ObjectStore::BulkLoad of the catalog.
  double shard_build = 0.0;  ///< ShardedStore construction.
  double engine = 0.0;       ///< FederatedQueryEngine construction.
  double durable = 0.0;      ///< MyDb::AttachStorage + RecoverFrom.
  double server = 0.0;       ///< QueryServer::Start.
  double total = 0.0;
};

class ServedArchive {
 public:
  /// Builds and starts the whole stack over `objects`, with its durable
  /// state under `dir` (created; must not hold an earlier run's state).
  static sdss::Result<std::unique_ptr<ServedArchive>> Start(
      std::vector<sdss::catalog::PhotoObj> objects, const std::string& dir,
      SetupTimes* times);

  ~ServedArchive();
  ServedArchive(const ServedArchive&) = delete;
  ServedArchive& operator=(const ServedArchive&) = delete;

  /// Stops the server, then the scheduler (joining its workers) and
  /// closes MyDB, leaving the durable state on disk. The fleet, the
  /// engine and the source store stay up for direct calls.
  void StopServing();

  uint16_t port() const { return server_->port(); }
  const std::string& dir() const { return dir_; }
  std::string mydb_dir() const { return dir_ + "/mydb"; }
  std::string jobs_dir() const { return dir_ + "/jobs"; }

  const sdss::catalog::ObjectStore& source() const { return source_; }
  sdss::query::FederatedQueryEngine& engine() { return *engine_; }
  sdss::workbench::JobScheduler& scheduler() { return *scheduler_; }
  sdss::archive::MyDb& mydb() { return *mydb_; }
  sdss::query::ResultCache* cache() { return engine_->result_cache(); }

 private:
  explicit ServedArchive(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  sdss::metrics::Registry registry_;
  sdss::catalog::ObjectStore source_;
  std::unique_ptr<sdss::archive::ShardedStore> fleet_;
  std::unique_ptr<sdss::query::FederatedQueryEngine> engine_;
  std::unique_ptr<sdss::archive::MyDb> mydb_;
  std::unique_ptr<sdss::workbench::JobScheduler> scheduler_;
  std::unique_ptr<sdss::server::QueryServer> server_;
};

/// A fresh, empty scheduler + MyDB recovering `archive`'s durable state,
/// as a restart would: MyDb::AttachStorage, then RecoverFrom. Returns the
/// wall time in seconds; `tables` receives the recovered MyDB.
sdss::Result<double> Recover(ServedArchive& archive,
                             std::unique_ptr<sdss::archive::MyDb>* tables);

}  // namespace servebench

#endif  // SERVEBENCH_SERVED_H_
