// CubrickServer: one Cubrick instance running on one cluster server,
// implementing the Shard Manager AppServer endpoints (Section IV).
//
// Responsibilities:
//  * hosting shard data: the table partitions the catalog maps into each
//    owned shard;
//  * addShard(): discovering which partitions travel with the shard,
//    creating metadata, and recovering data — from the old server on a
//    live migration (prepareAddShard) or from a healthy region on a
//    failover (Section IV-E);
//  * shard-collision detection: refusing (non-retryably) any shard whose
//    tables already have a different partition on this host (IV-A);
//  * request forwarding during graceful migrations (prepareDropShard);
//  * adaptive compression: hotness counters with stochastic decay and a
//    memory monitor that compresses coldest-first under pressure,
//    decompresses hottest-first under surplus, and (generation 3) evicts
//    to SSD (IV-F);
//  * exporting per-shard load metrics and host capacity to SM (IV-F):
//    "memory_footprint" (gen 1), "decompressed_size" (gen 2),
//    "ssd_footprint" (gen 3).

#ifndef SCALEWALL_CUBRICK_SERVER_H_
#define SCALEWALL_CUBRICK_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/cache.h"
#include "cache/lru_cache.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "cubrick/catalog.h"
#include "exec/cancel.h"
#include "exec/morsel.h"
#include "exec/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "cubrick/partition.h"
#include "cubrick/query.h"
#include "cubrick/replicated_table.h"
#include "sim/simulation.h"
#include "sm/app_server.h"

namespace scalewall::admit {
class FairShareTree;
}  // namespace scalewall::admit

namespace scalewall::cubrick {

class CubrickServer;

// Resolves cluster servers to their Cubrick instances within one region
// (used for live-migration copies and request forwarding). Wired by the
// deployment.
class ServerDirectory {
 public:
  virtual ~ServerDirectory() = default;
  virtual CubrickServer* Lookup(cluster::ServerId server) const = 0;
};

struct CubrickServerOptions {
  // Generation-1 capacity: fraction of physical memory exported to SM
  // ("90% of the available memory to save memory for kernel and other
  // basic services").
  double reserved_memory_fraction = 0.9;
  // Generation-2 capacity multiplier: "the current host's memory capacity
  // multiplied by the average compression ratio observed in production".
  double avg_compression_ratio = 2.5;
  // Memory-monitor watermarks (fractions of physical memory).
  double high_watermark = 0.90;
  double target_watermark = 0.80;
  double low_watermark = 0.60;
  SimDuration monitor_interval = 1 * kMinute;
  // Stochastic hotness decay: each brick decrements with this probability
  // every decay round.
  SimDuration decay_interval = 1 * kHour;
  double decay_probability = 0.5;
  // Generation 3: evict coldest compressed bricks to SSD under pressure.
  bool enable_ssd_eviction = false;
  // Cap on chained request forwarding (migration races).
  int max_forward_hops = 4;
  // Intra-host parallel execution (scalewall::exec): worker threads for
  // morsel-driven partition scans. 0 or 1 keeps the serial path (and
  // spawns no pool); > 1 creates a work-stealing pool the server fans
  // partition scans and their morsels across. Results are identical to
  // the serial path regardless of the setting (fixed-order merge).
  int scan_workers = 0;
  // Rows per morsel on the parallel path.
  size_t morsel_rows = exec::kDefaultMorselRows;
  // Partial-result cache budget in (approximate) bytes; 0 disables the
  // cache. Entries are keyed (canonical query fingerprint, partition)
  // and stamped with the partition's epoch at scan time: a hit whose
  // epoch no longer matches is provably stale and treated as a miss
  // (plus invalidation), so a hit is always byte-identical to a re-scan.
  size_t result_cache_bytes = 0;
  // Unified metrics registry this server's Stats counters register into,
  // labeled server="<id>" (null = standalone counters).
  obs::MetricsRegistry* metrics = nullptr;
  // Virtual scan-queue depth: how many partition scans this host can
  // service concurrently in *modeled* time. When > 0 every subquery
  // dispatched here reserves a slot for its sampled service time; a
  // dispatch that finds all slots busy waits for the earliest release,
  // and that wait is charged to the query's latency. This is what makes
  // the backend degrade under overload (waits compound) instead of
  // serving unlimited concurrent scans for free — and the queue length
  // is the overload signal the proxy's admission control sheds on.
  // 0 disables the model entirely (the seed behaviour).
  int virtual_scan_slots = 0;
};

// Point-in-time overload signal a server exports to the proxy's
// admission pipeline (CubrickServer::CurrentOverload).
struct OverloadSignal {
  // Scans still occupying / waiting for virtual scan slots.
  size_t scan_backlog = 0;
  // Exec-pool task queue depth (0 without a pool; the pool drains
  // between queries in simulated time, so backlog dominates).
  size_t queue_depth = 0;
  // Combined score: backlog (and pool queue) relative to the host's
  // service capacity. 0 = idle, 1 ≈ saturated, > 1 = queue building.
  double score = 0.0;
};

// Result of a partition-local (partial) query execution.
struct PartialResult {
  QueryResult result;
  // Extra network hops taken because the request was forwarded by a
  // server that had handed the shard off (graceful migration window).
  int forward_hops = 0;
  // The partition's freshness epoch observed when this partial was
  // produced (0 for an empty never-materialized partition). The
  // coordinator assembles these into the epoch vector the proxy's
  // merged-result cache validates against.
  uint64_t epoch = 0;
  // Whether this partial was served from the server's result cache.
  bool cache_hit = false;
};

// One partial-result cache entry: the partition's epoch at scan time
// plus the partial aggregation state it produced. Join queries also
// record the epochs of the joined dimension tables (one per
// Query::joins entry): a hit is valid only when the partition epoch
// AND every dim epoch still match, so dim updates invalidate exactly
// like partition writes do — this is what lifted the old
// joins-never-cached carve-out.
struct CachedPartial {
  uint64_t epoch = 0;
  std::vector<uint64_t> dim_epochs;
  QueryResult result;
};
// (canonical query fingerprint, partition) — the epoch lives in the
// value and mismatches invalidate, so the key space stays bounded by
// the distinct-query working set instead of growing with every bump.
using PartialCacheKey = std::pair<std::string, uint32_t>;
using PartialResultCache = cache::LruCache<PartialCacheKey, CachedPartial>;

class CubrickServer : public sm::AppServer {
 public:
  // `catalog` is the deployment-wide table metadata; all pointers must
  // outlive the server. `simulation` is the server's clock: null means a
  // real process (scalewall_node) on the wall clock, whose partition
  // spans carry measured scan time instead of a frozen sim instant, and
  // which runs no monitors. `cluster` may be null there too (no host
  // capacity to export).
  CubrickServer(sim::Simulation* simulation, cluster::Cluster* cluster,
                Catalog* catalog, cluster::ServerId server,
                CubrickServerOptions options = {});

  // Same-region instance lookup (live migration copies, forwarding).
  void SetDirectory(const ServerDirectory* directory) {
    directory_ = directory;
  }
  // Cross-region recovery: returns a healthy server holding (table,
  // partition) outside this server's region, or nullptr.
  using RecoverySource = std::function<CubrickServer*(
      const std::string& table, uint32_t partition)>;
  void SetRecoverySource(RecoverySource source) {
    recovery_source_ = std::move(source);
  }

  // Arms the memory monitor and hotness decay clocks.
  void StartMonitors();

  // --- sm::AppServer ---
  cluster::ServerId server_id() const override { return server_; }
  Status AddShard(sm::ShardId shard, sm::ShardRole role) override;
  Status DropShard(sm::ShardId shard) override;
  Status PrepareAddShard(sm::ShardId shard, cluster::ServerId from) override;
  Status PrepareDropShard(sm::ShardId shard, cluster::ServerId to) override;
  double ShardLoad(sm::ShardId shard, std::string_view metric) const override;
  double Capacity(std::string_view metric) const override;

  // --- data plane ---

  // Inserts rows into a hosted partition (follows forwarding during
  // migrations). Creates the partition lazily if the shard is owned.
  Status InsertRows(const std::string& table, uint32_t partition,
                    const std::vector<Row>& rows);

  // --- replicated dimension tables (Section II-B) ---

  // Installs (or overwrites) this server's full copy of a replicated
  // dimension table (the copy carries the master's epoch).
  void SetReplicatedTable(const ReplicatedTable& table);
  // Applies entries to the local copy (creating it from `info` if
  // absent). `epoch`, when nonzero, stamps the copy afterwards — the
  // deployment draws ONE NextPartitionEpoch() per batch and passes it
  // to every replica, so all copies agree.
  Status UpsertReplicatedEntries(const ReplicatedTableInfo& info,
                                 const std::vector<DimensionEntry>& entries,
                                 uint64_t epoch = 0);
  void DropReplicatedTable(const std::string& name);
  const ReplicatedTable* GetReplicatedTable(const std::string& name) const;

  // Shuffle-join stage 2 (planner.h): maps one bucket of stage-1 groups
  // through this server's local dim replicas — raw join keys become
  // attributes, join filters and inner-join drops apply, groups re-key.
  // kUnavailable when a referenced dim is not resident here.
  Result<QueryResult> MapShuffleGroups(const Query& query,
                                       const QueryResult& bucket) const;

  // Executes the partial query for `partition` of query.table. With
  // scan_workers > 1 the partition's bricks are scanned morsel-parallel
  // on the server's pool; `cancel` (e.g. the coordinator's
  // deadline-budget token) aborts between morsels with kCancelled.
  // `trace` (optional) is the coordinator's subquery span: the server
  // records a partition span (and, on the parallel path, per-morsel
  // spans) under it, anchored at sim-time `trace_time` (-1 = the
  // simulation's current time).
  // With a result cache configured (result_cache_bytes > 0) the scan is
  // preceded by a cache lookup honoring `cache_policy`; `fingerprint`
  // (optional) is the precomputed CanonicalQueryFingerprint(query) so
  // coordinators fanning one query across many partitions canonicalize
  // it once. The lookup is cancel-safe: a cancelled token short-circuits
  // to kCancelled before a hit is served, and a scan that raced a
  // cancellation never populates the cache.
  // `dims_override` (optional) backs the query's joins with the given
  // tables instead of this server's resident replicas — the broadcast
  // join strategy ships dim snapshots with the subquery and passes the
  // decoded copies here.
  // `pool` (optional) is the normalized fair-share pool path of the
  // admitted claim: partition scan tasks are tagged with it on the exec
  // pool (weighted stride picking under contention) and measured scan
  // time is charged back to it through the attached FairShareTree.
  Result<PartialResult> ExecutePartial(
      const Query& query, uint32_t partition, int hop_budget = -1,
      const exec::CancelToken* cancel = nullptr,
      obs::TraceContext trace = {}, SimTime trace_time = -1,
      cache::CachePolicy cache_policy = cache::CachePolicy::kDefault,
      const std::string* fingerprint = nullptr,
      const JoinContext* dims_override = nullptr,
      const std::string* pool = nullptr);

  // The differential-test hook: every later ExecutePartial on this
  // server scans with `path` (kInterpreted runs the row-at-a-time
  // oracle, whose results are byte-identical to the vectorized
  // default; pair it with CachePolicy::kBypass so the oracle really
  // scans). Not synchronized with scans: call it only while no query
  // runs on this server. No node calls it.
  void SetScanPathForTesting(exec::ScanPath path) { scan_path_ = path; }

  // Current freshness epoch of one hosted partition, following
  // forwarding like ExecutePartial (0 = owned but never materialized).
  // The cheap validation probe behind the proxy's merged-result cache:
  // one metadata roundtrip instead of a full fan-out scan.
  Result<uint64_t> PartitionEpoch(const std::string& table,
                                  uint32_t partition,
                                  int hop_budget = -1) const;

  // The server's exec pool (null when scan_workers <= 1).
  exec::ThreadPool* exec_pool() { return exec_pool_.get(); }

  // Attaches the admission controller's fair-share tree (usually the
  // deployment proxy's): pool-tagged scans charge their measured
  // wall-clock scan time back to the owning pool through it, and the
  // exec pool's stride weights follow the tree's configured weights.
  // Null (the default) disables the charge-back; scans still execute.
  void SetPoolTree(admit::FairShareTree* tree) { pool_tree_ = tree; }
  admit::FairShareTree* pool_tree() const { return pool_tree_; }

  // --- virtual scan queue (overload model) ---

  // Reserves a virtual scan slot for a subquery dispatched at `now`
  // taking `service` of modeled time, returning how long the dispatch
  // had to wait for a free slot (0 with free slots, or when the model
  // is disabled). Deterministic: driven purely by sim-time and the
  // sampled service durations, never by wall-clock measurements.
  SimDuration EnqueueScan(SimTime now, SimDuration service);

  // The server's current overload signal: virtual-scan backlog plus
  // exec-pool queue depth, folded into a single score the proxy's
  // admission control sheds on. Purges completed reservations first.
  OverloadSignal CurrentOverload(SimTime now);

  // True if this server holds data for the partition (owned or staged).
  bool HasPartition(const std::string& table, uint32_t partition) const;
  bool OwnsShard(sm::ShardId shard) const {
    return owned_shards_.count(shard) > 0;
  }
  // Migration-window introspection (tests/diagnostics).
  bool IsStaged(sm::ShardId shard) const {
    return staged_shards_.count(shard) > 0;
  }
  cluster::ServerId ForwardingTarget(sm::ShardId shard) const {
    auto it = forwarding_.find(shard);
    return it == forwarding_.end() ? cluster::kInvalidServer : it->second;
  }

  // Copies all data of `shard` out (live-migration source side).
  std::vector<std::pair<PartitionRef, std::vector<Row>>> SnapshotShard(
      sm::ShardId shard) const;

  // Copies one hosted partition's rows out (repartition shuffles).
  Result<std::vector<Row>> ExportPartition(const std::string& table,
                                           uint32_t partition) const;

  // Replaces the local copy of one partition with `rows`. Used by the
  // migration cutover re-sync: prepareDropShard pushes the old server's
  // *current* data to the target before enabling forwarding, so writes
  // accepted between the prepareAddShard copy and the cutover are not
  // lost when the old copy is dropped.
  void ReplacePartitionData(const PartitionRef& ref,
                            const std::vector<Row>& rows);

  // Drops all local data/metadata of `table` (table drop, repartition).
  void DropTableData(const std::string& table);

  // Clears all state (a server process restarting after repair comes
  // back empty — Cubrick is in-memory).
  void Reset();

  // --- introspection / experiments ---
  size_t MemoryUsage() const;
  size_t num_partitions_hosted() const { return partitions_.size(); }
  std::vector<sm::ShardId> OwnedShards() const {
    return {owned_shards_.begin(), owned_shards_.end()};
  }
  const std::map<PartitionRef, TablePartition>& partitions() const {
    return partitions_;
  }
  // Runs one memory-monitor pass immediately (tests/benches).
  void RunMemoryMonitor();
  // Runs one hotness decay round immediately.
  void RunHotnessDecay();

  // Counters live in obs handles (atomic cells): the query path bumps
  // them from pool workers concurrently. With a registry they export as
  // scalewall_server_*{server="<id>"} series; without one they are
  // standalone cells with the same int64-like interface as before.
  struct Stats {
    explicit Stats(obs::MetricsRegistry* registry = nullptr,
                   cluster::ServerId server = 0);

    obs::Counter partial_queries;
    obs::Counter forwarded_requests;
    // Measured (wall-clock) partition-scan time, microseconds, summed
    // over all partial queries — the per-host service-time ground truth
    // behind the latency distributions. Deliberately NOT registered:
    // wall-clock time varies run to run and would break the exporter's
    // byte-stability across seeded runs.
    obs::Counter scan_micros;
    // Partial queries that took the morsel-parallel path.
    obs::Counter parallel_scans;
    // Morsel accounting from the exec layer (parallel and serial paths).
    obs::Counter morsels_executed;
    obs::Counter morsels_skipped;  // cancelled before being scheduled
    obs::Counter bricks_compressed;
    obs::Counter bricks_decompressed;
    obs::Counter bricks_evicted;
    obs::Counter recoveries;  // partitions recovered cross-region
    obs::Counter collision_rejections;
    // Partial-result cache outcomes (registered as
    // scalewall_server_result_cache_total{server=...,result=...}).
    obs::Counter cache_hits;
    obs::Counter cache_misses;
    // Epoch-mismatched entries dropped on lookup, plus entries cleared
    // by Reset/DropTableData.
    obs::Counter cache_invalidations;
  };
  const Stats& stats() const { return stats_; }

  // The partial-result cache's internal counters (zeros when no cache
  // is configured).
  PartialResultCache::Snapshot ResultCacheSnapshot() const;

 private:
  // Returns kNonRetryable if taking `shard` here would co-locate two
  // different partitions of one table.
  Status CheckShardCollision(sm::ShardId shard) const;

  // Materializes (and recovers, if possible) all partitions of `shard`.
  void MaterializeShard(sm::ShardId shard, bool recover);

  void RemoveShardData(sm::ShardId shard);

  double PhysicalMemory() const;

  // The server's clock: simulated time, or wall-clock microseconds when
  // built without a simulation.
  SimTime Now() const;

  // Resolves `pool` (a normalized fair-share path) to this server's
  // exec-pool scheduling-pool id, registering it on first sight with
  // the weight the attached tree reports (or 1.0 without a tree).
  // Returns exec::ThreadPool::kNoPool when `pool` is null/empty or the
  // server has no exec pool.
  int ExecPoolIdFor(const std::string* pool);

  sim::Simulation* simulation_;
  cluster::Cluster* cluster_;
  Catalog* catalog_;
  cluster::ServerId server_;
  CubrickServerOptions options_;
  Rng rng_;
  const ServerDirectory* directory_ = nullptr;
  RecoverySource recovery_source_;

  // Work-stealing pool for morsel-parallel scans (scan_workers > 1).
  std::unique_ptr<exec::ThreadPool> exec_pool_;
  // Admission fair-share tree for scan-time charge-back (null = none).
  admit::FairShareTree* pool_tree_ = nullptr;
  // Brick-scan kernel of every partial (SetScanPathForTesting).
  exec::ScanPath scan_path_ = exec::ScanPath::kVectorized;
  // Fair-share pool path -> exec scheduling-pool id (lazily registered).
  // Guarded by scan_stats_mu_ (same contention profile: per partial).
  std::map<std::string, int> exec_pool_ids_;
  // Partial-result cache (null when result_cache_bytes == 0). Its own
  // mutex makes it safe under concurrent ExecutePartial calls (a
  // scalewall_node server runs several handler threads).
  std::unique_ptr<PartialResultCache> result_cache_;
  // Measured scan time per hosted partition (exported per shard through
  // ShardLoad("scan_micros")). Guarded: concurrent ExecutePartial
  // calls report into it.
  mutable std::mutex scan_stats_mu_;
  std::map<PartitionRef, int64_t> partition_scan_micros_;
  // Virtual scan queue (virtual_scan_slots > 0): busy-until times of
  // reservations, ordered. Guarded separately: the coordinator enqueues
  // from the query path while the proxy polls CurrentOverload.
  mutable std::mutex scan_queue_mu_;
  std::multiset<SimTime> scan_queue_;

  std::set<sm::ShardId> owned_shards_;
  std::set<sm::ShardId> staged_shards_;  // prepared (data copied), not owned
  std::map<sm::ShardId, cluster::ServerId> forwarding_;
  std::map<PartitionRef, TablePartition> partitions_;
  // Full local copies of replicated dimension tables.
  std::map<std::string, ReplicatedTable> replicated_;
  // table -> partitions hosted here (collision detection).
  std::unordered_map<std::string, std::set<uint32_t>> hosted_partitions_;
  Stats stats_;
  // Scrape-time series over the exec pool and result cache (registered
  // in the constructor when the registry and the pool/cache exist).
  // Declared after exec_pool_/result_cache_ so they are removed first.
  std::vector<obs::CallbackSeries> metric_series_;
  bool monitors_started_ = false;
};

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_SERVER_H_
