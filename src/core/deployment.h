// Deployment: the top-level public API — a complete partially-sharded
// Cubrick installation.
//
// Mirrors the production layout of Section IV-D: N regions (three in
// production), each holding a full copy of all tables, each running an
// independent primary-only Shard Manager service ("for operational
// simplicity and flexibility Cubrick is currently deployed as three
// independent primary-only services"); a stateless proxy routes queries to
// the closest available region and retries failures cross-region.
//
// A downstream user drives everything through this class:
//
//   core::Deployment dep(core::DeploymentOptions{});
//   dep.CreateTable("metrics", schema);
//   dep.LoadRows("metrics", rows);
//   auto outcome = dep.Query(q);
//   dep.RunFor(7 * kDay);   // advance simulated time (LB, failures, ...)

#ifndef SCALEWALL_CORE_DEPLOYMENT_H_
#define SCALEWALL_CORE_DEPLOYMENT_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/failure_injector.h"
#include "cubrick/catalog.h"
#include "cubrick/coordinator.h"
#include "cubrick/proxy.h"
#include "cubrick/server.h"
#include "discovery/datastore.h"
#include "discovery/service_discovery.h"
#include "net/sim_transport.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/latency_model.h"
#include "sim/simulation.h"
#include "sm/sm_server.h"

namespace scalewall::core {

// Fan-out policy for new tables (Section II-B/C).
enum class ShardingMode {
  // Partial sharding: tables start at `default_partitions` partitions and
  // grow by dynamic repartitioning (the paper's contribution).
  kPartial,
  // Full sharding: every table is sharded across all servers of a region
  // (the legacy fully-sharded Cubrick that hit the scalability wall).
  kFull,
};

// The transport the query path's hops (proxy -> coordinator ->
// partition hosts, tree merges, shuffle maps, plus the merged-cache
// epoch probe) cross (DESIGN.md §13). One mode: kept as an option so
// callers that name it keep compiling.
enum class TransportMode {
  // scalewall::net sim backend: every hop's request and response passes
  // through the length-prefixed wire codecs (the code scalewall_node
  // processes run) while completing inline on the simulated clock — the
  // backend draws no randomness and adds no latency — and transport
  // metrics/spans are recorded.
  kSim,
};

// Admission & scheduling knobs (DESIGN.md §11/§16), consolidated in one
// struct: the admission front door, the hierarchical pool tree it
// schedules against, and the per-server virtual scan queue that gives
// backends a finite capacity to be fair about. Defaults are all off —
// the seed behaviour, byte-identical to a deployment with no scheduler.
struct SchedulerOptions {
  // Turns on the proxy's admission pipeline (scalewall::admit):
  // hierarchical weighted-fair concurrency sharing over the pool tree
  // with priority tiers, deadline-aware queue-wait rejection,
  // backend-overload shedding and min-share preemption — configured by
  // the nested proxy_options.admission knobs.
  bool enable_admission = false;
  // Per-server virtual scan-queue depth
  // (server_options.virtual_scan_slots); > 0 makes backends degrade
  // under overload instead of serving unbounded concurrency for free.
  // Left 0 (disabled) unless set — the seed behaviour.
  int virtual_scan_slots = 0;
  // Pool tree configuration, path -> config ("acme/interactive").
  // Applied on top of proxy_options.admission.pools; paths configured
  // in both places take this map's config.
  std::map<std::string, admit::PoolConfig> pools;
};

struct DeploymentOptions {
  uint64_t seed = 42;
  cluster::ClusterTopology topology;  // default: 3 regions
  uint32_t max_shards = 100000;
  cubrick::ShardMappingStrategy mapping =
      cubrick::ShardMappingStrategy::kHashPartitionZero;
  ShardingMode sharding = ShardingMode::kPartial;
  // "a good starting point is to use 8 partitions for every newly created
  // table" (Section IV-B).
  uint32_t default_partitions = 8;
  // A partition exceeding this row count triggers a repartition (doubling
  // the table's partition count).
  uint64_t repartition_threshold_rows = 100000;
  sm::LoadBalancingConfig load_balancing{
      .metric = "decompressed_size",
  };
  SimDuration heartbeat_interval = 5 * kSecond;
  // Datastore session timeout (heartbeat grace).
  SimDuration session_timeout = 15 * kSecond;
  sm::SmServerOptions sm_options;
  cubrick::CubrickServerOptions server_options;
  cubrick::ProxyOptions proxy_options;
  discovery::ServiceDiscoveryOptions discovery_options;
  sim::LatencyModelOptions latency;
  sim::NetworkModelOptions network;
  // Per-host transient failure probability per query ("0.01% chance of
  // failure at any given time" = 0.0001).
  double per_host_failure_probability = 0.0001;
  // Subquery-level retry/hedging policy applied by every region's
  // coordinators (disabled by default: legacy whole-attempt failure).
  cubrick::SubqueryPolicy subquery_policy;
  // Planner knobs for every region's coordinators (join cost model +
  // merge-topology model). Defaults keep the seed behaviour exactly.
  cubrick::PlannerOptions planner;
  // Stochastic permanent failures / drains.
  bool enable_failure_injector = false;
  cluster::FailureInjectorOptions failure_injector;
  // Arm per-server memory monitors and hotness decay.
  bool start_server_monitors = false;
  // Record a distributed span tree (proxy attempt -> coordinator
  // subquery -> server partition -> morsel) for every proxied query,
  // retained in the deployment's TraceSink.
  bool enable_query_tracing = false;
  obs::TraceSinkOptions trace_options;
  // Epoch-invalidated result caching (DESIGN.md §10): turns on both the
  // per-server partial-result cache and the proxy's merged-result cache
  // with the budgets below — unless the nested
  // server_options.result_cache_bytes / proxy_options.merged_cache_bytes
  // were already set explicitly, which always win.
  bool enable_result_caching = false;
  size_t result_cache_bytes = 32u << 20;  // per server
  size_t merged_cache_bytes = 8u << 20;   // proxy-wide
  // Admission control & hierarchical scheduling (DESIGN.md §11/§16).
  SchedulerOptions scheduler;
  // Transport mediating the query path's hops (DESIGN.md §13).
  TransportMode transport = TransportMode::kSim;
};

// Per-table creation overrides.
struct TableOptions {
  // 0 = use the deployment's sharding mode default.
  uint32_t partitions = 0;
  // The paper's Section VII future work, implemented: probe mapping
  // salts at creation until none of the table's already-placed shards
  // co-locate on one server, eliminating creation-time shard collisions.
  bool avoid_creation_collisions = false;
  // Salts probed before giving up and creating with the best found.
  uint32_t max_salt_probes = 16;
};

class Deployment : public cubrick::ServerDirectory {
 public:
  explicit Deployment(DeploymentOptions options);
  ~Deployment() override;

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // --- table lifecycle ---
  Status CreateTable(const std::string& name, cubrick::TableSchema schema,
                     TableOptions table_options = {});
  Status DropTable(const std::string& name);

  // Loads rows; records are assigned to partitions by a deterministic
  // hash of their dimension values, and every region receives a full
  // copy. May trigger a dynamic repartition when partitions outgrow the
  // threshold.
  Status LoadRows(const std::string& name, const std::vector<cubrick::Row>& rows);

  // Forces a repartition to `new_partitions` (tests/experiments;
  // LoadRows triggers this automatically on the doubling schedule).
  Status Repartition(const std::string& name, uint32_t new_partitions);

  // --- replicated dimension tables (Section II-B) ---

  // Creates a small dimension table replicated in full to every server,
  // joinable from any cube table (Query::joins).
  Status CreateDimensionTable(const std::string& name,
                              uint32_t key_cardinality,
                              std::vector<cubrick::Dimension> attributes);
  // Upserts entries; the copy on every server (and the master used to
  // seed recovering/new servers) is updated synchronously.
  Status LoadDimensionEntries(
      const std::string& name,
      const std::vector<cubrick::DimensionEntry>& entries);
  Status DropDimensionTable(const std::string& name);

  // --- cluster resize (Section II-C: "How to add and remove cluster
  // nodes on-the-fly, while ensuring the system is properly load
  // balanced?") ---

  // Adds `count` fresh servers to `region` (each on a new rack). Their
  // Cubrick instances register with the region's SM; subsequent load
  // balancing cycles spread shards onto them.
  Status AddServers(cluster::RegionId region, int count);

  // Decommissions a server: drains it (shards migrate away gracefully),
  // then unregisters it and removes it from the fleet once empty.
  // Asynchronous; completes within a few balancer cycles.
  Status DecommissionServer(cluster::ServerId server);

  // --- queries ---

  // Primary entry point of the redesigned API: submits the request's
  // query with its per-submission overrides (resource claim, preferred
  // region, deadline budget, tracing, cache policy).
  cubrick::QueryOutcome Query(const cubrick::QueryRequest& request);

  // SQL with per-submission overrides: `request.query` is replaced by
  // the parsed statement; everything else (claim, region, deadline,
  // tracing, cache policy) applies as given. (See cubrick/sql.h for the
  // dialect.)
  cubrick::QueryOutcome QuerySql(const std::string& sql,
                                 cubrick::QueryRequest request);

  // --- time ---
  void RunFor(SimDuration duration) { simulation_.RunFor(duration); }
  SimTime now() const { return simulation_.now(); }

  // --- accessors for tests, benches and examples ---
  sim::Simulation& simulation() { return simulation_; }
  cluster::Cluster& cluster() { return cluster_; }
  cubrick::Catalog& catalog() { return *catalog_; }
  cubrick::CubrickProxy& proxy() { return *proxy_; }
  sm::SmServer& sm(cluster::RegionId region) { return *regions_[region]->sm; }
  discovery::ServiceDiscovery& discovery(cluster::RegionId region) {
    return *regions_[region]->service_discovery;
  }
  cubrick::RegionContext& region_context(cluster::RegionId region) {
    return regions_[region]->context;
  }
  cluster::FailureInjector* failure_injector() {
    return failure_injector_.get();
  }
  size_t num_regions() const { return regions_.size(); }
  const DeploymentOptions& options() const { return options_; }
  // Unified metrics registry every component's series live in,
  // including the deployment-level lines; core::ExportMetricsText
  // renders it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  // Distributed-tracing sink (spans recorded only when
  // options.enable_query_tracing is set).
  obs::TraceSink& trace_sink() { return trace_sink_; }
  // The in-process network every region's hops cross (never null).
  net::SimNetwork* sim_network() { return sim_network_.get(); }

  // cubrick::ServerDirectory: resolves any fleet server to its Cubrick
  // instance (regions never cross-reference shards, so a global directory
  // is safe).
  cubrick::CubrickServer* Lookup(cluster::ServerId server) const override;

  // Number of repartition operations executed so far.
  int64_t repartitions() const { return repartitions_; }

  // Rows queued in `region`'s write-behind buffer for `table`
  // (diagnostics: a region copy plus its buffer is always complete).
  size_t PendingWriteRows(cluster::RegionId region,
                          const std::string& table) const {
    auto rit = pending_writes_.find(region);
    if (rit == pending_writes_.end()) return 0;
    auto tit = rit->second.find(table);
    return tit == rit->second.end() ? 0 : tit->second.size();
  }

  // Full view of the write-behind buffers (tests/diagnostics).
  const std::map<cluster::RegionId,
                 std::map<std::string, std::vector<cubrick::Row>>>&
  pending_writes() const {
    return pending_writes_;
  }

  // Collision census for Figure 4a: fraction of tables with shard
  // collisions, with cross-table partition collisions, and with
  // same-table partition collisions, measured against region `region`'s
  // current assignment.
  struct CollisionCensus {
    int tables = 0;
    int tables_with_shard_collision = 0;       // ~7% in production
    int tables_with_partition_collision = 0;   // ~3% in production
    int tables_with_same_table_collision = 0;  // 0 by design
  };
  CollisionCensus MeasureCollisions(cluster::RegionId region) const;

 private:
  struct Region {
    cluster::RegionId id;
    std::string service;
    std::unique_ptr<discovery::Datastore> datastore;
    std::unique_ptr<discovery::ServiceDiscovery> service_discovery;
    std::unique_ptr<sm::SmServer> sm;
    cubrick::RegionContext context;
  };

  // Servers of `region` holding the shard per that region's SM.
  Result<cluster::ServerId> OwnerOf(Region& region, sm::ShardId shard) const;

  // A healthy server outside `excluding` that holds (table, partition):
  // the cross-region recovery source for failovers (Section IV-D). Also
  // reconciles the write-behind buffers: after the copy, the recovering
  // region's missing-row set for that partition becomes the source
  // region's (the recovered copy is exactly as complete as the source).
  cubrick::CubrickServer* FindRecoveryPeer(const std::string& table,
                                           uint32_t partition,
                                           cluster::RegionId excluding);

  // Retries regional inserts that were skipped while a region's copy was
  // unavailable (owner mid-failover). Production ingestion retries writes
  // until every region accepts them; this is that loop.
  void RetryPendingWrites();

  // Appends rows a region failed to accept to its write-behind buffer.
  void DeferWrite(cluster::RegionId region, const std::string& table,
                  const std::vector<cubrick::Row>& rows);

  // Shared SQL front-end for both QuerySql overloads: scans the FROM
  // clause for the table, resolves its schema and parses the statement.
  Result<cubrick::Query> ParseSqlToQuery(const std::string& sql) const;

  Status EnsureTableShards(const std::string& name);
  uint32_t PartitionForRow(const cubrick::Row& row, uint32_t num_partitions,
                           const std::string& table) const;
  void MaybeRepartition(const std::string& name);

  DeploymentOptions options_;
  // Declared before every component so the registry/sink outlive the
  // handles and contexts the components hold into them.
  obs::MetricsRegistry metrics_;
  obs::TraceSink trace_sink_;
  sim::Simulation simulation_;
  cluster::Cluster cluster_;
  std::unique_ptr<cubrick::Catalog> catalog_;
  // In-process sim network: regions' contexts point their `transport`
  // at nodes owned here, and node handlers capture server/context
  // pointers. Declared before regions_/servers_ so it outlives both — a
  // handler is never invoked during teardown, but the contexts'
  // transport pointers stay valid for their lifetime.
  std::unique_ptr<net::SimNetwork> sim_network_;
  std::vector<std::unique_ptr<Region>> regions_;
  std::unordered_map<cluster::ServerId,
                     std::unique_ptr<cubrick::CubrickServer>>
      servers_;
  std::unique_ptr<cubrick::CubrickProxy> proxy_;
  std::unique_ptr<cluster::FailureInjector> failure_injector_;
  std::unordered_map<std::string, uint64_t> table_rows_;
  // Write-behind buffers: rows each region's copy is missing, keyed
  // region -> table. Replayed by RetryPendingWrites until they land.
  std::map<cluster::RegionId,
           std::map<std::string, std::vector<cubrick::Row>>>
      pending_writes_;
  // Master copies of replicated dimension tables, used to seed new and
  // recovering servers.
  std::map<std::string, cubrick::ReplicatedTable> dimension_masters_;
  int64_t repartitions_ = 0;
  cluster::RackId next_rack_ = 0;
  Rng load_rng_;

  // Builds and registers the Cubrick instance for a fleet server.
  void ProvisionServer(cluster::ServerId id);

  // Registers the deployment-level lines (fleet health, catalog, per-region
  // SM assignment and utilization spread, fleet-wide engine sums) as
  // scrape-time series in metrics_.
  void RegisterDerivedMetrics();

  // Declared last: the series read the members above, so they leave the
  // registry before any of them is destroyed.
  std::vector<obs::CallbackSeries> metric_series_;
};

}  // namespace scalewall::core

#endif  // SCALEWALL_CORE_DEPLOYMENT_H_
