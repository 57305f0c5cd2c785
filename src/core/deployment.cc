#include "core/deployment.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/hash.h"
#include "common/logging.h"
#include "cubrick/net_service.h"
#include "cubrick/sql.h"

namespace scalewall::core {

Deployment::Deployment(DeploymentOptions options)
    : options_(std::move(options)),
      trace_sink_(options_.trace_options),
      simulation_(options_.seed),
      cluster_(cluster::Cluster::Build(options_.topology)),
      catalog_(std::make_unique<cubrick::Catalog>(options_.max_shards,
                                                  options_.mapping)),
      load_rng_(simulation_.rng().Fork(/*stream=*/0x10AD)) {
  // Every component's Stats counters register into the deployment-wide
  // registry; the proxy additionally records span trees into the trace
  // sink when query tracing is on.
  options_.server_options.metrics = &metrics_;
  options_.proxy_options.metrics = &metrics_;
  if (options_.enable_query_tracing) {
    options_.proxy_options.trace_sink = &trace_sink_;
  }
  if (options_.enable_result_caching) {
    // Explicitly-set nested budgets win over the deployment defaults.
    if (options_.server_options.result_cache_bytes == 0) {
      options_.server_options.result_cache_bytes = options_.result_cache_bytes;
    }
    if (options_.proxy_options.merged_cache_bytes == 0) {
      options_.proxy_options.merged_cache_bytes = options_.merged_cache_bytes;
    }
  }
  if (options_.scheduler.enable_admission &&
      !options_.proxy_options.enable_admission) {
    // Deployment-level convenience knob; an explicitly-configured nested
    // proxy_options.admission always wins.
    options_.proxy_options.enable_admission = true;
  }
  // Scheduler pool configs layer over (and win against) any configured
  // directly on proxy_options.admission.pools.
  for (const auto& [path, config] : options_.scheduler.pools) {
    options_.proxy_options.admission.pools[path] = config;
  }
  if (options_.scheduler.virtual_scan_slots > 0 &&
      options_.server_options.virtual_scan_slots == 0) {
    options_.server_options.virtual_scan_slots =
        options_.scheduler.virtual_scan_slots;
  }
  sim_network_ = std::make_unique<net::SimNetwork>(&simulation_, &metrics_);
  // One independent primary-only SM service per region (Section IV-D).
  for (cluster::RegionId r : cluster_.Regions()) {
    auto region = std::make_unique<Region>();
    region->id = r;
    region->service = "cubrick.region" + std::to_string(r);
    region->datastore = std::make_unique<discovery::Datastore>(
        &simulation_, options_.session_timeout);
    region->service_discovery = std::make_unique<discovery::ServiceDiscovery>(
        &simulation_, options_.discovery_options);

    sm::ServiceConfig config;
    config.name = region->service;
    config.max_shards = options_.max_shards;
    config.replication = sm::ReplicationModel::kPrimaryOnly;
    config.replication_factor = 0;
    config.spread = sm::SpreadDomain::kServer;
    config.load_balancing = options_.load_balancing;
    config.heartbeat_interval = options_.heartbeat_interval;
    sm::SmServerOptions sm_options = options_.sm_options;
    sm_options.metrics = &metrics_;
    sm_options.metric_labels = {{"region", std::to_string(r)}};
    region->sm = std::make_unique<sm::SmServer>(
        &simulation_, &cluster_, region->datastore.get(),
        region->service_discovery.get(), config, sm_options);

    region->context.region = r;
    region->context.service = region->service;
    region->context.simulation = &simulation_;
    region->context.cluster = &cluster_;
    region->context.catalog = catalog_.get();
    region->context.directory = this;
    region->context.discovery = region->service_discovery.get();
    region->context.latency_model = sim::LatencyModel(options_.latency);
    region->context.network_model = sim::NetworkModel(options_.network);
    region->context.failure_model =
        sim::TransientFailureModel(options_.per_host_failure_probability);
    region->context.policy = options_.subquery_policy;
    region->context.planner = options_.planner;
    // The proxy/coordinator side calls out through one shared client
    // node; the region's epoch endpoint answers merged-cache probes.
    region->context.transport = sim_network_->Node("proxy");
    sim_network_->Node(cubrick::RegionPeerName(r))
        ->SetHandler(cubrick::MakeRegionNodeHandler(&region->context));

    regions_.push_back(std::move(region));
  }

  // One Cubrick instance per fleet server, registered with its region's
  // SM service.
  for (cluster::ServerId id : cluster_.AllServers()) {
    ProvisionServer(id);
    next_rack_ = std::max(next_rack_, cluster_.Get(id).rack + 1);
  }

  // Servers returning from repair restart with empty memory and
  // re-register with SM (which then re-places shards through normal load
  // balancing / failover-retry paths).
  cluster_.AddHealthListener([this](cluster::ServerId id,
                                    cluster::ServerHealth old_health,
                                    cluster::ServerHealth new_health) {
    if (new_health != cluster::ServerHealth::kHealthy) return;
    if (old_health != cluster::ServerHealth::kRepairing &&
        old_health != cluster::ServerHealth::kDown) {
      return;
    }
    auto it = servers_.find(id);
    if (it == servers_.end()) return;
    it->second->Reset();
    // Replicated dimension tables are re-seeded from the masters (an
    // in-memory server restarts empty).
    for (const auto& [name, master] : dimension_masters_) {
      it->second->SetReplicatedTable(master);
    }
    regions_[cluster_.Get(id).region]->sm->RegisterAppServer(
        it->second.get());
  });

  proxy_ = std::make_unique<cubrick::CubrickProxy>(
      &simulation_, &cluster_, catalog_.get(), options_.proxy_options);
  for (auto& region : regions_) {
    proxy_->AddRegion(&region->context);
  }
  // End-to-end accounting link: every server charges measured scan time
  // back to the admission tree's owning pool (servers provisioned later
  // via AddServers are wired in ProvisionServer).
  if (proxy_->admission() != nullptr) {
    for (auto& [id, server] : servers_) {
      server->SetPoolTree(proxy_->admission()->tree());
    }
  }

  if (options_.enable_failure_injector) {
    failure_injector_ = std::make_unique<cluster::FailureInjector>(
        &simulation_, &cluster_, options_.failure_injector);
    failure_injector_->Start();
  }

  for (auto& region : regions_) {
    region->sm->Start();
  }

  // The ingestion retry loop: regional writes that could not be placed
  // (owner mid-failover) are retried until every region's copy heals.
  simulation_.SchedulePeriodic(30 * kSecond, 30 * kSecond,
                               [this] { RetryPendingWrites(); });
  RegisterDerivedMetrics();
}

void Deployment::RegisterDerivedMetrics() {
  auto add = [this](const char* name, bool counter, obs::MetricLabels labels,
                    std::function<double()> read) {
    metric_series_.push_back(
        counter ? metrics_.CallbackCounter(name, labels, std::move(read))
                : metrics_.CallbackGauge(name, labels, std::move(read)));
  };
  for (const auto& [state, label] :
       {std::pair{cluster::ServerHealth::kHealthy, "healthy"},
        std::pair{cluster::ServerHealth::kDraining, "draining"},
        std::pair{cluster::ServerHealth::kDown, "down"},
        std::pair{cluster::ServerHealth::kRepairing, "repairing"}}) {
    add("scalewall_fleet_servers", false, {{"state", label}},
        [this, state = state] { return cluster_.HealthCounts()[state]; });
  }
  add("scalewall_catalog_tables", false, {},
      [this] { return catalog_->num_tables(); });
  add("scalewall_repartitions_total", true, {},
      [this] { return repartitions_; });

  // Per-region SM state that is derived, not counted: the assignment
  // size and the balancer's objective, the utilization spread.
  for (const auto& region : regions_) {
    const sm::SmServer* sm = region->sm.get();
    const obs::MetricLabels labels = {{"region", std::to_string(region->id)}};
    add("scalewall_sm_assigned_shards", false, labels,
        [sm] { return sm->num_assigned_shards(); });
    for (const auto& [name, max] :
         {std::pair{"scalewall_sm_utilization_min", false},
          std::pair{"scalewall_sm_utilization_max", true}}) {
      add(name, false, labels, [sm, max = max] {
        const auto utilization = sm->Utilization();
        if (utilization.empty()) return 0.0;
        const auto [lo, hi] = std::minmax_element(
            utilization.begin(), utilization.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
        return max ? hi->second : lo->second;
      });
    }
  }

  // Storage engine, summed over the live fleet (the servers register the
  // per-server series; the sums keep the one-glance view).
  auto fleet_sum = [this](auto read) {
    return [this, read] {
      double total = 0;
      for (cluster::ServerId id : cluster_.AllServers()) {
        if (const cubrick::CubrickServer* server = Lookup(id)) {
          total += read(*server);
        }
      }
      return total;
    };
  };
  using Stats = cubrick::CubrickServer::Stats;
  for (const auto& [name, field] :
       {std::pair{"scalewall_engine_partial_queries_total",
                  &Stats::partial_queries},
        std::pair{"scalewall_engine_bricks_compressed_total",
                  &Stats::bricks_compressed},
        std::pair{"scalewall_engine_bricks_decompressed_total",
                  &Stats::bricks_decompressed},
        std::pair{"scalewall_engine_bricks_evicted_total",
                  &Stats::bricks_evicted},
        std::pair{"scalewall_engine_recoveries_total", &Stats::recoveries},
        std::pair{"scalewall_engine_forwarded_requests_total",
                  &Stats::forwarded_requests}}) {
    add(name, true, {}, fleet_sum([field = field](const auto& server) {
          return (server.stats().*field).load();
        }));
  }
  add("scalewall_engine_memory_bytes", false, {},
      fleet_sum([](const auto& server) { return server.MemoryUsage(); }));
}

void Deployment::ProvisionServer(cluster::ServerId id) {
  const cluster::ServerInfo& info = cluster_.Get(id);
  auto server = std::make_unique<cubrick::CubrickServer>(
      &simulation_, &cluster_, catalog_.get(), id, options_.server_options);
  server->SetDirectory(this);
  cluster::RegionId region = info.region;
  server->SetRecoverySource(
      [this, region](const std::string& table, uint32_t partition) {
        return FindRecoveryPeer(table, partition, region);
      });
  if (options_.start_server_monitors) server->StartMonitors();
  if (proxy_ != nullptr && proxy_->admission() != nullptr) {
    server->SetPoolTree(proxy_->admission()->tree());
  }
  // Seed the full copies of every replicated dimension table.
  for (const auto& [name, master] : dimension_masters_) {
    server->SetReplicatedTable(master);
  }
  regions_[region]->sm->RegisterAppServer(server.get());
  sim_network_->Node(cubrick::NodePeerName(id))
      ->SetHandler(cubrick::MakeServerNodeHandler(server.get(), id,
                                                  &regions_[region]->context));
  servers_.emplace(id, std::move(server));
}

Status Deployment::CreateDimensionTable(
    const std::string& name, uint32_t key_cardinality,
    std::vector<cubrick::Dimension> attributes) {
  SCALEWALL_RETURN_IF_ERROR(
      catalog_->CreateReplicatedTable(name, key_cardinality, attributes));
  cubrick::ReplicatedTable master(name, key_cardinality,
                                  std::move(attributes));
  // Content epoch from creation: cached join results against the empty
  // table are already distinguishable from later loads.
  master.set_epoch(cubrick::NextPartitionEpoch());
  for (auto& [id, server] : servers_) {
    server->SetReplicatedTable(master);
  }
  dimension_masters_.emplace(name, std::move(master));
  return Status::Ok();
}

Status Deployment::LoadDimensionEntries(
    const std::string& name,
    const std::vector<cubrick::DimensionEntry>& entries) {
  auto master = dimension_masters_.find(name);
  if (master == dimension_masters_.end()) {
    return Status::NotFound("dimension table " + name);
  }
  for (const cubrick::DimensionEntry& entry : entries) {
    SCALEWALL_RETURN_IF_ERROR(master->second.Set(entry));
  }
  // ONE epoch draw per batch, stamped on the master and every replica:
  // all copies of a dim agree on their content epoch, which is what lets
  // any replica's epoch answer a merged-cache validation probe — and
  // what invalidates every cached join result the moment a dim updates.
  const uint64_t epoch = cubrick::NextPartitionEpoch();
  master->second.set_epoch(epoch);
  auto info = catalog_->GetReplicatedTable(name);
  SCALEWALL_RETURN_IF_ERROR(info.status());
  for (auto& [id, server] : servers_) {
    SCALEWALL_RETURN_IF_ERROR(
        server->UpsertReplicatedEntries(*info, entries, epoch));
  }
  return Status::Ok();
}

Status Deployment::DropDimensionTable(const std::string& name) {
  SCALEWALL_RETURN_IF_ERROR(catalog_->DropReplicatedTable(name));
  dimension_masters_.erase(name);
  for (auto& [id, server] : servers_) {
    server->DropReplicatedTable(name);
  }
  return Status::Ok();
}

Status Deployment::AddServers(cluster::RegionId region, int count) {
  if (region >= regions_.size()) {
    return Status::InvalidArgument("unknown region");
  }
  if (count <= 0) {
    return Status::InvalidArgument("count must be positive");
  }
  for (int i = 0; i < count; ++i) {
    cluster::ServerId id =
        cluster_.AddServer(region, next_rack_++, options_.topology.memory_bytes,
                           options_.topology.ssd_bytes);
    ProvisionServer(id);
  }
  return Status::Ok();
}

Status Deployment::DecommissionServer(cluster::ServerId server) {
  if (!cluster_.Contains(server)) {
    return Status::NotFound("server " + std::to_string(server));
  }
  if (cluster_.Get(server).health != cluster::ServerHealth::kHealthy) {
    return Status::FailedPrecondition("server not healthy");
  }
  // Drain: SM migrates every shard away gracefully; then poll until the
  // server is empty and take it out of the fleet.
  cluster_.SetHealth(server, cluster::ServerHealth::kDraining);
  cluster::RegionId region = cluster_.Get(server).region;
  // Poll until the drain empties the server (the periodic task needs its
  // own id to cancel itself, hence the shared holder).
  auto done = std::make_shared<sim::EventId>(0);
  *done = simulation_.SchedulePeriodic(
      1 * kMinute, 1 * kMinute, [this, server, region, done] {
        if (!regions_[region]->sm->ShardsOnServer(server).empty()) return;
        regions_[region]->sm->UnregisterAppServer(server);
        cluster_.RemoveServer(server);
        // The CubrickServer instance stays allocated (its monitor events
        // may still be scheduled) but is empty and unreachable.
        auto it = servers_.find(server);
        if (it != servers_.end()) it->second->Reset();
        // Its node endpoint goes with it: subsequent transport calls to
        // this server fail kUnavailable instead of reaching a ghost.
        sim_network_->RemoveNode(cubrick::NodePeerName(server));
        simulation_.Cancel(*done);
      });
  return Status::Ok();
}

Deployment::~Deployment() = default;

cubrick::CubrickServer* Deployment::Lookup(cluster::ServerId server) const {
  auto it = servers_.find(server);
  return it == servers_.end() ? nullptr : it->second.get();
}

cubrick::CubrickServer* Deployment::FindRecoveryPeer(
    const std::string& table, uint32_t partition,
    cluster::RegionId excluding) {
  auto mapped = catalog_->ShardForPartition(table, partition);
  if (!mapped.ok()) return nullptr;
  sm::ShardId shard = *mapped;
  for (const auto& region : regions_) {
    if (region->id == excluding) continue;
    const sm::ShardAssignment* assignment = region->sm->GetAssignment(shard);
    if (assignment == nullptr) continue;
    for (const sm::Replica& replica : assignment->replicas) {
      if (!cluster_.Contains(replica.server) ||
          !cluster_.Get(replica.server).IsServing()) {
        continue;
      }
      cubrick::CubrickServer* server = Lookup(replica.server);
      if (server != nullptr &&
          server->ForwardingTarget(shard) != cluster::kInvalidServer) {
        // Mid-cutover source: its local copy is frozen and possibly
        // stale; recover from another replica or region instead.
        continue;
      }
      if (server != nullptr && server->HasPartition(table, partition)) {
        // Reconcile write-behind state: after this copy, the recovering
        // region's partition is exactly as complete as the source's, so
        // its pending rows for the partition are replaced by the
        // source's (which the copy cannot contain).
        auto info = catalog_->GetTable(table);
        if (info.ok()) {
          uint32_t parts = info->num_partitions;
          auto in_partition = [&](const cubrick::Row& row) {
            return PartitionForRow(row, parts, table) == partition;
          };
          auto& mine = pending_writes_[excluding][table];
          mine.erase(std::remove_if(mine.begin(), mine.end(), in_partition),
                     mine.end());
          const auto& theirs = pending_writes_[region->id][table];
          for (const cubrick::Row& row : theirs) {
            if (in_partition(row)) mine.push_back(row);
          }
        }
        return server;
      }
    }
  }
  return nullptr;
}

void Deployment::DeferWrite(cluster::RegionId region,
                            const std::string& table,
                            const std::vector<cubrick::Row>& rows) {
  auto& pending = pending_writes_[region][table];
  pending.insert(pending.end(), rows.begin(), rows.end());
}

void Deployment::RetryPendingWrites() {
  // Snapshot the (region, table) keys: owner resolution below can mutate
  // the pending structures (a lazy placement's cross-region recovery
  // reconciles buffers via FindRecoveryPeer).
  std::vector<std::pair<cluster::RegionId, std::string>> keys;
  for (const auto& [region_id, tables] : pending_writes_) {
    for (const auto& [table, rows] : tables) {
      keys.emplace_back(region_id, table);
    }
  }
  for (const auto& [region_id, table] : keys) {
    Region& region = *regions_[region_id];
    auto info = catalog_->GetTable(table);
    if (!info.ok()) {
      pending_writes_[region_id].erase(table);
      continue;
    }
    // Phase 1: resolve every partition's owner. This may trigger lazy
    // placements whose recovery copies already include (and reconcile
    // away) some of the pending rows — which is why the rows are only
    // taken out *afterwards*.
    std::vector<cubrick::CubrickServer*> owners(info->num_partitions,
                                                nullptr);
    for (uint32_t p = 0; p < info->num_partitions; ++p) {
      auto shard = catalog_->ShardForPartition(table, p);
      if (!shard.ok()) continue;
      auto owner = OwnerOf(region, *shard);
      if (owner.ok()) owners[p] = Lookup(*owner);
    }
    // Phase 2: take whatever is still pending and deliver it.
    std::vector<cubrick::Row> rows =
        std::move(pending_writes_[region_id][table]);
    pending_writes_[region_id][table].clear();
    std::unordered_map<uint32_t, std::vector<cubrick::Row>> buckets;
    for (cubrick::Row& row : rows) {
      buckets[PartitionForRow(row, info->num_partitions, table)].push_back(
          std::move(row));
    }
    std::vector<cubrick::Row> still_pending;
    for (auto& [partition, bucket] : buckets) {
      cubrick::CubrickServer* server = owners[partition];
      if (server == nullptr ||
          !server->InsertRows(table, partition, bucket).ok()) {
        for (cubrick::Row& row : bucket) {
          still_pending.push_back(std::move(row));
        }
      }
    }
    auto& slot = pending_writes_[region_id][table];
    // Keep anything recovery reconciliation queued meanwhile, plus the
    // undeliverable remainder.
    slot.insert(slot.end(), std::make_move_iterator(still_pending.begin()),
                std::make_move_iterator(still_pending.end()));
    if (slot.empty()) pending_writes_[region_id].erase(table);
  }
}

Status Deployment::CreateTable(const std::string& name,
                               cubrick::TableSchema schema,
                               TableOptions table_options) {
  uint32_t partitions = table_options.partitions;
  if (partitions == 0) {
    if (options_.sharding == ShardingMode::kFull) {
      // Legacy fully-sharded mode: one partition per server of a region,
      // so every query visits every node.
      partitions = static_cast<uint32_t>(
          cluster_.ServersInRegion(regions_[0]->id).size());
    } else {
      partitions = options_.default_partitions;
    }
  }
  uint32_t salt = 0;
  if (table_options.avoid_creation_collisions) {
    // Section VII future work: a new table whose partitions map to
    // already-placed shards inherits any co-location those shards have.
    // Probe deterministic salts until no two of the table's shards sit
    // on one server in any region (unplaced shards can't collide: their
    // placement goes through the non-retryable rejection path).
    for (uint32_t probe = 0; probe < table_options.max_salt_probes;
         ++probe) {
      bool collision = false;
      for (auto& region : regions_) {
        std::unordered_map<cluster::ServerId, int> per_server;
        for (uint32_t p = 0; p < partitions && !collision; ++p) {
          sm::ShardId shard =
              catalog_->mapper().ShardFor(name, p, probe);
          const sm::ShardAssignment* assignment =
              region->sm->GetAssignment(shard);
          if (assignment == nullptr) continue;
          for (const sm::Replica& replica : assignment->replicas) {
            if (++per_server[replica.server] > 1) collision = true;
          }
        }
        if (collision) break;
      }
      if (!collision) {
        salt = probe;
        break;
      }
    }
  }
  SCALEWALL_RETURN_IF_ERROR(
      catalog_->CreateTable(name, std::move(schema), partitions, salt));
  Status placed = EnsureTableShards(name);
  if (!placed.ok()) {
    catalog_->DropTable(name);
    return placed;
  }
  table_rows_[name] = 0;
  return Status::Ok();
}

Status Deployment::EnsureTableShards(const std::string& name) {
  for (auto& region : regions_) {
    for (sm::ShardId shard : catalog_->ShardsForTable(name)) {
      SCALEWALL_RETURN_IF_ERROR(region->sm->EnsureShard(shard));
    }
  }
  return Status::Ok();
}

Status Deployment::DropTable(const std::string& name) {
  if (!catalog_->HasTable(name)) {
    return Status::NotFound("table " + name);
  }
  for (auto& [id, server] : servers_) {
    server->DropTableData(name);
  }
  for (auto& [region_id, tables] : pending_writes_) {
    tables.erase(name);
  }
  table_rows_.erase(name);
  return catalog_->DropTable(name);
}

uint32_t Deployment::PartitionForRow(const cubrick::Row& row,
                                     uint32_t num_partitions,
                                     const std::string& table) const {
  // Deterministic record->partition assignment: hash of all dimension
  // values (Section IV-A allows deterministic or random assignment;
  // deterministic keeps repartition shuffles reproducible).
  uint64_t h = HashString(table);
  for (uint32_t v : row.dims) h = HashCombine(h, HashInt(v));
  return static_cast<uint32_t>(h % num_partitions);
}

Result<cluster::ServerId> Deployment::OwnerOf(Region& region,
                                              sm::ShardId shard) const {
  const sm::ShardAssignment* assignment = region.sm->GetAssignment(shard);
  if (assignment == nullptr || assignment->replicas.empty()) {
    SCALEWALL_RETURN_IF_ERROR(region.sm->EnsureShard(shard));
    assignment = region.sm->GetAssignment(shard);
    if (assignment == nullptr || assignment->replicas.empty()) {
      return Status::Unavailable("shard " + std::to_string(shard) +
                                 " unassigned in region " +
                                 std::to_string(region.id));
    }
  }
  const sm::Replica* primary = assignment->PrimaryReplica();
  cluster::ServerId server =
      primary != nullptr ? primary->server : assignment->replicas[0].server;
  if (!cluster_.Contains(server) || !cluster_.Get(server).IsServing()) {
    return Status::Unavailable("shard owner down");
  }
  return server;
}

Status Deployment::LoadRows(const std::string& name,
                            const std::vector<cubrick::Row>& rows) {
  auto info = catalog_->GetTable(name);
  SCALEWALL_RETURN_IF_ERROR(info.status());
  // Bucket rows by partition once, then bulk-insert per region.
  std::unordered_map<uint32_t, std::vector<cubrick::Row>> buckets;
  for (const cubrick::Row& row : rows) {
    buckets[PartitionForRow(row, info->num_partitions, name)].push_back(row);
  }
  // Resolve owners for every region *before* inserting anywhere: OwnerOf
  // may lazily place a shard whose AddShard recovers the partition from
  // another region — if that region had already received this batch, the
  // recovery snapshot would contain it and the insert below would apply
  // it twice.
  struct Destination {
    uint32_t partition;
    cubrick::CubrickServer* server;
    cluster::RegionId region;
  };
  std::vector<Destination> destinations;
  for (auto& region : regions_) {
    for (auto& [partition, bucket] : buckets) {
      auto shard = catalog_->ShardForPartition(name, partition);
      SCALEWALL_RETURN_IF_ERROR(shard.status());
      auto owner = OwnerOf(*region, *shard);
      if (!owner.ok()) {
        // Region copy temporarily incomplete (owner mid-failover); other
        // regions still take the write, and the retry loop delivers it
        // here once the copy recovers.
        SCALEWALL_LOG(kInfo) << "load deferred in region "
                             << static_cast<int>(region->id) << ": "
                             << owner.status().ToString();
        DeferWrite(region->id, name, bucket);
        continue;
      }
      cubrick::CubrickServer* server = Lookup(*owner);
      if (server == nullptr) {
        DeferWrite(region->id, name, bucket);
        continue;
      }
      destinations.push_back(Destination{partition, server, region->id});
    }
  }
  for (const Destination& dest : destinations) {
    Status st = dest.server->InsertRows(name, dest.partition,
                                        buckets[dest.partition]);
    if (!st.ok()) {
      SCALEWALL_LOG(kWarning) << "insert failed in region "
                              << static_cast<int>(dest.region) << ": "
                              << st.ToString();
      DeferWrite(dest.region, name, buckets[dest.partition]);
    }
  }
  table_rows_[name] += rows.size();
  MaybeRepartition(name);
  return Status::Ok();
}

void Deployment::MaybeRepartition(const std::string& name) {
  auto info = catalog_->GetTable(name);
  if (!info.ok()) return;
  uint64_t rows = table_rows_[name];
  uint64_t per_partition = rows / std::max<uint32_t>(1, info->num_partitions);
  if (per_partition > options_.repartition_threshold_rows) {
    // A region cannot host more partitions of one table than it has
    // servers (one partition per server, by the collision rule), so
    // growth stops at the region size.
    uint32_t region_servers = static_cast<uint32_t>(
        cluster_.ServersInRegion(regions_[0]->id).size());
    uint32_t target = info->num_partitions * 2;
    if (target > region_servers) return;
    Status st = Repartition(name, target);
    if (!st.ok()) {
      SCALEWALL_LOG(kWarning) << "repartition of " << name
                              << " failed: " << st.ToString();
    }
  }
}

Status Deployment::Repartition(const std::string& name,
                               uint32_t new_partitions) {
  auto info = catalog_->GetTable(name);
  SCALEWALL_RETURN_IF_ERROR(info.status());
  if (new_partitions == info->num_partitions) return Status::Ok();
  if (new_partitions == 0) {
    return Status::InvalidArgument("partition count must be positive");
  }
  // A region can host at most one partition of a table per server (the
  // shard-collision rule), so more partitions than the smallest region
  // has servers could never be placed collision-free — and would leave
  // unplaceable shards after failovers.
  for (auto& region : regions_) {
    uint32_t region_servers =
        static_cast<uint32_t>(cluster_.ServersInRegion(region->id).size());
    if (new_partitions > region_servers) {
      return Status::InvalidArgument(
          "region " + std::to_string(region->id) + " has only " +
          std::to_string(region_servers) + " servers; cannot host " +
          std::to_string(new_partitions) + " partitions of one table");
    }
  }
  SCALEWALL_LOG(kInfo) << "repartitioning " << name << ": "
                       << info->num_partitions << " -> " << new_partitions;

  // Snapshot all rows from a *complete* region copy: every partition
  // exported and nothing in the region's write-behind buffer. A complete
  // copy plus buffer-emptiness covers every row the table holds anywhere;
  // an incomplete snapshot would silently lose the un-exported partitions
  // once the old layout is dropped, so without one the repartition is
  // refused (and retried later by the ingestion path).
  std::vector<cubrick::Row> all_rows;
  bool have_complete = false;
  for (auto& region : regions_) {
    std::vector<cubrick::Row> rows;
    bool complete = true;
    for (uint32_t p = 0; p < info->num_partitions; ++p) {
      auto shard = catalog_->ShardForPartition(name, p);
      if (!shard.ok()) continue;
      auto owner = OwnerOf(*region, *shard);
      if (!owner.ok()) {
        complete = false;
        continue;
      }
      cubrick::CubrickServer* server = Lookup(*owner);
      if (server == nullptr) {
        complete = false;
        continue;
      }
      auto exported = server->ExportPartition(name, p);
      if (!exported.ok()) {
        complete = false;
        continue;
      }
      for (cubrick::Row& row : *exported) rows.push_back(std::move(row));
    }
    auto pending_it = pending_writes_.find(region->id);
    if (pending_it != pending_writes_.end()) {
      auto table_it = pending_it->second.find(name);
      if (table_it != pending_it->second.end()) {
        for (const cubrick::Row& row : table_it->second) {
          rows.push_back(row);
        }
        complete = complete && table_it->second.empty();
      }
    }
    if (complete) {
      all_rows = std::move(rows);
      have_complete = true;
      break;
    }
  }
  if (!have_complete) {
    return Status::Unavailable(
        "no region has a complete copy of " + name +
        " right now; repartition deferred");
  }
  // Every row of the table is in the snapshot now; the reshuffle below
  // redistributes to all regions (deferring again where needed), so the
  // write-behind buffers for this table restart empty.
  for (auto& [region_id, tables] : pending_writes_) {
    tables.erase(name);
  }

  // Drop the old physical layout everywhere, flip the metadata, place any
  // new shards, then redistribute under the new partition count. This is
  // the "computationally expensive operation that requires data
  // shuffling" of Section IV-B.
  uint32_t old_partitions = info->num_partitions;
  for (auto& [id, server] : servers_) {
    server->DropTableData(name);
  }
  SCALEWALL_RETURN_IF_ERROR(catalog_->SetNumPartitions(name, new_partitions));
  Status placed = EnsureTableShards(name);
  if (!placed.ok()) {
    // Placement for the wider layout failed (e.g. not enough
    // collision-free servers); roll back to the old partition count and
    // restore the data under it rather than losing rows.
    catalog_->SetNumPartitions(name, old_partitions);
    EnsureTableShards(name);
    new_partitions = old_partitions;
  }

  std::unordered_map<uint32_t, std::vector<cubrick::Row>> buckets;
  for (cubrick::Row& row : all_rows) {
    buckets[PartitionForRow(row, new_partitions, name)]
        .push_back(std::move(row));
  }
  for (auto& region : regions_) {
    for (auto& [partition, bucket] : buckets) {
      auto shard = catalog_->ShardForPartition(name, partition);
      if (!shard.ok()) continue;
      auto owner = OwnerOf(*region, *shard);
      cubrick::CubrickServer* server =
          owner.ok() ? Lookup(*owner) : nullptr;
      if (server == nullptr ||
          !server->InsertRows(name, partition, bucket).ok()) {
        DeferWrite(region->id, name, bucket);
      }
    }
  }
  if (new_partitions != old_partitions) ++repartitions_;
  return Status::Ok();
}

cubrick::QueryOutcome Deployment::Query(
    const cubrick::QueryRequest& request) {
  return proxy_->Submit(request);
}

cubrick::QueryOutcome Deployment::QuerySql(const std::string& sql,
                                           cubrick::QueryRequest request) {
  cubrick::QueryOutcome outcome;
  auto parsed = ParseSqlToQuery(sql);
  if (!parsed.ok()) {
    outcome.status = parsed.status();
    return outcome;
  }
  request.query = std::move(*parsed);
  return proxy_->Submit(request);
}

Result<cubrick::Query> Deployment::ParseSqlToQuery(
    const std::string& sql) const {
  // Resolve the schema by parsing just the FROM clause first: the parser
  // needs column names, which live in the catalog. A light scan for the
  // table name keeps the grammar in one place (cubrick/sql.cc).
  std::istringstream words(sql);
  std::string word, table;
  while (words >> word) {
    std::string upper = word;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    if (upper == "FROM" && (words >> table)) break;
  }
  if (table.empty()) {
    return Status::InvalidArgument("missing FROM clause");
  }
  auto info = catalog_->GetTable(table);
  SCALEWALL_RETURN_IF_ERROR(info.status());
  return cubrick::ParseQuery(sql, info->schema, catalog_.get());
}

Deployment::CollisionCensus Deployment::MeasureCollisions(
    cluster::RegionId region_id) const {
  CollisionCensus census;
  const Region& region = *regions_[region_id];
  for (const std::string& table : catalog_->TableNames()) {
    ++census.tables;
    std::vector<sm::ShardId> shards = catalog_->ShardsForTable(table);

    // Same-table partition collisions: two partitions of this table
    // mapped to one shard (prevented by the production mapping function).
    std::vector<sm::ShardId> sorted = shards;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      ++census.tables_with_same_table_collision;
    }

    // Cross-table partition collisions: a shard of this table also
    // carries partitions of another table.
    bool partition_collision = false;
    for (sm::ShardId shard : shards) {
      for (const cubrick::PartitionRef& ref :
           catalog_->PartitionsForShard(shard)) {
        if (ref.table != table) {
          partition_collision = true;
          break;
        }
      }
      if (partition_collision) break;
    }
    if (partition_collision) ++census.tables_with_partition_collision;

    // Shard collisions: two different shards of this table placed on one
    // server by SM.
    std::unordered_map<cluster::ServerId, int> per_server;
    bool shard_collision = false;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (sm::ShardId shard : sorted) {
      const sm::ShardAssignment* assignment = region.sm->GetAssignment(shard);
      if (assignment == nullptr) continue;
      for (const sm::Replica& replica : assignment->replicas) {
        if (++per_server[replica.server] > 1) {
          shard_collision = true;
          break;
        }
      }
      if (shard_collision) break;
    }
    if (shard_collision) ++census.tables_with_shard_collision;
  }
  return census;
}

}  // namespace scalewall::core
