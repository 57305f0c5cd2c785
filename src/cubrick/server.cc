#include "cubrick/server.h"

#include <algorithm>
#include <chrono>

#include "admit/fair_share_tree.h"
#include "common/logging.h"
#include "cubrick/planner.h"
#include "net/event_loop.h"

namespace scalewall::cubrick {

CubrickServer::Stats::Stats(obs::MetricsRegistry* registry,
                            cluster::ServerId server) {
  if (registry == nullptr) return;
  const obs::MetricLabels labels = {{"server", std::to_string(server)}};
  partial_queries =
      registry->GetCounter("scalewall_server_partial_queries_total", labels);
  forwarded_requests =
      registry->GetCounter("scalewall_server_forwarded_requests_total", labels);
  parallel_scans =
      registry->GetCounter("scalewall_server_parallel_scans_total", labels);
  morsels_executed = registry->GetCounter(
      "scalewall_exec_morsels_total",
      {{"server", std::to_string(server)}, {"result", "executed"}});
  morsels_skipped = registry->GetCounter(
      "scalewall_exec_morsels_total",
      {{"server", std::to_string(server)}, {"result", "skipped"}});
  bricks_compressed =
      registry->GetCounter("scalewall_server_bricks_compressed_total", labels);
  bricks_decompressed = registry->GetCounter(
      "scalewall_server_bricks_decompressed_total", labels);
  bricks_evicted =
      registry->GetCounter("scalewall_server_bricks_evicted_total", labels);
  recoveries =
      registry->GetCounter("scalewall_server_recoveries_total", labels);
  collision_rejections = registry->GetCounter(
      "scalewall_server_collision_rejections_total", labels);
  cache_hits = registry->GetCounter(
      "scalewall_server_result_cache_total",
      {{"server", std::to_string(server)}, {"result", "hit"}});
  cache_misses = registry->GetCounter(
      "scalewall_server_result_cache_total",
      {{"server", std::to_string(server)}, {"result", "miss"}});
  cache_invalidations = registry->GetCounter(
      "scalewall_server_result_cache_total",
      {{"server", std::to_string(server)}, {"result", "invalidated"}});
  // scan_micros stays standalone: it is measured wall-clock time, which
  // would make the exported text nondeterministic across runs.
}

CubrickServer::CubrickServer(sim::Simulation* simulation,
                             cluster::Cluster* cluster, Catalog* catalog,
                             cluster::ServerId server,
                             CubrickServerOptions options)
    : simulation_(simulation),
      cluster_(cluster),
      catalog_(catalog),
      server_(server),
      options_(options),
      rng_(simulation != nullptr ? simulation->rng().Fork(0xC0B1000ULL + server)
                                 : Rng(0xC0B1000ULL + server)),
      stats_(options_.metrics, server) {
  if (options_.scan_workers > 1) {
    exec_pool_ = std::make_unique<exec::ThreadPool>(options_.scan_workers);
  }
  if (options_.result_cache_bytes > 0) {
    result_cache_ =
        std::make_unique<PartialResultCache>(options_.result_cache_bytes);
  }
  obs::MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) return;
  // Scrape-time series over the pool's relaxed atomics and the cache's
  // snapshot: nothing to mirror, never stale.
  const obs::MetricLabels labels = {{"server", std::to_string(server_)}};
  auto add = [&](const char* name, bool counter,
                 std::function<double()> read) {
    metric_series_.push_back(
        counter ? metrics->CallbackCounter(name, labels, std::move(read))
                : metrics->CallbackGauge(name, labels, std::move(read)));
  };
  if (exec::ThreadPool* pool = exec_pool_.get()) {
    add("scalewall_exec_pool_queue_depth", false,
        [pool] { return pool->queue_depth(); });
    add("scalewall_exec_pool_queue_depth_peak", false,
        [pool] { return pool->peak_queue_depth(); });
    add("scalewall_exec_pool_steals_total", true,
        [pool] { return pool->steals(); });
    add("scalewall_exec_pool_tasks_submitted_total", true,
        [pool] { return pool->tasks_submitted(); });
    add("scalewall_exec_pool_tasks_executed_total", true,
        [pool] { return pool->tasks_executed(); });
  }
  if (PartialResultCache* cache = result_cache_.get()) {
    add("scalewall_server_result_cache_entries", false,
        [cache] { return cache->snapshot().entries; });
    add("scalewall_server_result_cache_bytes", false,
        [cache] { return cache->snapshot().bytes; });
    add("scalewall_server_result_cache_evictions_total", true,
        [cache] { return cache->snapshot().evictions; });
  }
}

PartialResultCache::Snapshot CubrickServer::ResultCacheSnapshot() const {
  if (result_cache_ == nullptr) return {};
  return result_cache_->snapshot();
}

SimDuration CubrickServer::EnqueueScan(SimTime now, SimDuration service) {
  if (options_.virtual_scan_slots <= 0) return 0;
  std::lock_guard<std::mutex> lock(scan_queue_mu_);
  // Completed reservations release their slots lazily, whenever modeled
  // time has moved past their busy-until instant.
  while (!scan_queue_.empty() && *scan_queue_.begin() <= now) {
    scan_queue_.erase(scan_queue_.begin());
  }
  SimDuration wait = 0;
  const size_t slots = static_cast<size_t>(options_.virtual_scan_slots);
  if (scan_queue_.size() >= slots) {
    // All slots busy: this scan starts when the (backlog - slots + 1)-th
    // earliest reservation releases one.
    auto it = scan_queue_.begin();
    std::advance(it, scan_queue_.size() - slots);
    wait = std::max<SimDuration>(*it - now, 0);
  }
  scan_queue_.insert(now + wait + service);
  return wait;
}

OverloadSignal CubrickServer::CurrentOverload(SimTime now) {
  OverloadSignal signal;
  {
    std::lock_guard<std::mutex> lock(scan_queue_mu_);
    while (!scan_queue_.empty() && *scan_queue_.begin() <= now) {
      scan_queue_.erase(scan_queue_.begin());
    }
    signal.scan_backlog = scan_queue_.size();
  }
  if (exec_pool_ != nullptr) {
    signal.queue_depth =
        static_cast<size_t>(std::max<int64_t>(exec_pool_->queue_depth(), 0));
  }
  // Backlog relative to service capacity. Without the virtual-queue
  // model the backlog is always 0 and the (usually idle) pool queue is
  // the only — typically silent — contributor, so the score stays 0 and
  // admission never sheds on backend state: exactly the seed behaviour.
  if (options_.virtual_scan_slots > 0) {
    signal.score = static_cast<double>(signal.scan_backlog) /
                   static_cast<double>(options_.virtual_scan_slots);
  }
  if (options_.scan_workers > 1 && signal.queue_depth > 0) {
    signal.score += static_cast<double>(signal.queue_depth) /
                    static_cast<double>(options_.scan_workers);
  }
  return signal;
}

void CubrickServer::StartMonitors() {
  if (monitors_started_ || simulation_ == nullptr) return;
  monitors_started_ = true;
  simulation_->SchedulePeriodic(options_.monitor_interval,
                                options_.monitor_interval,
                                [this] { RunMemoryMonitor(); });
  simulation_->SchedulePeriodic(options_.decay_interval,
                                options_.decay_interval,
                                [this] { RunHotnessDecay(); });
}

double CubrickServer::PhysicalMemory() const {
  if (cluster_ == nullptr || !cluster_->Contains(server_)) return 0;
  return static_cast<double>(cluster_->Get(server_).memory_bytes);
}

Status CubrickServer::CheckShardCollision(sm::ShardId shard) const {
  for (const PartitionRef& ref : catalog_->PartitionsForShard(shard)) {
    auto it = hosted_partitions_.find(ref.table);
    if (it == hosted_partitions_.end()) continue;
    for (uint32_t p : it->second) {
      if (p != ref.partition) {
        // "the target server already stores a shard that contains a
        // partition of one of the tables within the shard being migrated"
        // (Section IV-A): a non-retryable rejection so SM places the
        // shard elsewhere.
        return Status::NonRetryable(
            "shard collision: host already stores " +
            PartitionName(ref.table, p) + ", refusing " +
            PartitionName(ref.table, ref.partition));
      }
    }
  }
  return Status::Ok();
}

void CubrickServer::MaterializeShard(sm::ShardId shard, bool recover) {
  for (const PartitionRef& ref : catalog_->PartitionsForShard(shard)) {
    PartitionRef key{ref.table, ref.partition};
    if (partitions_.count(key) > 0) {
      hosted_partitions_[ref.table].insert(ref.partition);
      continue;
    }
    auto table = catalog_->GetTable(ref.table);
    if (!table.ok()) continue;  // dropped concurrently
    TablePartition partition(ref.table, ref.partition, table->schema);
    if (recover && recovery_source_) {
      CubrickServer* source = recovery_source_(ref.table, ref.partition);
      auto ref_shard = catalog_->ShardForPartition(ref.table, ref.partition);
      if (source != nullptr && ref_shard.ok()) {
        auto snapshot = source->SnapshotShard(*ref_shard);
        for (auto& [sref, rows] : snapshot) {
          if (!(sref == ref)) continue;
          for (const Row& row : rows) partition.Insert(row);
        }
        ++stats_.recoveries;
      }
    }
    partitions_.emplace(key, std::move(partition));
    hosted_partitions_[ref.table].insert(ref.partition);
  }
}

Status CubrickServer::AddShard(sm::ShardId shard, sm::ShardRole role) {
  (void)role;  // Cubrick deploys primary-only; promotions are no-ops.
  if (owned_shards_.count(shard) > 0) {
    return Status::Ok();  // idempotent (e.g. replica promotion)
  }
  bool staged = staged_shards_.count(shard) > 0;
  if (!staged) {
    SCALEWALL_RETURN_IF_ERROR(CheckShardCollision(shard));
    // Failover / first placement: recover data from a healthy region if
    // any copy exists; brand new tables materialize empty.
    MaterializeShard(shard, /*recover=*/true);
  }
  staged_shards_.erase(shard);
  forwarding_.erase(shard);
  owned_shards_.insert(shard);
  return Status::Ok();
}

Status CubrickServer::PrepareAddShard(sm::ShardId shard,
                                      cluster::ServerId from) {
  if (owned_shards_.count(shard) > 0) {
    return Status::FailedPrecondition("already own shard");
  }
  SCALEWALL_RETURN_IF_ERROR(CheckShardCollision(shard));
  // Copy data and metadata from the (healthy) old server.
  CubrickServer* source =
      directory_ != nullptr ? directory_->Lookup(from) : nullptr;
  if (source != nullptr) {
    for (auto& [ref, rows] : source->SnapshotShard(shard)) {
      auto table = catalog_->GetTable(ref.table);
      if (!table.ok()) continue;
      PartitionRef key{ref.table, ref.partition};
      auto [it, inserted] = partitions_.emplace(
          key, TablePartition(ref.table, ref.partition, table->schema));
      if (inserted) {
        for (const Row& row : rows) it->second.Insert(row);
      }
      hosted_partitions_[ref.table].insert(ref.partition);
    }
  } else {
    MaterializeShard(shard, /*recover=*/true);
  }
  staged_shards_.insert(shard);
  return Status::Ok();
}

Status CubrickServer::PrepareDropShard(sm::ShardId shard,
                                       cluster::ServerId to) {
  if (owned_shards_.count(shard) == 0) {
    return Status::FailedPrecondition("do not own shard");
  }
  // Cutover re-sync: the target's prepareAddShard copy is as old as the
  // migration's data-copy phase; push the current state (including writes
  // accepted meanwhile) before requests start forwarding.
  CubrickServer* target =
      directory_ != nullptr ? directory_->Lookup(to) : nullptr;
  if (target != nullptr) {
    for (auto& [ref, rows] : SnapshotShard(shard)) {
      target->ReplacePartitionData(ref, rows);
    }
  }
  forwarding_[shard] = to;
  return Status::Ok();
}

void CubrickServer::ReplacePartitionData(const PartitionRef& ref,
                                         const std::vector<Row>& rows) {
  auto table = catalog_->GetTable(ref.table);
  if (!table.ok()) return;  // table dropped concurrently
  PartitionRef key{ref.table, ref.partition};
  partitions_.erase(key);
  auto [it, inserted] = partitions_.emplace(
      key, TablePartition(ref.table, ref.partition, table->schema));
  for (const Row& row : rows) it->second.Insert(row);
  hosted_partitions_[ref.table].insert(ref.partition);
}

Status CubrickServer::DropShard(sm::ShardId shard) {
  if (owned_shards_.count(shard) == 0 && staged_shards_.count(shard) == 0) {
    return Status::NotFound("shard not hosted");
  }
  RemoveShardData(shard);
  owned_shards_.erase(shard);
  staged_shards_.erase(shard);
  forwarding_.erase(shard);
  return Status::Ok();
}

void CubrickServer::RemoveShardData(sm::ShardId shard) {
  for (const PartitionRef& ref : catalog_->PartitionsForShard(shard)) {
    partitions_.erase(PartitionRef{ref.table, ref.partition});
    auto it = hosted_partitions_.find(ref.table);
    if (it != hosted_partitions_.end()) {
      it->second.erase(ref.partition);
      if (it->second.empty()) hosted_partitions_.erase(it);
    }
  }
}

double CubrickServer::ShardLoad(sm::ShardId shard,
                                std::string_view metric) const {
  double load = 0;
  for (const PartitionRef& ref : catalog_->PartitionsForShard(shard)) {
    auto it = partitions_.find(PartitionRef{ref.table, ref.partition});
    if (it == partitions_.end()) continue;
    if (metric == "memory_footprint") {
      load += static_cast<double>(it->second.MemoryFootprint());
    } else if (metric == "decompressed_size") {
      load += static_cast<double>(it->second.DecompressedSize());
    } else if (metric == "ssd_footprint") {
      load += static_cast<double>(it->second.SsdFootprint());
    } else if (metric == "scan_micros") {
      // Measured scan time spent serving this shard's partitions — a
      // compute-load signal complementing the three size generations.
      std::lock_guard<std::mutex> lock(scan_stats_mu_);
      auto micros = partition_scan_micros_.find(
          PartitionRef{ref.table, ref.partition});
      if (micros != partition_scan_micros_.end()) {
        load += static_cast<double>(micros->second);
      }
    }
  }
  return load;
}

double CubrickServer::Capacity(std::string_view metric) const {
  if (metric == "memory_footprint") {
    // Generation 1: 90% of physical memory.
    return options_.reserved_memory_fraction * PhysicalMemory();
  }
  if (metric == "decompressed_size") {
    // Generation 2: memory capacity x average production compression
    // ratio, since the exported shard sizes are decompressed sizes.
    return options_.reserved_memory_fraction * PhysicalMemory() *
           options_.avg_compression_ratio;
  }
  if (metric == "ssd_footprint") {
    // Generation 3: SSD available space as the host capacity.
    if (cluster_ == nullptr || !cluster_->Contains(server_)) return 0;
    return static_cast<double>(cluster_->Get(server_).ssd_bytes);
  }
  return 0;
}

bool CubrickServer::HasPartition(const std::string& table,
                                 uint32_t partition) const {
  return partitions_.count(PartitionRef{table, partition}) > 0;
}

Status CubrickServer::InsertRows(const std::string& table, uint32_t partition,
                                 const std::vector<Row>& rows) {
  auto shard = catalog_->ShardForPartition(table, partition);
  SCALEWALL_RETURN_IF_ERROR(shard.status());
  auto fwd = forwarding_.find(*shard);
  if (fwd != forwarding_.end() && directory_ != nullptr) {
    CubrickServer* target = directory_->Lookup(fwd->second);
    if (target != nullptr) {
      ++stats_.forwarded_requests;
      return target->InsertRows(table, partition, rows);
    }
  }
  auto it = partitions_.find(PartitionRef{table, partition});
  if (it == partitions_.end()) {
    if (owned_shards_.count(*shard) == 0) {
      return Status::Unavailable("partition " +
                                 PartitionName(table, partition) +
                                 " not hosted on server " +
                                 std::to_string(server_));
    }
    auto info = catalog_->GetTable(table);
    SCALEWALL_RETURN_IF_ERROR(info.status());
    it = partitions_
             .emplace(PartitionRef{table, partition},
                      TablePartition(table, partition, info->schema))
             .first;
    hosted_partitions_[table].insert(partition);
  }
  for (const Row& row : rows) {
    SCALEWALL_RETURN_IF_ERROR(it->second.Insert(row));
  }
  return Status::Ok();
}

Result<PartialResult> CubrickServer::ExecutePartial(
    const Query& query, uint32_t partition, int hop_budget,
    const exec::CancelToken* cancel, obs::TraceContext trace,
    SimTime trace_time, cache::CachePolicy cache_policy,
    const std::string* fingerprint, const JoinContext* dims_override,
    const std::string* pool) {
  if (hop_budget < 0) hop_budget = options_.max_forward_hops;
  if (trace.active() && trace_time < 0) trace_time = Now();
  auto shard = catalog_->ShardForPartition(query.table, partition);
  if (!shard.ok()) return shard.status();

  // "prepareDropShard(s1): SM informs oldServer to start forwarding all
  // requests related to s1 to newServer" (Section IV-E) — forwarding
  // takes precedence over the local (now frozen, possibly stale) copy.
  auto forward = forwarding_.find(*shard);
  if (forward != forwarding_.end() && directory_ != nullptr &&
      hop_budget > 0) {
    CubrickServer* target = directory_->Lookup(forward->second);
    if (target != nullptr) {
      ++stats_.forwarded_requests;
      obs::TraceContext fspan =
          trace.Child("forward s" + std::to_string(forward->second),
                      trace_time);
      auto forwarded = target->ExecutePartial(query, partition,
                                              hop_budget - 1, cancel, fspan,
                                              trace_time, cache_policy,
                                              fingerprint, dims_override,
                                              pool);
      fspan.End(trace_time);
      if (!forwarded.ok()) return forwarded;
      forwarded->forward_hops += 1;
      return forwarded;
    }
  }

  auto it = partitions_.find(PartitionRef{query.table, partition});
  if (it == partitions_.end()) {
    if (owned_shards_.count(*shard) > 0) {
      // We own the shard but hold no rows for this partition (nothing was
      // ever routed to it, e.g. an empty hash bucket after a
      // repartition): a valid, empty partial answer — not an error.
      auto info = catalog_->GetTable(query.table);
      if (info.ok()) {
        SCALEWALL_RETURN_IF_ERROR(query.Validate(info->schema));
        ++stats_.partial_queries;
        PartialResult empty;
        empty.result = QueryResult(query.aggregations.size());
        return empty;
      }
    }
    return Status::Unavailable("partition " +
                               PartitionName(query.table, partition) +
                               " not hosted on server " +
                               std::to_string(server_));
  }
  ++stats_.partial_queries;
  // Resolve join inputs: broadcast subqueries carry their own dim
  // snapshots (dims_override); otherwise the local replicas back them.
  JoinContext join;
  std::vector<uint64_t> dim_epochs;
  if (!query.joins.empty()) {
    if (dims_override != nullptr &&
        dims_override->tables.size() != query.joins.size()) {
      return Status::InvalidArgument(
          "broadcast dim snapshots do not back the query's joins");
    }
    join.tables.reserve(query.joins.size());
    dim_epochs.reserve(query.joins.size());
    for (size_t j = 0; j < query.joins.size(); ++j) {
      const Join& jn = query.joins[j];
      const ReplicatedTable* table = dims_override != nullptr
                                         ? dims_override->tables[j]
                                         : GetReplicatedTable(
                                               jn.dimension_table);
      if (table == nullptr) {
        return Status::Unavailable("dimension table " + jn.dimension_table +
                                   " not replicated to server " +
                                   std::to_string(server_));
      }
      if (jn.attribute < 0 ||
          jn.attribute >= static_cast<int>(table->attributes().size())) {
        return Status::InvalidArgument("unknown attribute index for join");
      }
      join.tables.push_back(table);
      dim_epochs.push_back(table->epoch());
    }
  }
  PartialResult partial;
  partial.result = QueryResult(query.aggregations.size());
  // Epoch read *before* the scan: if ingestion races in mid-scan the
  // cached entry carries the older epoch and is conservatively
  // invalidated on its next lookup — never the other way around.
  partial.epoch = it->second.epoch();
  // Partition span: on the sim clock the engine runs at one frozen
  // instant, so the span is a point at trace_time; on the wall clock it
  // spans the measured scan. Its row/morsel weight is annotated.
  const auto span_time = [&] {
    return simulation_ != nullptr ? trace_time : Now();
  };
  obs::TraceContext pspan = trace.Child(
      "partition " + query.table + "/p" + std::to_string(partition),
      span_time());
  pspan.Annotate("server", std::to_string(server_));
  pspan.Annotate("rows", std::to_string(it->second.num_rows()));

  // Partial-result cache lookup. Join queries are cacheable too: the
  // entry records the dimension tables' epochs beside the partition
  // epoch, and a hit must match ALL of them — a dim update bumps its
  // epoch (the deployment stamps every replica identically) and
  // provably invalidates (DESIGN.md §15; the old joins-never-cached
  // carve-out of §10 is lifted).
  const bool cacheable = result_cache_ != nullptr &&
                         cache_policy != cache::CachePolicy::kBypass;
  std::string local_fp;
  PartialCacheKey cache_key;
  if (cacheable) {
    if (fingerprint == nullptr) {
      local_fp = CanonicalQueryFingerprint(query);
      fingerprint = &local_fp;
    }
    cache_key = PartialCacheKey{*fingerprint, partition};
    if (cache_policy != cache::CachePolicy::kRefresh) {
      // Cancel-safe: a caller that already gave up gets kCancelled, not
      // a hit it would discard anyway.
      if (cancel != nullptr && cancel->cancelled()) {
        pspan.Annotate("cancelled", "true");
        pspan.End(span_time());
        return Status::Cancelled("partial execution cancelled");
      }
      CachedPartial hit;
      if (result_cache_->Get(cache_key, &hit)) {
        if (hit.epoch == partial.epoch && hit.dim_epochs == dim_epochs) {
          ++stats_.cache_hits;
          pspan.Annotate("cache_hit", "true");
          pspan.End(span_time());
          partial.result = std::move(hit.result);
          partial.cache_hit = true;
          return partial;
        }
        // The partition (or a joined dim) changed since this entry was
        // produced: provably stale, drop it and fall through to a scan.
        result_cache_->Erase(cache_key);
        ++stats_.cache_invalidations;
      }
      ++stats_.cache_misses;
    }
    pspan.Annotate("cache_hit", "false");
  }
  exec::MorselMetrics morsel_metrics;
  exec::ExecOptions exec_options;
  exec_options.num_workers = options_.scan_workers;
  exec_options.morsel_rows = options_.morsel_rows;
  exec_options.pool = exec_pool_.get();
  exec_options.sched_pool = ExecPoolIdFor(pool);
  exec_options.cancel = cancel;
  exec_options.trace = pspan;
  exec_options.trace_time = trace_time;
  exec_options.morsel_metrics = &morsel_metrics;
  exec_options.scan_path = scan_path_;
  const auto scan_start = std::chrono::steady_clock::now();
  Status scan_status =
      it->second.Execute(query, partial.result,
                         query.joins.empty() ? nullptr : &join,
                         &exec_options);
  stats_.morsels_executed += morsel_metrics.executed;
  stats_.morsels_skipped += morsel_metrics.skipped;
  pspan.Annotate("morsels", std::to_string(morsel_metrics.executed));
  pspan.Annotate("rows_scanned", std::to_string(partial.result.rows_scanned));
  pspan.Annotate("bricks", std::to_string(partial.result.bricks_scanned));
  pspan.Annotate("rle_skipped",
                 std::to_string(partial.result.bricks_rle_skipped));
  pspan.End(span_time());
  SCALEWALL_RETURN_IF_ERROR(scan_status);
  const int64_t micros = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - scan_start)
                             .count();
  stats_.scan_micros.fetch_add(micros, std::memory_order_relaxed);
  if (pool_tree_ != nullptr) {
    // Charge the measured scan time back to the claim's pool — the
    // end-to-end accounting link between the exec layer and the
    // admission tree. Unclaimed work lands on the default pool.
    pool_tree_->ChargeScanMicros(
        pool != nullptr && !pool->empty() ? std::string_view(*pool)
                                          : admit::kDefaultPool,
        micros);
  }
  if (exec_pool_ != nullptr && options_.scan_workers > 1) {
    stats_.parallel_scans.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(scan_stats_mu_);
    partition_scan_micros_[PartitionRef{query.table, partition}] += micros;
  }
  if (cacheable && !(cancel != nullptr && cancel->cancelled())) {
    // A scan that raced a cancellation may have stopped between morsels
    // with a partial answer; only complete, uncancelled results are
    // cached. kRefresh lands here too: re-executed, then stored.
    result_cache_->Put(
        cache_key, CachedPartial{partial.epoch, dim_epochs, partial.result},
        ApproxResultBytes(partial.result) + cache_key.first.size());
  }
  return partial;
}

SimTime CubrickServer::Now() const {
  return simulation_ != nullptr ? simulation_->now()
                                : net::EventLoop::NowMicros();
}

int CubrickServer::ExecPoolIdFor(const std::string* pool) {
  if (exec_pool_ == nullptr) return exec::ThreadPool::kNoPool;
  std::string path = pool != nullptr && !pool->empty()
                         ? admit::NormalizePoolPath(*pool)
                         : std::string(admit::kDefaultPool);
  // The stride weight tracks the admission tree's configured weight for
  // the leaf (1.0 when no tree is attached): the same knob governs both
  // admission-time fair shares and scan-time CPU arbitration.
  double weight = 1.0;
  if (pool_tree_ != nullptr) {
    weight = pool_tree_->Config(pool_tree_->Resolve(path)).weight;
  }
  std::lock_guard<std::mutex> lock(scan_stats_mu_);
  auto it = exec_pool_ids_.find(path);
  if (it == exec_pool_ids_.end() && exec_pool_ids_.size() >= admit::kMaxPools) {
    // Clients name their pools: past the cap, a new path shares the
    // default pool instead of registering one more.
    path = admit::kDefaultPool;
    it = exec_pool_ids_.find(path);
  }
  if (it != exec_pool_ids_.end()) {
    exec_pool_->SetPoolWeight(it->second, weight);
    return it->second;
  }
  const int id = exec_pool_->RegisterPool(path, weight);
  exec_pool_ids_.emplace(path, id);
  return id;
}

Result<uint64_t> CubrickServer::PartitionEpoch(const std::string& table,
                                               uint32_t partition,
                                               int hop_budget) const {
  if (hop_budget < 0) hop_budget = options_.max_forward_hops;
  auto shard = catalog_->ShardForPartition(table, partition);
  if (!shard.ok()) return shard.status();
  auto forward = forwarding_.find(*shard);
  if (forward != forwarding_.end() && directory_ != nullptr &&
      hop_budget > 0) {
    const CubrickServer* target = directory_->Lookup(forward->second);
    if (target != nullptr) {
      return target->PartitionEpoch(table, partition, hop_budget - 1);
    }
  }
  auto it = partitions_.find(PartitionRef{table, partition});
  if (it == partitions_.end()) {
    if (owned_shards_.count(*shard) > 0) {
      // Owned but never materialized: the canonical "empty" epoch, which
      // matches the 0 ExecutePartial stamps on its empty fast path.
      return static_cast<uint64_t>(0);
    }
    return Status::Unavailable("partition " + PartitionName(table, partition) +
                               " not hosted on server " +
                               std::to_string(server_));
  }
  return it->second.epoch();
}

void CubrickServer::SetReplicatedTable(const ReplicatedTable& table) {
  replicated_.insert_or_assign(table.name(), table);
}

Status CubrickServer::UpsertReplicatedEntries(
    const ReplicatedTableInfo& info,
    const std::vector<DimensionEntry>& entries, uint64_t epoch) {
  auto it = replicated_.find(info.name);
  if (it == replicated_.end()) {
    it = replicated_
             .emplace(info.name,
                      ReplicatedTable(info.name, info.key_cardinality,
                                      info.attributes))
             .first;
  }
  for (const DimensionEntry& entry : entries) {
    SCALEWALL_RETURN_IF_ERROR(it->second.Set(entry));
  }
  if (epoch != 0) it->second.set_epoch(epoch);
  return Status::Ok();
}

Result<QueryResult> CubrickServer::MapShuffleGroups(
    const Query& query, const QueryResult& bucket) const {
  JoinContext join;
  join.tables.reserve(query.joins.size());
  for (const Join& jn : query.joins) {
    const ReplicatedTable* table = GetReplicatedTable(jn.dimension_table);
    if (table == nullptr) {
      return Status::Unavailable("dimension table " + jn.dimension_table +
                                 " not replicated to server " +
                                 std::to_string(server_));
    }
    join.tables.push_back(table);
  }
  return ApplyShuffleMapping(query, join, bucket);
}

void CubrickServer::DropReplicatedTable(const std::string& name) {
  replicated_.erase(name);
}

const ReplicatedTable* CubrickServer::GetReplicatedTable(
    const std::string& name) const {
  auto it = replicated_.find(name);
  return it == replicated_.end() ? nullptr : &it->second;
}

std::vector<std::pair<PartitionRef, std::vector<Row>>>
CubrickServer::SnapshotShard(sm::ShardId shard) const {
  std::vector<std::pair<PartitionRef, std::vector<Row>>> out;
  for (const PartitionRef& ref : catalog_->PartitionsForShard(shard)) {
    auto it = partitions_.find(PartitionRef{ref.table, ref.partition});
    if (it == partitions_.end()) continue;
    out.emplace_back(ref, it->second.ExportRows());
  }
  return out;
}

Result<std::vector<Row>> CubrickServer::ExportPartition(
    const std::string& table, uint32_t partition) const {
  auto it = partitions_.find(PartitionRef{table, partition});
  if (it == partitions_.end()) {
    return Status::NotFound("partition " + PartitionName(table, partition) +
                            " not hosted");
  }
  return it->second.ExportRows();
}

void CubrickServer::DropTableData(const std::string& table) {
  for (auto it = partitions_.begin(); it != partitions_.end();) {
    if (it->first.table == table) {
      it = partitions_.erase(it);
    } else {
      ++it;
    }
  }
  hosted_partitions_.erase(table);
  // Fresh epochs on any rebuilt partitions already make the old entries
  // unreachable; clearing just releases their budget promptly. Table
  // drops and repartitions are rare, so wiping everything is fine.
  if (result_cache_ != nullptr) {
    stats_.cache_invalidations +=
        static_cast<int64_t>(result_cache_->size());
    result_cache_->Clear();
  }
}

void CubrickServer::Reset() {
  if (result_cache_ != nullptr) {
    stats_.cache_invalidations +=
        static_cast<int64_t>(result_cache_->size());
    result_cache_->Clear();
  }
  partitions_.clear();
  replicated_.clear();
  hosted_partitions_.clear();
  owned_shards_.clear();
  staged_shards_.clear();
  forwarding_.clear();
  std::lock_guard<std::mutex> lock(scan_stats_mu_);
  partition_scan_micros_.clear();
}

size_t CubrickServer::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [ref, partition] : partitions_) {
    bytes += partition.MemoryFootprint();
  }
  return bytes;
}

void CubrickServer::RunMemoryMonitor() {
  double memory = PhysicalMemory();
  if (memory <= 0) return;
  double usage = static_cast<double>(MemoryUsage());
  double high = options_.high_watermark * memory;
  double target = options_.target_watermark * memory;
  double low = options_.low_watermark * memory;

  if (usage > high) {
    // Compress coldest-first until back under the target watermark.
    std::vector<Brick*> bricks;
    for (auto& [ref, partition] : partitions_) {
      for (Brick* b : partition.BricksByHotness(/*coldest_first=*/true)) {
        if (b->state() == BrickState::kUncompressed) bricks.push_back(b);
      }
    }
    std::sort(bricks.begin(), bricks.end(), [](Brick* a, Brick* b) {
      if (a->hotness() != b->hotness()) return a->hotness() < b->hotness();
      return a->id() < b->id();
    });
    for (Brick* brick : bricks) {
      if (usage <= target) break;
      size_t before = brick->MemoryFootprint();
      brick->Compress();
      usage -= static_cast<double>(before - brick->MemoryFootprint());
      ++stats_.bricks_compressed;
    }
    // Generation 3: if compression alone cannot relieve the pressure,
    // evict coldest compressed bricks to SSD.
    if (options_.enable_ssd_eviction && usage > target) {
      std::vector<Brick*> compressed;
      for (auto& [ref, partition] : partitions_) {
        for (auto& [id, brick] : partition.mutable_bricks()) {
          if (brick.state() == BrickState::kCompressed) {
            compressed.push_back(&brick);
          }
        }
      }
      std::sort(compressed.begin(), compressed.end(),
                [](Brick* a, Brick* b) {
                  if (a->hotness() != b->hotness()) {
                    return a->hotness() < b->hotness();
                  }
                  return a->id() < b->id();
                });
      for (Brick* brick : compressed) {
        if (usage <= target) break;
        size_t before = brick->MemoryFootprint();
        brick->EvictToSsd();
        usage -= static_cast<double>(before);
        ++stats_.bricks_evicted;
      }
    }
  } else if (usage < low) {
    // Surplus: decompress hottest-first, staying under the target.
    std::vector<Brick*> bricks;
    for (auto& [ref, partition] : partitions_) {
      for (auto& [id, brick] : partition.mutable_bricks()) {
        if (brick.state() != BrickState::kUncompressed) {
          bricks.push_back(&brick);
        }
      }
    }
    std::sort(bricks.begin(), bricks.end(), [](Brick* a, Brick* b) {
      if (a->hotness() != b->hotness()) return a->hotness() > b->hotness();
      return a->id() < b->id();
    });
    for (Brick* brick : bricks) {
      double grown = usage + static_cast<double>(brick->DecompressedSize());
      if (grown > target) break;
      if (brick->state() == BrickState::kOnSsd) brick->LoadFromSsd();
      brick->Decompress();
      usage = grown;
      ++stats_.bricks_decompressed;
    }
  }
}

void CubrickServer::RunHotnessDecay() {
  for (auto& [ref, partition] : partitions_) {
    partition.DecayHotness(rng_, options_.decay_probability);
  }
}

}  // namespace scalewall::cubrick
