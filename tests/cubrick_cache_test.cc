// Epoch-invalidated result caching, end to end: partition epochs across
// every invalidation path (ingestion, repartition, migration re-sync,
// failover recovery), the per-server partial-result cache (policy
// semantics, cancel-safety, LRU bounds), and the proxy's merged-result
// cache (validated hits, validation failures, the kAllowStale stale
// serve) through the redesigned QueryRequest submission API.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/deployment.h"
#include "core/metrics.h"
#include "cubrick/server.h"
#include "exec/cancel.h"
#include "sim/simulation.h"
#include "workload/generators.h"

namespace scalewall::cubrick {
namespace {

// Exact (bitwise-value) equality of two merged results: same group keys,
// same aggregation states. This is the "byte-identical to a re-scan"
// guarantee every non-stale cache hit must meet.
bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.num_groups() != b.num_groups()) return false;
  for (size_t g = 0; g < a.num_groups(); ++g) {
    const QueryResult::Group ga = a.group(g);
    const QueryResult::Group gb = b.group(g);
    if (!std::ranges::equal(ga.key, gb.key)) return false;
    if (ga.states.size() != gb.states.size()) return false;
    for (size_t i = 0; i < ga.states.size(); ++i) {
      const AggState& x = ga.states[i];
      const AggState& y = gb.states[i];
      if (x.sum != y.sum || x.count != y.count || x.min != y.min ||
          x.max != y.max) {
        return false;
      }
    }
  }
  return true;
}

class MapDirectory : public ServerDirectory {
 public:
  void Add(CubrickServer* server) { servers_[server->server_id()] = server; }
  CubrickServer* Lookup(cluster::ServerId id) const override {
    auto it = servers_.find(id);
    return it == servers_.end() ? nullptr : it->second;
  }

 private:
  std::map<cluster::ServerId, CubrickServer*> servers_;
};

class ServerCacheTest : public ::testing::Test {
 protected:
  ServerCacheTest()
      : sim_(47),
        cluster_(cluster::Cluster::Build({.regions = 2,
                                          .racks_per_region = 1,
                                          .servers_per_rack = 3,
                                          .memory_bytes = 1 << 20,
                                          .ssd_bytes = 8 << 20})),
        catalog_(1000) {
    options_.result_cache_bytes = 1 << 20;
    for (cluster::ServerId id : cluster_.AllServers()) {
      auto server = std::make_unique<CubrickServer>(&sim_, &cluster_,
                                                    &catalog_, id, options_);
      server->SetDirectory(&directory_);
      directory_.Add(server.get());
      servers_.push_back(std::move(server));
    }
  }

  CubrickServer& server(cluster::ServerId id) { return *servers_[id]; }

  std::vector<sm::ShardId> MakeTable(const std::string& name,
                                     uint32_t partitions = 4) {
    TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
    EXPECT_TRUE(catalog_.CreateTable(name, schema, partitions).ok());
    return catalog_.ShardsForTable(name);
  }

  std::vector<Row> MakeRows(size_t n, uint64_t seed = 5) {
    Rng rng(seed);
    return workload::GenerateRows(workload::MakeSchema(2, 64, 8, 1), n, rng);
  }

  Query CountSum(const std::string& table) {
    Query q;
    q.table = table;
    q.aggregations = {Aggregation{0, AggOp::kCount},
                      Aggregation{0, AggOp::kSum}};
    return q;
  }

  CubrickServerOptions options_;
  sim::Simulation sim_;
  cluster::Cluster cluster_;
  Catalog catalog_;
  MapDirectory directory_;
  std::vector<std::unique_ptr<CubrickServer>> servers_;
};

TEST_F(ServerCacheTest, EpochAdvancesOnIngestion) {
  auto shards = MakeTable("t");
  ASSERT_TRUE(server(0).AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  auto before = server(0).PartitionEpoch("t", 0);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(50)).ok());
  auto after = server(0).PartitionEpoch("t", 0);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(*after, *before);
  // Another batch bumps it again (even a rollup merge changes content).
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(50, 6)).ok());
  auto third = server(0).PartitionEpoch("t", 0);
  ASSERT_TRUE(third.ok());
  EXPECT_GT(*third, *after);
}

TEST_F(ServerCacheTest, EpochChangesOnMigrationResync) {
  auto shards = MakeTable("t");
  ASSERT_TRUE(server(0).AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(50)).ok());
  auto before = server(0).PartitionEpoch("t", 0);
  ASSERT_TRUE(before.ok());
  // The cutover re-sync path replaces the partition's data wholesale.
  server(0).ReplacePartitionData(PartitionRef{"t", 0}, MakeRows(60, 7));
  auto after = server(0).PartitionEpoch("t", 0);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*after, *before);
}

TEST_F(ServerCacheTest, EpochChangesOnFailoverRecovery) {
  auto shards = MakeTable("t");
  ASSERT_TRUE(server(0).AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(80)).ok());
  auto source_epoch = server(0).PartitionEpoch("t", 0);
  ASSERT_TRUE(source_epoch.ok());
  // Server 3 (other region) recovers the partition cross-region on
  // AddShard; the recovered copy gets its own fresh epoch — epochs are
  // drawn from one global monotonic source and never reused, so copies
  // on different hosts never alias in the merged cache's epoch vector.
  server(3).SetRecoverySource(
      [this](const std::string&, uint32_t) { return &server(0); });
  ASSERT_TRUE(server(3).AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  auto recovered_epoch = server(3).PartitionEpoch("t", 0);
  ASSERT_TRUE(recovered_epoch.ok());
  EXPECT_GT(*recovered_epoch, 0u);
  EXPECT_NE(*recovered_epoch, *source_epoch);
  EXPECT_EQ(server(3).stats().recoveries, 1);
}

TEST_F(ServerCacheTest, PartialCacheHitIsByteIdenticalToRescan) {
  auto shards = MakeTable("t");
  ASSERT_TRUE(server(0).AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(200)).ok());
  Query q = CountSum("t");
  q.group_by = {0};
  auto first = server(0).ExecutePartial(q, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_EQ(server(0).stats().cache_misses, 1);
  auto second = server(0).ExecutePartial(q, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->epoch, first->epoch);
  EXPECT_EQ(server(0).stats().cache_hits, 1);
  EXPECT_TRUE(SameResult(first->result, second->result));
  // A forced re-scan agrees too.
  auto bypass =
      server(0).ExecutePartial(q, 0, /*hop_budget=*/-1, nullptr, {}, -1,
                               cache::CachePolicy::kBypass);
  ASSERT_TRUE(bypass.ok());
  EXPECT_FALSE(bypass->cache_hit);
  EXPECT_TRUE(SameResult(first->result, bypass->result));
}

TEST_F(ServerCacheTest, IngestionInvalidatesPartialCache) {
  auto shards = MakeTable("t");
  ASSERT_TRUE(server(0).AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(100)).ok());
  Query q = CountSum("t");
  auto first = server(0).ExecutePartial(q, 0);
  ASSERT_TRUE(first.ok());
  // New data: the cached entry's epoch no longer matches and is dropped.
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(100, 9)).ok());
  auto second = server(0).ExecutePartial(q, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_EQ(server(0).stats().cache_invalidations, 1);
  double count = *second->result.Value({}, 0, AggOp::kCount);
  EXPECT_DOUBLE_EQ(count, 200.0);
  // And the refreshed entry serves the new content.
  auto third = server(0).ExecutePartial(q, 0);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->cache_hit);
  EXPECT_TRUE(SameResult(second->result, third->result));
}

TEST_F(ServerCacheTest, CachePolicySemantics) {
  auto shards = MakeTable("t");
  ASSERT_TRUE(server(0).AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(100)).ok());
  Query q = CountSum("t");
  // kBypass never reads nor writes the cache.
  auto bypass =
      server(0).ExecutePartial(q, 0, -1, nullptr, {}, -1,
                               cache::CachePolicy::kBypass);
  ASSERT_TRUE(bypass.ok());
  EXPECT_EQ(server(0).ResultCacheSnapshot().entries, 0u);
  // kRefresh skips the lookup but stores the fresh result.
  auto refresh =
      server(0).ExecutePartial(q, 0, -1, nullptr, {}, -1,
                               cache::CachePolicy::kRefresh);
  ASSERT_TRUE(refresh.ok());
  EXPECT_FALSE(refresh->cache_hit);
  EXPECT_EQ(server(0).ResultCacheSnapshot().entries, 1u);
  // Another kRefresh still re-scans even though an entry exists.
  auto refresh2 =
      server(0).ExecutePartial(q, 0, -1, nullptr, {}, -1,
                               cache::CachePolicy::kRefresh);
  ASSERT_TRUE(refresh2.ok());
  EXPECT_FALSE(refresh2->cache_hit);
  // kDefault serves the stored entry.
  auto hit = server(0).ExecutePartial(q, 0);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
}

TEST_F(ServerCacheTest, JoinQueriesCacheUnderDimEpochs) {
  auto shards = MakeTable("t");
  ASSERT_TRUE(server(0).AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(100)).ok());
  ASSERT_TRUE(catalog_.CreateReplicatedTable("dim", 64,
                                             {Dimension{"bucket", 4, 1}})
                  .ok());
  ReplicatedTable master("dim", 64, {Dimension{"bucket", 4, 1}});
  for (uint32_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(master.Set(DimensionEntry{k, {k % 4}}).ok());
  }
  master.set_epoch(1);
  server(0).SetReplicatedTable(master);
  Query q = CountSum("t");
  q.joins = {Join{1, "dim", 0}};
  q.group_by_joins = {0};
  // The old §10 carve-out ("joins are never cached") is lifted: the
  // cache entry records the dim epoch beside the partition epoch, so a
  // hit is provably valid and byte-identical to a re-scan.
  auto first = server(0).ExecutePartial(q, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_EQ(server(0).ResultCacheSnapshot().entries, 1u);
  auto second = server(0).ExecutePartial(q, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_TRUE(SameResult(first->result, second->result));
  // A dim update ships with a bumped epoch; the entry no longer
  // validates and the re-scan sees the new attribute mapping.
  for (uint32_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(master.Set(DimensionEntry{k, {(k + 1) % 4}}).ok());
  }
  master.set_epoch(2);
  server(0).SetReplicatedTable(master);
  auto after = server(0).ExecutePartial(q, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  EXPECT_GE(server(0).stats().cache_invalidations, 1);
  EXPECT_FALSE(SameResult(first->result, after->result));
  // The refreshed entry validates against the new epoch and its hit is
  // byte-identical to the post-update scan.
  auto refreshed = server(0).ExecutePartial(q, 0);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(refreshed->cache_hit);
  EXPECT_TRUE(SameResult(after->result, refreshed->result));
}

TEST_F(ServerCacheTest, CancelledExecutionNeverServesNorPopulates) {
  auto shards = MakeTable("t");
  ASSERT_TRUE(server(0).AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(100)).ok());
  Query q = CountSum("t");
  exec::CancelToken cancel;
  cancel.RequestCancel();
  auto cancelled = server(0).ExecutePartial(q, 0, -1, &cancel);
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(server(0).ResultCacheSnapshot().entries, 0u);
  // Populate normally, then verify a cancelled token still refuses to
  // serve the (valid) hit: the coordinator gave up on this query.
  ASSERT_TRUE(server(0).ExecutePartial(q, 0).ok());
  EXPECT_EQ(server(0).ResultCacheSnapshot().entries, 1u);
  auto cancelled2 = server(0).ExecutePartial(q, 0, -1, &cancel);
  EXPECT_EQ(cancelled2.status().code(), StatusCode::kCancelled);
}

TEST_F(ServerCacheTest, LruEvictionUnderBytesBudget) {
  CubrickServerOptions tiny = options_;
  tiny.result_cache_bytes = 2048;
  CubrickServer small(&sim_, &cluster_, &catalog_, /*server=*/99, tiny);
  auto shards = MakeTable("t", 1);
  ASSERT_TRUE(small.AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  ASSERT_TRUE(small.InsertRows("t", 0, MakeRows(500)).ok());
  // Distinct fingerprints via varying filters (single-group results so
  // each entry fits the budget individually); enough of them must
  // overflow 2 KiB collectively.
  for (uint32_t lo = 0; lo < 24; ++lo) {
    Query q = CountSum("t");
    q.filters = {FilterRange{0, lo, 4096}};
    ASSERT_TRUE(small.ExecutePartial(q, 0).ok());
  }
  auto snap = small.ResultCacheSnapshot();
  EXPECT_GT(snap.evictions, 0);
  EXPECT_LE(snap.bytes, 2048u);
  EXPECT_LT(snap.entries, 24u);
}

TEST_F(ServerCacheTest, DropTableDataClearsCache) {
  auto shards = MakeTable("t");
  ASSERT_TRUE(server(0).AddShard(shards[0], sm::ShardRole::kPrimary).ok());
  ASSERT_TRUE(server(0).InsertRows("t", 0, MakeRows(100)).ok());
  ASSERT_TRUE(server(0).ExecutePartial(CountSum("t"), 0).ok());
  EXPECT_EQ(server(0).ResultCacheSnapshot().entries, 1u);
  server(0).DropTableData("t");
  EXPECT_EQ(server(0).ResultCacheSnapshot().entries, 0u);
  EXPECT_GE(server(0).stats().cache_invalidations, 1);
}

}  // namespace
}  // namespace scalewall::cubrick

namespace scalewall::core {
namespace {

DeploymentOptions CachingOptions(uint64_t seed = 21) {
  DeploymentOptions options;
  options.seed = seed;
  options.topology.regions = 3;
  options.topology.racks_per_region = 3;
  options.topology.servers_per_rack = 4;  // 36 servers
  options.max_shards = 5000;
  options.per_host_failure_probability = 0.0;
  options.enable_result_caching = true;
  return options;
}

cubrick::Query CountSum(const std::string& table) {
  cubrick::Query q;
  q.table = table;
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kCount},
                    cubrick::Aggregation{0, cubrick::AggOp::kSum}};
  return q;
}

class ProxyCacheTest : public ::testing::Test {
 protected:
  void Make(DeploymentOptions options) {
    dep_ = std::make_unique<Deployment>(options);
    schema_ = workload::MakeSchema(2, 64, 8, 1);
  }

  std::vector<cubrick::Row> Setup(const std::string& table, size_t rows) {
    EXPECT_TRUE(dep_->CreateTable(table, schema_).ok());
    Rng rng(7);
    auto data = workload::GenerateRows(schema_, rows, rng);
    EXPECT_TRUE(dep_->LoadRows(table, data).ok());
    dep_->RunFor(15 * kSecond);
    return data;
  }

  std::unique_ptr<Deployment> dep_;
  cubrick::TableSchema schema_;
};

TEST_F(ProxyCacheTest, ValidatedHitSkipsFanoutAndCutsLatency) {
  Make(CachingOptions());
  Setup("t", 4000);
  cubrick::QueryRequest request(CountSum("t"));
  auto first = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_EQ(first.cache_hits, 0);
  auto second = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(second.status.ok()) << second.status;
  EXPECT_EQ(second.cache_hits, 1);
  EXPECT_FALSE(second.served_stale);
  // No fan-out attempt ran: the answer came from the merged cache after
  // one epoch-check roundtrip, which is why the latency collapses.
  EXPECT_EQ(second.attempts, 0);
  EXPECT_LT(second.latency, first.latency);
  EXPECT_TRUE(cubrick::SameResult(first.result, second.result));
  EXPECT_EQ(second.num_partitions, first.num_partitions);
  EXPECT_EQ(dep_->proxy().stats().cache_hits, 1);
}

TEST_F(ProxyCacheTest, IngestionFailsValidationAndServesFreshData) {
  Make(CachingOptions());
  auto rows = Setup("t", 3000);
  cubrick::QueryRequest request(CountSum("t"));
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(request)).status.ok());
  // New rows bump the written partitions' epochs: the cached entry must
  // not be served.
  Rng rng(8);
  auto more = workload::GenerateRows(schema_, 500, rng);
  ASSERT_TRUE(dep_->LoadRows("t", more).ok());
  auto after = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_EQ(after.cache_hits, 0);
  EXPECT_FALSE(after.served_stale);
  EXPECT_DOUBLE_EQ(*after.result.Value({}, 0, cubrick::AggOp::kCount),
                   3500.0);
  EXPECT_GE(dep_->proxy().stats().cache_validation_failures, 1);
  // The full execution refreshed the entry; it validates again now.
  auto third = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(third.status.ok());
  EXPECT_EQ(third.cache_hits, 1);
  EXPECT_TRUE(cubrick::SameResult(after.result, third.result));
}

TEST_F(ProxyCacheTest, JoinResultsCacheAndDimUpdatesInvalidate) {
  Make(CachingOptions());
  Setup("t", 3000);
  ASSERT_TRUE(dep_->CreateDimensionTable("groups", 64,
                                         {cubrick::Dimension{"bucket", 4, 1}})
                  .ok());
  std::vector<cubrick::DimensionEntry> entries;
  for (uint32_t k = 0; k < 64; ++k) {
    entries.push_back(cubrick::DimensionEntry{k, {k % 4}});
  }
  ASSERT_TRUE(dep_->LoadDimensionEntries("groups", entries).ok());
  cubrick::Query q = CountSum("t");
  q.joins = {cubrick::Join{1, "groups", 0}};
  q.group_by_joins = {0};
  cubrick::QueryRequest request(q);
  // Join results are cacheable now (§15 lifts the §10 carve-out): the
  // merged entry's epoch vector carries the dim epochs, so the second
  // submission validates and skips the fan-out.
  auto first = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(first.status.ok()) << first.status;
  auto second = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.cache_hits, 1);
  EXPECT_EQ(second.attempts, 0);
  EXPECT_TRUE(cubrick::SameResult(first.result, second.result));
  // A dim update stamps a fresh epoch on every replica: the entry fails
  // validation and the re-execution sees the new mapping.
  ASSERT_TRUE(dep_->LoadDimensionEntries(
                      "groups", {cubrick::DimensionEntry{0, {3}}})
                  .ok());
  auto after = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_EQ(after.cache_hits, 0);
  EXPECT_GE(dep_->proxy().stats().cache_validation_failures, 1);
  EXPECT_FALSE(cubrick::SameResult(first.result, after.result));
  // The refreshed entry validates again and its hit is byte-identical
  // to the post-update execution.
  auto third = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(third.status.ok());
  EXPECT_EQ(third.cache_hits, 1);
  EXPECT_TRUE(cubrick::SameResult(after.result, third.result));
}

TEST_F(ProxyCacheTest, RepartitionFailsValidation) {
  Make(CachingOptions());
  Setup("t", 3000);
  cubrick::QueryRequest request(CountSum("t"));
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(request)).status.ok());
  // 12 servers per region caps the partition count at 12.
  ASSERT_TRUE(dep_->Repartition("t", 12).ok());
  dep_->RunFor(15 * kSecond);
  auto after = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(after.status.ok()) << after.status;
  // The whole physical layout changed (fresh partitions, fresh epochs):
  // provably stale, so the entry cannot be served.
  EXPECT_EQ(after.cache_hits, 0);
  EXPECT_DOUBLE_EQ(*after.result.Value({}, 0, cubrick::AggOp::kCount),
                   3000.0);
}

TEST_F(ProxyCacheTest, StaleServeOnlyUnderAllowStaleWhenAllRegionsFail) {
  Make(CachingOptions());
  Setup("t", 2000);
  cubrick::QueryRequest request(CountSum("t"));
  auto cached = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(cached.status.ok());
  // Take every server down: no region can run (or even validate) a query.
  for (cluster::ServerId id : dep_->cluster().AllServers()) {
    dep_->cluster().SetHealth(id, cluster::ServerHealth::kDown);
  }
  auto failed = dep_->Query(cubrick::QueryRequest(request));
  EXPECT_FALSE(failed.status.ok());
  EXPECT_FALSE(failed.served_stale);
  // kAllowStale degrades gracefully — flagged, never silent.
  cubrick::QueryRequest stale_ok = request;
  stale_ok.cache_policy = cache::CachePolicy::kAllowStale;
  auto stale = dep_->Query(cubrick::QueryRequest(stale_ok));
  ASSERT_TRUE(stale.status.ok()) << stale.status;
  EXPECT_TRUE(stale.served_stale);
  EXPECT_EQ(stale.cache_stale_serves, 1);
  EXPECT_TRUE(cubrick::SameResult(cached.result, stale.result));
  EXPECT_EQ(dep_->proxy().stats().cache_stale_serves, 1);
}

TEST_F(ProxyCacheTest, BypassPolicyNeverTouchesTheCache) {
  Make(CachingOptions());
  Setup("t", 2000);
  cubrick::QueryRequest request(CountSum("t"));
  request.cache_policy = cache::CachePolicy::kBypass;
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(request)).status.ok());
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(request)).status.ok());
  EXPECT_EQ(dep_->proxy().MergedCacheSnapshot().entries, 0u);
  EXPECT_EQ(dep_->proxy().stats().cache_hits, 0);
}

TEST_F(ProxyCacheTest, RequestDeadlineApplies) {
  Make(CachingOptions());
  Setup("t", 2000);
  cubrick::QueryRequest request(CountSum("t"));
  request.cache_policy = cache::CachePolicy::kBypass;  // force execution
  request.deadline = 1 * kMicrosecond;
  auto outcome = dep_->Query(cubrick::QueryRequest(request));
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ProxyCacheTest, PerRequestTracingToggle) {
  DeploymentOptions options = CachingOptions();
  options.enable_query_tracing = true;
  Make(options);
  Setup("t", 1000);
  size_t before = dep_->trace_sink().num_traces();
  cubrick::QueryRequest quiet(CountSum("t"));
  quiet.tracing = false;
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(quiet)).status.ok());
  EXPECT_EQ(dep_->trace_sink().num_traces(), before);
  cubrick::QueryRequest traced(CountSum("t"));
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(traced)).status.ok());
  EXPECT_EQ(dep_->trace_sink().num_traces(), before + 1);
}

TEST_F(ProxyCacheTest, QuerySqlWithRequestOverrides) {
  Make(CachingOptions());
  Setup("t", 2000);
  cubrick::QueryRequest request;
  request.preferred_region = 1;
  auto first = dep_->QuerySql("SELECT SUM(metric0) FROM t", request);
  ASSERT_TRUE(first.status.ok()) << first.status;
  auto second = dep_->QuerySql("SELECT SUM(metric0) FROM t", request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.cache_hits, 1);
  EXPECT_TRUE(cubrick::SameResult(first.result, second.result));
}

TEST_F(ProxyCacheTest, MetricsExportCarriesCacheAndCoordinatorSeries) {
  Make(CachingOptions());
  Setup("t", 2000);
  cubrick::QueryRequest request(CountSum("t"));
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(request)).status.ok());
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(request)).status.ok());
  std::string text = ExportMetricsText(*dep_);
  EXPECT_NE(text.find("scalewall_proxy_cache_total"), std::string::npos);
  EXPECT_NE(text.find("result=\"validated_hit\""), std::string::npos);
  EXPECT_NE(text.find("scalewall_server_result_cache_total"),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_server_result_cache_entries"),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_proxy_coordinator_picks{server="),
            std::string::npos);
}

TEST_F(ProxyCacheTest, ReliabilityCountersAccumulateIntoStats) {
  Make(CachingOptions());
  Setup("t", 2000);
  cubrick::QueryRequest request(CountSum("t"));
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(request)).status.ok());
  auto hit = dep_->Query(cubrick::QueryRequest(request));
  ASSERT_TRUE(hit.status.ok());
  EXPECT_EQ(hit.cache_hits, 1);
  // The proxy's Stats embed the same ReliabilityCounters struct the
  // per-query outcomes use; the per-outcome ints roll up into them.
  EXPECT_EQ(dep_->proxy().stats().cache_hits, 1);
  EXPECT_EQ(dep_->proxy().stats().subquery_retries, 0);
}

}  // namespace
}  // namespace scalewall::core
