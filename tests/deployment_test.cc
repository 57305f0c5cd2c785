// Integration tests: the full stack (simulator + cluster + discovery + SM
// + Cubrick + proxy) driven through the Deployment public API.

#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "core/deployment.h"
#include "core/metrics.h"
#include "core/scalability_model.h"
#include "workload/generators.h"

namespace scalewall::core {
namespace {

DeploymentOptions SmallOptions(uint64_t seed = 13) {
  DeploymentOptions options;
  options.seed = seed;
  options.topology.regions = 3;
  options.topology.racks_per_region = 4;
  options.topology.servers_per_rack = 4;  // 48 servers
  options.max_shards = 5000;
  options.per_host_failure_probability = 0.0;  // deterministic by default
  return options;
}

cubrick::Query CountQuery(const std::string& table) {
  cubrick::Query q;
  q.table = table;
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kCount},
                    cubrick::Aggregation{0, cubrick::AggOp::kSum}};
  return q;
}

class DeploymentTest : public ::testing::Test {
 protected:
  void Make(DeploymentOptions options) {
    dep_ = std::make_unique<Deployment>(options);
    schema_ = workload::MakeSchema(2, 64, 8, 1);
  }

  // Creates a table, loads `rows` rows, waits for discovery propagation.
  std::vector<cubrick::Row> Setup(const std::string& table, size_t rows,
                                  TableOptions table_options = {}) {
    EXPECT_TRUE(dep_->CreateTable(table, schema_, table_options).ok());
    Rng rng(99);
    auto data = workload::GenerateRows(schema_, rows, rng);
    EXPECT_TRUE(dep_->LoadRows(table, data).ok());
    dep_->RunFor(15 * kSecond);
    return data;
  }

  std::unique_ptr<Deployment> dep_;
  cubrick::TableSchema schema_;
};

TEST_F(DeploymentTest, CreateLoadQueryRoundtrip) {
  Make(SmallOptions());
  auto rows = Setup("t", 5000);
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t")));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, cubrick::AggOp::kCount),
                   5000.0);
  double expected_sum = 0;
  for (const auto& r : rows) expected_sum += r.metrics[0];
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 1, cubrick::AggOp::kSum),
                   expected_sum);
  EXPECT_EQ(outcome.num_partitions, 8u);
  EXPECT_LE(outcome.fanout, 8);
  EXPECT_EQ(outcome.attempts, 1);
}

TEST_F(DeploymentTest, PartialShardingLimitsFanout) {
  Make(SmallOptions());
  Setup("t", 2000);
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t")));
  ASSERT_TRUE(outcome.status.ok());
  // 48 servers but only 8 partitions: fan-out capped by partial sharding.
  EXPECT_LE(outcome.fanout, 8);
  EXPECT_GE(outcome.fanout, 1);
}

TEST_F(DeploymentTest, FullShardingSpansRegion) {
  DeploymentOptions options = SmallOptions();
  options.sharding = ShardingMode::kFull;
  Make(options);
  Setup("t", 5000);
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t")));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.num_partitions, 16u);  // all 16 servers of a region
  EXPECT_GT(outcome.fanout, 8);
}

TEST_F(DeploymentTest, DuplicateTableRejected) {
  Make(SmallOptions());
  Setup("t", 100);
  EXPECT_EQ(dep_->CreateTable("t", schema_).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DeploymentTest, QueryUnknownTableFails) {
  Make(SmallOptions());
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("ghost")));
  EXPECT_FALSE(outcome.status.ok());
}

TEST_F(DeploymentTest, GroupByMatchesReference) {
  Make(SmallOptions());
  auto rows = Setup("t", 3000);
  cubrick::Query q = CountQuery("t");
  q.group_by = {1};
  q.filters = {cubrick::FilterRange{0, 10, 40}};
  auto outcome = dep_->Query(cubrick::QueryRequest(q));
  ASSERT_TRUE(outcome.status.ok());
  std::map<uint32_t, double> expected;
  for (const auto& r : rows) {
    if (r.dims[0] >= 10 && r.dims[0] <= 40) expected[r.dims[1]] += 1.0;
  }
  EXPECT_EQ(outcome.result.num_groups(), expected.size());
  for (const auto& [key, count] : expected) {
    EXPECT_DOUBLE_EQ(
        *outcome.result.Value({key}, 0, cubrick::AggOp::kCount), count);
  }
}

TEST_F(DeploymentTest, FailoverRecoversDataCrossRegion) {
  Make(SmallOptions());
  Setup("t", 4000);

  // Kill the region-0 owner of partition 0.
  auto shard = dep_->catalog().ShardForPartition("t", 0);
  ASSERT_TRUE(shard.ok());
  const sm::ShardAssignment* assignment = dep_->sm(0).GetAssignment(*shard);
  ASSERT_NE(assignment, nullptr);
  cluster::ServerId victim = assignment->replicas[0].server;
  dep_->cluster().SetHealth(victim, cluster::ServerHealth::kDown);

  // Heartbeats lapse, SM fails over, the new owner recovers the partition
  // from a healthy region, discovery re-propagates.
  dep_->RunFor(2 * kMinute);
  const sm::ShardAssignment* after = dep_->sm(0).GetAssignment(*shard);
  ASSERT_NE(after, nullptr);
  ASSERT_EQ(after->replicas.size(), 1u);
  EXPECT_NE(after->replicas[0].server, victim);
  EXPECT_EQ(dep_->sm(0).stats().failovers, 1);

  // Region 0 queries answer with the full data again.
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t"), /*preferred_region=*/0));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, cubrick::AggOp::kCount),
                   4000.0);
}

TEST_F(DeploymentTest, QueriesRetryCrossRegionDuringFailover) {
  Make(SmallOptions());
  Setup("t", 1000);
  auto shard = dep_->catalog().ShardForPartition("t", 0);
  cluster::ServerId victim =
      dep_->sm(0).GetAssignment(*shard)->replicas[0].server;
  dep_->cluster().SetHealth(victim, cluster::ServerHealth::kDown);
  // Immediately (before failover finishes), a query preferring region 0
  // must transparently retry on another region and still succeed.
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t"), /*preferred_region=*/0));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_GT(outcome.attempts, 1);
  EXPECT_NE(outcome.region, 0);
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, cubrick::AggOp::kCount),
                   1000.0);
}

TEST_F(DeploymentTest, RegionDrainRoutesElsewhere) {
  DeploymentOptions options = SmallOptions();
  options.enable_failure_injector = true;
  options.failure_injector.enable_drains = false;
  options.failure_injector.mean_time_between_failures = 100000 * kDay;
  Make(options);
  Setup("t", 1000);
  // Disaster-preparedness exercise: take all of region 0 offline.
  dep_->failure_injector()->DrainRegion(0, 1 * kHour);
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t"), /*preferred_region=*/0));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_NE(outcome.region, 0);
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, cubrick::AggOp::kCount),
                   1000.0);
}

TEST_F(DeploymentTest, DrainMigratesShardsAndDataSurvives) {
  Make(SmallOptions());
  Setup("t", 3000);
  auto shard = dep_->catalog().ShardForPartition("t", 3);
  cluster::ServerId victim =
      dep_->sm(0).GetAssignment(*shard)->replicas[0].server;
  dep_->cluster().SetHealth(victim, cluster::ServerHealth::kDraining);
  dep_->RunFor(5 * kMinute);
  // All shards moved off the drained server.
  EXPECT_TRUE(dep_->sm(0).ShardsOnServer(victim).empty());
  EXPECT_GT(dep_->sm(0).stats().drain_migrations, 0);
  // Query still returns every row from region 0.
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t"), /*preferred_region=*/0));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.region, 0);
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, cubrick::AggOp::kCount),
                   3000.0);
}

TEST_F(DeploymentTest, RepartitionPreservesQueryResults) {
  Make(SmallOptions());
  auto rows = Setup("t", 4000);
  cubrick::Query q = CountQuery("t");
  q.filters = {cubrick::FilterRange{0, 0, 31}};
  auto before = dep_->Query(cubrick::QueryRequest(q));
  ASSERT_TRUE(before.status.ok());

  ASSERT_TRUE(dep_->Repartition("t", 16).ok());
  dep_->RunFor(15 * kSecond);
  auto info = dep_->catalog().GetTable("t");
  EXPECT_EQ(info->num_partitions, 16u);

  auto after = dep_->Query(cubrick::QueryRequest(q));
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_DOUBLE_EQ(*after.result.Value({}, 0, cubrick::AggOp::kCount),
                   *before.result.Value({}, 0, cubrick::AggOp::kCount));
  EXPECT_EQ(after.num_partitions, 16u);
  EXPECT_EQ(dep_->repartitions(), 1);
}

TEST_F(DeploymentTest, AutomaticRepartitionOnGrowth) {
  DeploymentOptions options = SmallOptions();
  options.repartition_threshold_rows = 200;  // tiny for the test
  Make(options);
  EXPECT_TRUE(dep_->CreateTable("t", schema_).ok());
  Rng rng(5);
  // 8 partitions x 200 rows threshold: 4000 rows must trigger growth.
  EXPECT_TRUE(
      dep_->LoadRows("t", workload::GenerateRows(schema_, 4000, rng)).ok());
  EXPECT_GT(dep_->repartitions(), 0);
  auto info = dep_->catalog().GetTable("t");
  EXPECT_GT(info->num_partitions, 8u);
  dep_->RunFor(15 * kSecond);
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t")));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, cubrick::AggOp::kCount),
                   4000.0);
}

TEST_F(DeploymentTest, ProxyCacheTracksRepartition) {
  Make(SmallOptions());
  Setup("t", 1000);
  dep_->Query(cubrick::QueryRequest(CountQuery("t")));
  EXPECT_EQ(dep_->proxy().CachedPartitions("t"), 8u);
  ASSERT_TRUE(dep_->Repartition("t", 16).ok());
  dep_->RunFor(15 * kSecond);
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t")));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(dep_->proxy().CachedPartitions("t"), 16u);
}

TEST_F(DeploymentTest, SqlQueriesEndToEnd) {
  Make(SmallOptions());
  auto rows = Setup("events", 2000);
  // Schema from MakeSchema(2, 64, 8, 1): dim0, dim1; metric0.
  auto outcome = dep_->QuerySql(
      "SELECT dim1, SUM(metric0), COUNT(*) FROM events "
      "WHERE dim0 BETWEEN 0 AND 31 GROUP BY dim1",
      cubrick::QueryRequest{});
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  std::map<uint32_t, double> expected;
  for (const auto& r : rows) {
    if (r.dims[0] <= 31) expected[r.dims[1]] += r.metrics[0];
  }
  EXPECT_EQ(outcome.result.num_groups(), expected.size());
  for (const auto& [key, sum] : expected) {
    EXPECT_DOUBLE_EQ(*outcome.result.Value({key}, 0, cubrick::AggOp::kSum),
                     sum);
  }
}

TEST_F(DeploymentTest, SqlErrorsSurfaceCleanly) {
  Make(SmallOptions());
  Setup("events", 10);
  EXPECT_EQ(dep_->QuerySql("SELECT SUM(metric0) FROM ghost", cubrick::QueryRequest{})
          .status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(dep_->QuerySql("garbage query", cubrick::QueryRequest{}).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      dep_->QuerySql("SELECT SUM(nope) FROM events", cubrick::QueryRequest{})
          .status.code(),
      StatusCode::kInvalidArgument);
}

TEST_F(DeploymentTest, ProxyTracesQueries) {
  Make(SmallOptions());
  Setup("t", 100);
  dep_->Query(cubrick::QueryRequest(CountQuery("t")));
  dep_->QuerySql("SELECT COUNT(*) FROM t", cubrick::QueryRequest{});
  auto traces = dep_->proxy().RecentTraces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].table, "t");
  EXPECT_EQ(traces[0].status, StatusCode::kOk);
  EXPECT_GT(traces[0].latency, 0);
  EXPECT_EQ(traces[1].attempts, 1);
}

TEST_F(DeploymentTest, DropTableRemovesEverything) {
  Make(SmallOptions());
  Setup("t", 500);
  ASSERT_TRUE(dep_->DropTable("t").ok());
  EXPECT_FALSE(dep_->catalog().HasTable("t"));
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t")));
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(dep_->DropTable("t").code(), StatusCode::kNotFound);
}

TEST_F(DeploymentTest, TransientFailuresDegradeSingleAttemptSuccess) {
  DeploymentOptions options = SmallOptions();
  options.per_host_failure_probability = 0.01;  // exaggerated for the test
  options.proxy_options.max_attempts = 1;       // isolate one attempt
  Make(options);
  Setup("t", 800);
  int failures = 0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t")));
    if (!outcome.status.ok()) ++failures;
    dep_->RunFor(500 * kMillisecond);
  }
  double observed = 1.0 - static_cast<double>(failures) / n;
  double expected = QuerySuccessRatio(0.01, 8);  // ~0.92
  EXPECT_NEAR(observed, expected, 0.05);
}

TEST_F(DeploymentTest, CrossRegionRetriesMaskTransientFailures) {
  DeploymentOptions options = SmallOptions();
  options.per_host_failure_probability = 0.01;
  options.proxy_options.max_attempts = 3;
  Make(options);
  Setup("t", 800);
  int failures = 0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t")));
    if (!outcome.status.ok()) ++failures;
    dep_->RunFor(500 * kMillisecond);
  }
  // One attempt fails ~8%; three independent attempts fail ~0.05%.
  EXPECT_LE(failures, 4);
  EXPECT_GT(dep_->proxy().stats().cross_region_retries, 0);
}

TEST_F(DeploymentTest, CollisionCensusFindsNoSameTableCollisions) {
  Make(SmallOptions());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        dep_->CreateTable("t" + std::to_string(i), schema_).ok());
  }
  auto census = dep_->MeasureCollisions(0);
  EXPECT_EQ(census.tables, 40);
  EXPECT_EQ(census.tables_with_same_table_collision, 0);
}

TEST_F(DeploymentTest, AdmissionControlRejectsOverLimit) {
  DeploymentOptions options = SmallOptions();
  options.proxy_options.enable_admission = true;
  options.proxy_options.admission.max_concurrency = 0;
  options.proxy_options.admission.max_rate = 5;
  Make(options);
  Setup("t", 100);
  int rejected = 0;
  for (int i = 0; i < 20; ++i) {
    auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t")));
    if (outcome.status.code() == StatusCode::kResourceExhausted) ++rejected;
  }
  EXPECT_EQ(rejected, 15);
  // After a second, capacity is back.
  dep_->RunFor(2 * kSecond);
  EXPECT_TRUE(dep_->Query(cubrick::QueryRequest(CountQuery("t"))).status.ok());
}

TEST_F(DeploymentTest, SqlJoinEndToEnd) {
  Make(SmallOptions());
  ASSERT_TRUE(dep_->CreateDimensionTable(
                      "dim1_groups", 64,
                      {cubrick::Dimension{"bucket", 4, 1}})
                  .ok());
  std::vector<cubrick::DimensionEntry> entries;
  for (uint32_t k = 0; k < 64; ++k) {
    entries.push_back(cubrick::DimensionEntry{k, {k % 4}});
  }
  ASSERT_TRUE(dep_->LoadDimensionEntries("dim1_groups", entries).ok());
  auto rows = Setup("t", 2000);
  auto outcome = dep_->QuerySql(
      "SELECT dim1_groups.bucket, COUNT(*) FROM t "
      "JOIN dim1_groups ON dim1 GROUP BY dim1_groups.bucket "
      "ORDER BY COUNT(*) DESC",
      cubrick::QueryRequest{});
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_EQ(outcome.result.num_groups(), 4u);
  std::map<uint32_t, double> expected;
  for (const auto& r : rows) expected[r.dims[1] % 4] += 1;
  double total = 0;
  for (const auto& row : outcome.rows) {
    EXPECT_DOUBLE_EQ(row.values[0], expected[row.key[0]]);
    total += row.values[0];
  }
  EXPECT_DOUBLE_EQ(total, 2000.0);
  // rows are ordered by COUNT(*) descending.
  for (size_t i = 1; i < outcome.rows.size(); ++i) {
    EXPECT_GE(outcome.rows[i - 1].values[0], outcome.rows[i].values[0]);
  }
}

TEST_F(DeploymentTest, WriteBehindHealsSkippedRegion) {
  Make(SmallOptions());
  Setup("t", 1000);
  // Kill region 1's owner of partition 0 and load immediately: the write
  // to region 1 is deferred, not lost.
  auto shard = dep_->catalog().ShardForPartition("t", 0);
  cluster::ServerId victim =
      dep_->sm(1).GetAssignment(*shard)->replicas[0].server;
  dep_->cluster().SetHealth(victim, cluster::ServerHealth::kDown);
  Rng rng(5);
  auto rows = workload::GenerateRows(schema_, 500, rng);
  ASSERT_TRUE(dep_->LoadRows("t", rows).ok());
  size_t pending = 0;
  for (cluster::RegionId r = 0; r < 3; ++r) {
    pending += dep_->PendingWriteRows(r, "t");
  }
  EXPECT_GT(pending, 0u);
  // After failover + retry cycles, the buffer drains and region 1
  // answers with the complete copy.
  dep_->RunFor(5 * kMinute);
  for (cluster::RegionId r = 0; r < 3; ++r) {
    EXPECT_EQ(dep_->PendingWriteRows(r, "t"), 0u) << r;
  }
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t"), 1));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.region, 1);
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, cubrick::AggOp::kCount),
                   1500.0);
}

TEST_F(DeploymentTest, RepartitionRefusedWithoutCompleteCopy) {
  Make(SmallOptions());
  Setup("t", 1000);
  // Break every region's copy of partition 0 simultaneously.
  auto shard = dep_->catalog().ShardForPartition("t", 0);
  for (cluster::RegionId r = 0; r < 3; ++r) {
    cluster::ServerId owner =
        dep_->sm(r).GetAssignment(*shard)->replicas[0].server;
    dep_->cluster().SetHealth(owner, cluster::ServerHealth::kDown);
  }
  EXPECT_EQ(dep_->Repartition("t", 16).code(), StatusCode::kUnavailable);
  // The table still has its original layout and (after failovers
  // recover... nothing here, all copies died together — but partition 0
  // was one of three regions' copies each; recovery pulls cross-region
  // from the remaining dead ones only, so wait for repair-free failover
  // to conclude) the metadata is intact.
  EXPECT_EQ(dep_->catalog().GetTable("t")->num_partitions, 8u);
}

TEST_F(DeploymentTest, MetricsExportCoversSubsystems) {
  Make(SmallOptions());
  Setup("t", 500);
  dep_->Query(cubrick::QueryRequest(CountQuery("t")));
  std::string text = ExportMetricsText(*dep_);
  for (const char* metric : {
           "scalewall_fleet_servers{state=\"healthy\"} 48",
           "scalewall_catalog_tables 1",
           "scalewall_sm_placements_total{region=\"0\"} 8",
           "scalewall_sm_assigned_shards{region=\"2\"} 8",
           "scalewall_proxy_queries_total{result=\"submitted\"} 1",
           "scalewall_proxy_queries_total{result=\"succeeded\"} 1",
           "scalewall_engine_partial_queries_total",
           "scalewall_engine_memory_bytes",
       }) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric << "\n" << text;
  }
}

TEST_F(DeploymentTest, MetricsExportIsStrictPrometheusText) {
  DeploymentOptions options = SmallOptions();
  options.enable_result_caching = true;
  options.scheduler.enable_admission = true;
  options.server_options.scan_workers = 2;
  Make(options);
  Setup("t", 500);
  cubrick::QueryRequest request(CountQuery("t"));
  // A client-named pool with every character the text format escapes.
  request.claim.pool_path = "dash\"boards\\x\ny";
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(request)).status.ok());
  ASSERT_TRUE(dep_->Query(cubrick::QueryRequest(request)).status.ok());
  const std::string text = ExportMetricsText(*dep_);

  const std::string name = "[a-zA-Z_:][a-zA-Z0-9_:]*";
  const std::string label =
      "[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\\\\n]|\\\\[\\\\\"n])*\"";
  const std::regex type_re("# TYPE (" + name + ") (counter|gauge|histogram)");
  const std::regex sample_re("(" + name + ")(?:\\{" + label + "(?:," + label +
                             ")*\\})? (-?[0-9][0-9.e+-]*|[+-]Inf|NaN)");
  std::map<std::string, std::string> types;  // family -> TYPE
  std::set<std::string> families_with_samples;
  std::istringstream in(text);
  std::string line;
  int samples = 0;
  while (std::getline(in, line)) {
    std::smatch match;
    if (line.rfind("#", 0) == 0) {
      ASSERT_TRUE(std::regex_match(line, match, type_re)) << line;
      const std::string family = match[1];
      EXPECT_TRUE(types.emplace(family, match[2]).second)
          << "second # TYPE for " << family;
      EXPECT_EQ(families_with_samples.count(family), 0u)
          << "# TYPE after the first series of " << family;
      continue;
    }
    ASSERT_TRUE(std::regex_match(line, match, sample_re)) << line;
    ++samples;
    std::string family = match[1];
    if (types.count(family) == 0) {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::string s = suffix;
        if (family.size() > s.size() &&
            family.compare(family.size() - s.size(), s.size(), s) == 0 &&
            types.count(family.substr(0, family.size() - s.size())) != 0) {
          family.resize(family.size() - s.size());
          EXPECT_EQ(types[family], "histogram") << line;
          break;
        }
      }
    }
    EXPECT_EQ(types.count(family), 1u) << "no # TYPE before " << line;
    families_with_samples.insert(family);
  }
  EXPECT_GT(samples, 100);
  // The derived lines, the callback series and the escaped pool label are
  // all in the one exposition.
  for (const char* series : {
           "scalewall_fleet_servers{state=\"healthy\"} 48\n",
           "scalewall_catalog_tables 1\n",
           "scalewall_exec_pool_queue_depth{server=\"0\"} ",
           "scalewall_server_result_cache_entries{server=\"",
           "scalewall_pool_inflight{pool=\"dash\\\"boards\\\\x\\ny\"} ",
       }) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
}

TEST_F(DeploymentTest, ClusterResizeAddServers) {
  Make(SmallOptions());
  Setup("t", 2000);
  size_t before = dep_->cluster().ServersInRegion(0).size();
  ASSERT_TRUE(dep_->AddServers(0, 5).ok());
  EXPECT_EQ(dep_->cluster().ServersInRegion(0).size(), before + 5);
  // New servers are live members: queries keep working and the balancer
  // may use them.
  dep_->RunFor(1 * kHour);
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t")));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, cubrick::AggOp::kCount),
                   2000.0);
  EXPECT_EQ(dep_->AddServers(99, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dep_->AddServers(0, 0).code(), StatusCode::kInvalidArgument);
}

TEST_F(DeploymentTest, ClusterResizeDecommission) {
  Make(SmallOptions());
  Setup("t", 2000);
  // Decommission a server that hosts a partition of t.
  auto shard = dep_->catalog().ShardForPartition("t", 0);
  cluster::ServerId victim =
      dep_->sm(0).GetAssignment(*shard)->replicas[0].server;
  ASSERT_TRUE(dep_->DecommissionServer(victim).ok());
  dep_->RunFor(30 * kMinute);
  // Gone from the fleet; its shards live elsewhere; data intact.
  EXPECT_FALSE(dep_->cluster().Contains(victim));
  const sm::ShardAssignment* assignment = dep_->sm(0).GetAssignment(*shard);
  ASSERT_NE(assignment, nullptr);
  ASSERT_EQ(assignment->replicas.size(), 1u);
  EXPECT_NE(assignment->replicas[0].server, victim);
  auto outcome = dep_->Query(cubrick::QueryRequest(CountQuery("t"), 0));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, cubrick::AggOp::kCount),
                   2000.0);
  // Can't decommission twice or a non-existent server.
  EXPECT_EQ(dep_->DecommissionServer(victim).code(), StatusCode::kNotFound);
}

TEST_F(DeploymentTest, DeterministicAcrossIdenticalRuns) {
  auto run = [](uint64_t seed) {
    DeploymentOptions options = SmallOptions(seed);
    Deployment dep(options);
    cubrick::TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
    dep.CreateTable("t", schema);
    Rng rng(1);
    dep.LoadRows("t", workload::GenerateRows(schema, 500, rng));
    dep.RunFor(30 * kSecond);
    auto outcome = dep.Query(cubrick::QueryRequest(CountQuery("t")));
    return std::make_pair(outcome.latency, outcome.fanout);
  };
  EXPECT_EQ(run(77), run(77));
}

TEST_F(DeploymentTest, LoadBalancerMovesShardsUnderSkew) {
  DeploymentOptions options = SmallOptions();
  options.load_balancing.imbalance_threshold = 0.02;
  options.topology.racks_per_region = 2;
  options.topology.servers_per_rack = 4;  // 8 servers per region
  options.topology.memory_bytes = 2 << 20;
  Make(options);
  // 4-partition tables on 8 servers leave headroom to migrate without
  // creating shard collisions (a server may host at most one partition
  // of each table).
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(dep_->CreateTable("t" + std::to_string(i), schema_,
                                  TableOptions{.partitions = 4})
                    .ok());
  }
  Rng rng(3);
  // Load very unevenly: one table gets nearly all the data.
  ASSERT_TRUE(
      dep_->LoadRows("t0", workload::GenerateRows(schema_, 60000, rng)).ok());
  ASSERT_TRUE(
      dep_->LoadRows("t1", workload::GenerateRows(schema_, 500, rng)).ok());

  auto spread = [&] {
    auto utilization = dep_->sm(0).Utilization();
    double min_util = 1e18, max_util = 0;
    for (const auto& [server, util] : utilization) {
      min_util = std::min(min_util, util);
      max_util = std::max(max_util, util);
    }
    return max_util - min_util;
  };
  double before = spread();
  dep_->RunFor(2 * kHour);  // several balancer cycles
  EXPECT_GT(dep_->sm(0).stats().lb_runs, 0);
  // Balancing must not worsen the spread, and must leave it near the
  // threshold (the minimum achievable granularity is one shard's load).
  double after = spread();
  EXPECT_LE(after, before + 1e-9);
  EXPECT_LT(after, 0.25);
}

}  // namespace
}  // namespace scalewall::core
