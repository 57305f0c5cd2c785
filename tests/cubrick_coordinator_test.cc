// Unit tests for ExecuteDistributed (the query-coordinator role) and a
// parameterized sweep over the proxy's coordinator-location strategies.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "cluster/cluster.h"
#include "core/deployment.h"
#include "cubrick/coordinator.h"
#include "cubrick/net_service.h"
#include "cubrick/server.h"
#include "discovery/service_discovery.h"
#include "net/sim_transport.h"
#include "sim/simulation.h"
#include "workload/generators.h"

namespace scalewall::cubrick {
namespace {

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

// A hand-wired single-region setup: 5 servers (one spare), one
// 4-partition table with one partition per server, authoritative
// discovery mappings, and a sim network with one node endpoint per
// server plus the coordinator's client node.
class CoordinatorTest : public ::testing::Test {
 protected:
  CoordinatorTest()
      : sim_(71),
        cluster_(cluster::Cluster::Build({.regions = 1,
                                          .racks_per_region = 1,
                                          .servers_per_rack = 5})),
        sd_(&sim_),
        catalog_(1000),
        network_(&sim_) {
    schema_ = workload::MakeSchema(2, 64, 8, 1);
    catalog_.CreateTable("t", schema_, /*initial_partitions=*/4);
    for (cluster::ServerId id : cluster_.AllServers()) {
      servers_.push_back(std::make_unique<CubrickServer>(
          &sim_, &cluster_, &catalog_, id, CubrickServerOptions{}));
      servers_.back()->SetDirectory(&directory_);
      directory_.Add(servers_.back().get());
    }
    Rng rng(5);
    rows_ = workload::GenerateRows(schema_, 400, rng);
    for (uint32_t p = 0; p < 4; ++p) {
      sm::ShardId shard = *catalog_.ShardForPartition("t", p);
      servers_[p]->AddShard(shard, sm::ShardRole::kPrimary);
      sd_.Publish("svc", shard, p);
      // Round-robin rows across partitions for the test.
      std::vector<Row> bucket;
      for (size_t i = p; i < rows_.size(); i += 4) bucket.push_back(rows_[i]);
      servers_[p]->InsertRows("t", p, bucket);
    }
    sim_.RunFor(1 * kMinute);  // discovery propagation

    context_.region = 0;
    context_.service = "svc";
    context_.simulation = &sim_;
    context_.cluster = &cluster_;
    context_.catalog = &catalog_;
    context_.directory = &directory_;
    context_.discovery = &sd_;
    context_.failure_model = sim::TransientFailureModel(0.0);
    context_.transport = network_.Node("client");
    for (const auto& server : servers_) {
      network_.Node(NodePeerName(server->server_id()))
          ->SetHandler(MakeServerNodeHandler(server.get(),
                                             server->server_id(), &context_));
    }
  }

  Query CountQuery() {
    Query q;
    q.table = "t";
    q.aggregations = {Aggregation{0, AggOp::kCount}};
    return q;
  }

  // The redesigned entry point: compile a plan, bundle the per-attempt
  // inputs in an ExecContext, execute. `merge_fanin` 0 plans flat, >= 2
  // pins a k-ary tree (fan-in 2 over 4 partitions: two 2-leaf subtrees,
  // each dispatched as one tree-merge request).
  DistributedOutcome Run(const Query& q, cluster::ServerId coordinator,
                         Rng& rng, int merge_fanin = 0) {
    ExecutionPlan plan = BuildExecutionPlan(context_, q, coordinator,
                                            JoinStrategy::kAuto, merge_fanin);
    ExecContext ectx;
    ectx.region = &context_;
    ectx.rng = &rng;
    return ExecuteDistributed(plan, ectx);
  }

  sim::Simulation sim_;
  cluster::Cluster cluster_;
  discovery::ServiceDiscovery sd_;
  Catalog catalog_;
  MapDirectory directory_;
  std::vector<std::unique_ptr<CubrickServer>> servers_;
  std::vector<Row> rows_;
  TableSchema schema_;
  net::SimNetwork network_;
  RegionContext context_;
};

constexpr int kFanins[] = {0, 2};

TEST_F(CoordinatorTest, MergesAllPartials) {
  Rng rng(1);
  DistributedOutcome outcome = Run(CountQuery(), /*coordinator=*/0, rng);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, AggOp::kCount), 400.0);
  EXPECT_EQ(outcome.fanout, 4);
  EXPECT_EQ(outcome.num_partitions, 4u);
  EXPECT_GT(outcome.latency, 0);
  // A joinless query plans as the seed path and the outcome echoes it.
  EXPECT_EQ(outcome.strategy, JoinStrategy::kReplicated);
  EXPECT_EQ(outcome.merge_fanin, 0);
  EXPECT_EQ(outcome.tree_depth, 0);
}

TEST_F(CoordinatorTest, UnknownTableFails) {
  Query q = CountQuery();
  q.table = "ghost";
  Rng rng(1);
  EXPECT_EQ(Run(q, 0, rng).status.code(), StatusCode::kNotFound);
}

TEST_F(CoordinatorTest, InvalidQueryRejectedBeforeFanout) {
  Query q = CountQuery();
  q.filters = {FilterRange{7, 0, 1}};
  Rng rng(1);
  EXPECT_EQ(Run(q, 0, rng).status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CoordinatorTest, DeadCoordinatorUnavailable) {
  cluster_.SetHealth(0, cluster::ServerHealth::kDown);
  Rng rng(1);
  EXPECT_EQ(Run(CountQuery(), 0, rng).status.code(),
            StatusCode::kUnavailable);
}

TEST_F(CoordinatorTest, MissingTransportFailsPrecondition) {
  context_.transport = nullptr;
  Rng rng(1);
  EXPECT_EQ(Run(CountQuery(), 0, rng).status.code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CoordinatorTest, DeadPartitionHostFailsRegionAttempt) {
  cluster_.SetHealth(2, cluster::ServerHealth::kDown);
  for (int fanin : kFanins) {
    SCOPED_TRACE("fanin " + std::to_string(fanin));
    Rng rng(1);
    DistributedOutcome outcome = Run(CountQuery(), 0, rng, fanin);
    // "all table partitions required by the query are required to be
    // available within that region": the attempt fails, retryable.
    EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(outcome.status.IsRetryable());
  }
}

TEST_F(CoordinatorTest, UnreachablePartitionHostFailsAtDispatch) {
  // Server 2 still looks healthy, but its endpoint is gone: the flat
  // subquery to it, and the tree-merge request to it as the aggregator
  // of partitions 2-3, fail on the wire and name the server.
  network_.RemoveNode(NodePeerName(2));
  for (int fanin : kFanins) {
    SCOPED_TRACE("fanin " + std::to_string(fanin));
    Rng rng(1);
    DistributedOutcome outcome = Run(CountQuery(), 0, rng, fanin);
    EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(outcome.failed_server, 2u);
    EXPECT_GT(outcome.latency, 0);
  }
}

TEST_F(CoordinatorTest, FailedChunkStopsDispatch) {
  // On the inline sim wire a flat plan sends chunk k + 1 only after
  // chunk k has folded: once partition 1's host is unreachable, the
  // hosts of partitions 2 and 3 are never asked.
  network_.RemoveNode(NodePeerName(1));
  Rng rng(1);
  DistributedOutcome outcome = Run(CountQuery(), 0, rng);
  EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(outcome.failed_server, 1u);
  EXPECT_EQ(servers_[0]->stats().partial_queries, 1);
  for (uint32_t p = 1; p < 4; ++p) {
    EXPECT_EQ(servers_[p]->stats().partial_queries, 0) << "server " << p;
  }
}

TEST_F(CoordinatorTest, TransientFailureReportsFailedServer) {
  context_.failure_model = sim::TransientFailureModel(1.0);  // always fail
  for (int fanin : kFanins) {
    SCOPED_TRACE("fanin " + std::to_string(fanin));
    Rng rng(1);
    DistributedOutcome outcome = Run(CountQuery(), 0, rng, fanin);
    EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_NE(outcome.failed_server, cluster::kInvalidServer);
  }
}

TEST_F(CoordinatorTest, ForwardedPartitionsStillAnswer) {
  // Move partition 1's shard from server 1 to the spare server 4
  // manually, leaving server 1 in the forwarding window (discovery still
  // points at it). Server 0 would refuse: it already holds t#0 (shard
  // collision).
  sm::ShardId shard = *catalog_.ShardForPartition("t", 1);
  EXPECT_EQ(servers_[0]->PrepareAddShard(shard, 1).code(),
            StatusCode::kNonRetryable);
  ASSERT_TRUE(servers_[4]->PrepareAddShard(shard, 1).ok());
  ASSERT_TRUE(servers_[1]->PrepareDropShard(shard, 4).ok());
  ASSERT_TRUE(servers_[4]->AddShard(shard, sm::ShardRole::kPrimary).ok());
  // Discovery deliberately not updated: clients resolve to server 1,
  // which forwards — whether the coordinator or a tree aggregator
  // (server 0, for partitions 0-1) sends the subquery.
  for (int fanin : kFanins) {
    SCOPED_TRACE("fanin " + std::to_string(fanin));
    const int64_t forwarded = servers_[1]->stats().forwarded_requests;
    Rng rng(1);
    DistributedOutcome outcome = Run(CountQuery(), 2, rng, fanin);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
    EXPECT_EQ(outcome.merge_fanin, fanin);
    EXPECT_DOUBLE_EQ(*outcome.result.Value({}, 0, AggOp::kCount), 400.0);
    EXPECT_GT(servers_[1]->stats().forwarded_requests, forwarded);
  }
}

TEST_F(CoordinatorTest, GroupByMergedAcrossPartitions) {
  Query q = CountQuery();
  q.group_by = {1};
  Rng rng(1);
  DistributedOutcome outcome = Run(q, 0, rng);
  ASSERT_TRUE(outcome.status.ok());
  std::map<uint32_t, double> expected;
  for (const Row& r : rows_) expected[r.dims[1]] += 1;
  ASSERT_EQ(outcome.result.num_groups(), expected.size());
  for (const auto& [key, count] : expected) {
    EXPECT_DOUBLE_EQ(*outcome.result.Value({key}, 0, AggOp::kCount), count);
  }
}

// --- coordinator-location strategy sweep through the proxy ---

class StrategySweepTest
    : public ::testing::TestWithParam<CoordinatorStrategy> {};

TEST_P(StrategySweepTest, BalancedOrConcentratedAsDocumented) {
  core::DeploymentOptions options;
  options.seed = 31;
  options.topology.regions = 1;
  options.topology.racks_per_region = 4;
  options.topology.servers_per_rack = 4;
  options.max_shards = 5000;
  options.per_host_failure_probability = 0.0;  // isolate strategy effects
  options.proxy_options.strategy = GetParam();
  core::Deployment dep(options);
  cubrick::TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
  ASSERT_TRUE(dep.CreateTable("t", schema).ok());
  Rng rng(3);
  dep.LoadRows("t", workload::GenerateRows(schema, 1000, rng));
  // Generous warmup: discovery propagation has a long tail (Figure 4c)
  // and there is only one region here, so no retry can mask a stale view.
  dep.RunFor(60 * kSecond);

  cubrick::Query q;
  q.table = "t";
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kCount}};
  const int n = 400;
  int ok = 0;
  for (int i = 0; i < n; ++i) {
    if (dep.Query(cubrick::QueryRequest(q)).status.ok()) ++ok;
    dep.RunFor(50 * kMillisecond);
  }
  EXPECT_EQ(ok, n);  // every strategy answers correctly

  const cubrick::CubrickProxy::Stats& stats = dep.proxy().stats();
  int64_t max_picks = 0;
  for (const auto& [server, picks] : stats.coordinator_picks) {
    max_picks = std::max(max_picks, picks.value());
  }
  if (GetParam() == CoordinatorStrategy::kPartitionZero) {
    // All picks land on partition 0's host.
    EXPECT_EQ(stats.coordinator_picks.size(), 1u);
    EXPECT_EQ(max_picks, n);
  } else {
    // Balanced: spread over the table's 8 partition hosts.
    EXPECT_GT(stats.coordinator_picks.size(), 4u);
    EXPECT_LT(max_picks, n / 2);
  }
  if (GetParam() == CoordinatorStrategy::kForwardFromZero) {
    EXPECT_EQ(stats.extra_hops, n);
  } else {
    EXPECT_EQ(stats.extra_hops, 0);
  }
  if (GetParam() == CoordinatorStrategy::kLookupThenRandom) {
    EXPECT_EQ(stats.extra_roundtrips, n);
  } else if (GetParam() == CoordinatorStrategy::kCachedRandom) {
    EXPECT_EQ(stats.extra_roundtrips, 1);  // cold cache only
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategySweepTest,
    ::testing::Values(CoordinatorStrategy::kPartitionZero,
                      CoordinatorStrategy::kForwardFromZero,
                      CoordinatorStrategy::kLookupThenRandom,
                      CoordinatorStrategy::kCachedRandom),
    [](const ::testing::TestParamInfo<CoordinatorStrategy>& info) {
      return std::string(CoordinatorStrategyName(info.param));
    });

}  // namespace
}  // namespace scalewall::cubrick
