// Planner tests: plan compilation (cost-based join-strategy and
// merge-topology choice), the shuffle-join building blocks, and a
// randomized differential suite proving that every join strategy ×
// merge topology produces results byte-identical to the replicated-dim
// interpreted oracle — over serial and morsel-parallel scans
// (DESIGN.md §15).

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>

#include <map>
#include <memory>
#include <vector>

#include "core/deployment.h"
#include "cubrick/coordinator.h"
#include "cubrick/partition.h"
#include "cubrick/planner.h"
#include "cubrick/replicated_table.h"
#include "net/sim_transport.h"

namespace scalewall::cubrick {
namespace {

// Exact (bitwise-value) equality of two merged results — the guarantee
// every strategy/topology combination must meet on integral datasets.
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

// --- tree shape ---

TEST(TreeShapeTest, DepthAndChunkSizes) {
  EXPECT_EQ(TreeDepth(0, 8), 0);
  EXPECT_EQ(TreeDepth(1, 8), 1);
  EXPECT_EQ(TreeDepth(8, 8), 1);
  EXPECT_EQ(TreeDepth(9, 8), 2);
  EXPECT_EQ(TreeDepth(64, 8), 2);
  EXPECT_EQ(TreeDepth(65, 8), 3);
  EXPECT_EQ(TreeDepth(64, 2), 6);
  // fanin < 2 = flat: one chunk covering everything.
  EXPECT_EQ(TreeChunkSize(64, 0), 64);
  EXPECT_EQ(TreeChunkSize(64, 1), 64);
  EXPECT_EQ(TreeChunkSize(8, 2), 4);
  EXPECT_EQ(TreeChunkSize(9, 2), 5);
  EXPECT_EQ(TreeChunkSize(7, 3), 3);
  // A fan-in off the wire can be anything: the ceiling never overflows.
  EXPECT_EQ(TreeChunkSize(8, INT_MAX), 1);
  EXPECT_EQ(TreeDepth(8, INT_MAX), 1);
  // ceil(n / fanin) never yields more than `fanin` chunks.
  for (int n = 1; n <= 40; ++n) {
    for (int fanin = 2; fanin <= 9; ++fanin) {
      const int chunk = TreeChunkSize(n, fanin);
      EXPECT_LE((n + chunk - 1) / chunk, fanin) << n << "/" << fanin;
    }
  }
}

// --- shuffle building blocks ---

TableSchema FactSchema() {
  TableSchema schema;
  schema.dimensions = {Dimension{"day", 16, 4}, Dimension{"campaign", 32, 8}};
  schema.metrics = {Metric{"spend"}};
  return schema;
}

// campaigns: advertiser (card 5) and tier (card 3); keys k % 7 == 0 are
// deliberately unmapped so the inner-join drop path is exercised.
ReplicatedTable CampaignDim() {
  ReplicatedTable dim("campaigns", /*key_cardinality=*/32,
                      {Dimension{"advertiser", 5, 1}, Dimension{"tier", 3, 1}});
  for (uint32_t k = 0; k < 32; ++k) {
    if (k % 7 == 0) continue;
    dim.Set(DimensionEntry{k, {k % 5, k % 3}});
  }
  dim.set_epoch(1);
  return dim;
}

Query JoinQuery() {
  Query q;
  q.table = "facts";
  q.joins = {Join{/*fact_dimension=*/1, "campaigns", /*attribute=*/0}};
  q.group_by_joins = {0};
  q.aggregations = {Aggregation{0, AggOp::kSum}, Aggregation{0, AggOp::kCount}};
  return q;
}

TEST(ShuffleBlocksTest, StageOneQueryShape) {
  Query q = JoinQuery();
  q.group_by = {0};
  q.join_filters = {JoinFilter{0, 1, 3}};
  q.order_by = 0;
  q.limit = 5;
  Query stage1 = MakeShuffleScanQuery(q);
  // Raw join keys append after the plain dims; joins and presentation
  // are stripped so the scan runs on the plain (cacheable) kernels.
  ASSERT_EQ(stage1.group_by.size(), 2u);
  EXPECT_EQ(stage1.group_by[0], 0);
  EXPECT_EQ(stage1.group_by[1], 1);
  EXPECT_TRUE(stage1.joins.empty());
  EXPECT_TRUE(stage1.group_by_joins.empty());
  EXPECT_TRUE(stage1.join_filters.empty());
  EXPECT_EQ(stage1.order_by, -1);
  EXPECT_EQ(stage1.limit, 0u);
  EXPECT_TRUE(stage1.Validate(FactSchema()).ok());
}

TEST(ShuffleBlocksTest, BucketIsDeterministicAndBounded) {
  QueryResult::GroupKey key = {3, 17};
  const uint32_t b = ShuffleBucket(key, 1, 8);
  EXPECT_LT(b, 8u);
  EXPECT_EQ(ShuffleBucket(key, 1, 8), b);  // stable
  // Only the trailing join keys feed the hash: a different plain prefix
  // maps to the same bucket.
  QueryResult::GroupKey other = {9, 17};
  EXPECT_EQ(ShuffleBucket(other, 1, 8), b);
  EXPECT_EQ(ShuffleBucket(key, 1, 1), 0u);
  // All buckets reachable over the key domain (32 keys, 8 buckets).
  std::map<uint32_t, int> seen;
  for (uint32_t k = 0; k < 32; ++k) {
    ++seen[ShuffleBucket(QueryResult::GroupKey{k}, 1, 8)];
  }
  EXPECT_GT(seen.size(), 4u);
}

TEST(ShuffleBlocksTest, MappingMatchesReplicatedScan) {
  ReplicatedTable dim = CampaignDim();
  JoinContext join;
  join.tables = {&dim};
  TablePartition part("facts", 0, FactSchema());
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    part.Insert(Row{{static_cast<uint32_t>(rng.NextBounded(16)),
                     static_cast<uint32_t>(rng.NextBounded(32))},
                    {static_cast<double>(rng.NextBounded(100))}});
  }
  Query q = JoinQuery();
  q.group_by = {0};
  q.join_filters = {JoinFilter{0, 0, 3}};

  QueryResult reference(q.aggregations.size());
  ASSERT_TRUE(part.Execute(q, reference, &join).ok());

  // Shuffle stages: scan raw, bucket, map each bucket, fold ascending.
  const Query stage1 = MakeShuffleScanQuery(q);
  QueryResult scanned(stage1.aggregations.size());
  ASSERT_TRUE(part.Execute(stage1, scanned).ok());
  std::map<uint32_t, QueryResult> buckets;
  for (const auto& [key, states] : scanned.groups()) {
    auto [it, unused] = buckets.try_emplace(
        ShuffleBucket(key, q.joins.size(), 8), q.aggregations.size());
    it->second.AppendRun(1, key, states);
  }
  QueryResult folded(q.aggregations.size());
  for (const auto& [bucket, partial] : buckets) {
    auto mapped = ApplyShuffleMapping(q, join, partial);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    folded.Merge(*mapped);
  }
  EXPECT_TRUE(SameResult(reference, folded));
}

TEST(ShuffleBlocksTest, MappingRejectsMismatchedContext) {
  Query q = JoinQuery();
  QueryResult bucket(q.aggregations.size());
  JoinContext empty;
  EXPECT_EQ(ApplyShuffleMapping(q, empty, bucket).status().code(),
            StatusCode::kInvalidArgument);
  JoinContext null_table;
  null_table.tables = {nullptr};
  EXPECT_EQ(ApplyShuffleMapping(q, null_table, bucket).status().code(),
            StatusCode::kInvalidArgument);
}

// --- plan compilation ---

class PlanCompilationTest : public ::testing::Test {
 protected:
  PlanCompilationTest() : catalog_(1000) {
    catalog_.CreateTable("facts", FactSchema(), /*initial_partitions=*/8);
    catalog_.CreateTable("wide", FactSchema(), /*initial_partitions=*/64);
    catalog_.CreateReplicatedTable(
        "campaigns", 32,
        {Dimension{"advertiser", 5, 1}, Dimension{"tier", 3, 1}});
    ctx_.catalog = &catalog_;
  }

  Catalog catalog_;
  RegionContext ctx_;
};

TEST_F(PlanCompilationTest, JoinlessQueryKeepsSeedPlan) {
  Query q;
  q.table = "facts";
  q.aggregations = {Aggregation{0, AggOp::kCount}};
  ExecutionPlan plan = BuildExecutionPlan(ctx_, q, /*coordinator=*/3);
  EXPECT_EQ(plan.coordinator, 3u);
  EXPECT_EQ(plan.join_strategy, JoinStrategy::kReplicated);
  EXPECT_EQ(plan.merge_fanin, 0);
  EXPECT_EQ(plan.merge_topology(), MergeTopology::kFlat);
  // Join costs not evaluated for joinless queries; merge costs always.
  EXPECT_LT(plan.cost_replicated_ms, 0.0);
  EXPECT_GE(plan.cost_flat_merge_ms, 0.0);
  EXPECT_NE(plan.explain.find("strategy=replicated"), std::string::npos)
      << plan.explain;
}

TEST_F(PlanCompilationTest, RequestPinsStrategyAndTopology) {
  Query q = JoinQuery();
  for (JoinStrategy pin : {JoinStrategy::kReplicated, JoinStrategy::kBroadcast,
                           JoinStrategy::kShuffle}) {
    ExecutionPlan plan = BuildExecutionPlan(ctx_, q, 0, pin,
                                            /*merge_fanin_hint=*/4);
    EXPECT_EQ(plan.join_strategy, pin);
    EXPECT_EQ(plan.merge_fanin, 4);
    EXPECT_EQ(plan.merge_topology(), MergeTopology::kTree);
    // Every candidate cost is evaluated for the audit trail.
    EXPECT_GE(plan.cost_replicated_ms, 0.0);
    EXPECT_GE(plan.cost_broadcast_ms, 0.0);
    EXPECT_GE(plan.cost_shuffle_ms, 0.0);
  }
  // Hint 1 pins flat even when a tree would win on cost.
  ctx_.planner.merge_cost_per_partial = 5 * kMillisecond;
  ExecutionPlan flat = BuildExecutionPlan(ctx_, q, 0, JoinStrategy::kAuto, 1);
  EXPECT_EQ(flat.merge_fanin, 0);
}

TEST_F(PlanCompilationTest, AutoPicksCheapestJoinStrategy) {
  Query q = JoinQuery();
  // Defaults: a tiny dim makes replication essentially free.
  EXPECT_EQ(BuildExecutionPlan(ctx_, q, 0).join_strategy,
            JoinStrategy::kReplicated);
  // Make resident replicas expensive and shipping cheap: broadcast wins.
  ctx_.planner.replica_mem_ms_per_mb_host = 1e6;
  ctx_.planner.ship_ms_per_mb = 1.0;
  ctx_.planner.shuffle_map_ms = 1e6;
  EXPECT_EQ(BuildExecutionPlan(ctx_, q, 0).join_strategy,
            JoinStrategy::kBroadcast);
  // Make any dim movement expensive: shuffle (which never moves the
  // dim) wins.
  ctx_.planner.ship_ms_per_mb = 1e9;
  ctx_.planner.shuffle_map_ms = 0.001;
  EXPECT_EQ(BuildExecutionPlan(ctx_, q, 0).join_strategy,
            JoinStrategy::kShuffle);
}

TEST_F(PlanCompilationTest, AutoPicksTreeWhenCoordinatorFaninIsTheWall) {
  Query q;
  q.table = "wide";  // 64 partitions
  q.aggregations = {Aggregation{0, AggOp::kCount}};
  // Seed model (merge_cost_per_partial = 0): flat and tree tie, flat
  // keeps the seed behaviour.
  EXPECT_EQ(BuildExecutionPlan(ctx_, q, 0).merge_fanin, 0);
  // A real per-partial fold cost makes the 64-wide flat fan-in lose to
  // depth-2 fanin-8 merges.
  ctx_.planner.merge_cost_per_partial = 1 * kMillisecond;
  ExecutionPlan plan = BuildExecutionPlan(ctx_, q, 0);
  EXPECT_EQ(plan.merge_fanin, 8);
  EXPECT_EQ(plan.merge_topology(), MergeTopology::kTree);
  EXPECT_LT(plan.cost_tree_merge_ms, plan.cost_flat_merge_ms);
  EXPECT_NE(plan.explain.find("merge=tree"), std::string::npos)
      << plan.explain;
}

TEST_F(PlanCompilationTest, TransportRttSamplesDoNotPriceHops) {
  // The transport's rtt_ms histogram records whole modeled calls
  // (subquery chains, attempts, two-hop epoch probes: ~20 ms on the
  // sim), not single hops. Plans price a hop from the network model
  // alone, so a context whose transport has such samples plans exactly
  // like one whose transport has none.
  ctx_.planner.merge_cost_per_partial = 1 * kMillisecond;
  ctx_.planner.replica_mem_ms_per_mb_host = 1e6;
  ctx_.planner.ship_ms_per_mb = 1.0;
  sim::Simulation sim(3);
  net::SimNetwork network(&sim);
  ctx_.transport = network.Node("proxy");
  Query wide;
  wide.table = "wide";
  wide.aggregations = {Aggregation{0, AggOp::kCount}};
  const Query queries[] = {JoinQuery(), wide};
  std::vector<ExecutionPlan> unsampled;
  for (const Query& q : queries) {
    unsampled.push_back(BuildExecutionPlan(ctx_, q, 0));
  }
  for (int i = 0; i < 50; ++i) ctx_.transport->RecordModeledRtt(20.0);
  ASSERT_GT(ctx_.transport->stats().rtt_ms.count(), 0);
  for (size_t i = 0; i < unsampled.size(); ++i) {
    const ExecutionPlan plan = BuildExecutionPlan(ctx_, queries[i], 0);
    const ExecutionPlan& want = unsampled[i];
    EXPECT_EQ(plan.join_strategy, want.join_strategy) << i;
    EXPECT_EQ(plan.merge_fanin, want.merge_fanin) << i;
    EXPECT_EQ(plan.cost_flat_merge_ms, want.cost_flat_merge_ms) << i;
    EXPECT_EQ(plan.cost_tree_merge_ms, want.cost_tree_merge_ms) << i;
    EXPECT_EQ(plan.cost_replicated_ms, want.cost_replicated_ms) << i;
    EXPECT_EQ(plan.cost_broadcast_ms, want.cost_broadcast_ms) << i;
    EXPECT_EQ(plan.cost_shuffle_ms, want.cost_shuffle_ms) << i;
    EXPECT_EQ(plan.explain, want.explain) << i;
  }
  // Sanity: the wide table still picks the tree on the model's hop.
  EXPECT_EQ(unsampled[1].merge_fanin, 8);
}

TEST_F(PlanCompilationTest, UnknownTableDegradesToSeedPlan) {
  Query q = JoinQuery();
  q.table = "ghost";
  ExecutionPlan plan = BuildExecutionPlan(ctx_, q, 0);
  EXPECT_EQ(plan.join_strategy, JoinStrategy::kReplicated);
  EXPECT_EQ(plan.merge_fanin, 0);
}

// --- randomized differential suite ---
//
// Random join queries execute under all three join strategies × both
// merge topologies, on two deployments (serial scans and
// morsel-parallel scans, both over the sim transport), and every
// merged result must be byte-identical to an interpreted oracle that
// replays the raw rows through the replicated-dim join semantics.
// Metric values are integral, so sums are exact in any merge
// association and "byte-identical" is meaningful across topologies.

struct OracleAgg {
  double sum = 0;
  double count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

std::map<QueryResult::GroupKey, std::vector<OracleAgg>> InterpretOracle(
    const Query& q, const std::vector<Row>& rows, const ReplicatedTable& dim) {
  std::map<QueryResult::GroupKey, std::vector<OracleAgg>> groups;
  for (const Row& row : rows) {
    bool pass = true;
    for (const FilterRange& f : q.filters) {
      const uint32_t v = row.dims[f.dimension];
      if (v < f.lo || v > f.hi) {
        pass = false;
        break;
      }
    }
    for (const JoinFilter& f : q.join_filters) {
      if (!pass) break;
      const Join& jn = q.joins[f.join];
      const uint32_t attr =
          dim.Attribute(row.dims[jn.fact_dimension], jn.attribute);
      if (attr == kNoAttribute || attr < f.lo || attr > f.hi) pass = false;
    }
    if (!pass) continue;
    QueryResult::GroupKey key;
    for (int d : q.group_by) key.push_back(row.dims[d]);
    for (int g : q.group_by_joins) {
      const Join& jn = q.joins[g];
      const uint32_t attr =
          dim.Attribute(row.dims[jn.fact_dimension], jn.attribute);
      if (attr == kNoAttribute) {
        pass = false;
        break;
      }
      key.push_back(attr);
    }
    if (!pass) continue;
    auto [it, unused] =
        groups.try_emplace(key, q.aggregations.size(), OracleAgg{});
    for (size_t a = 0; a < q.aggregations.size(); ++a) {
      const double m = row.metrics[q.aggregations[a].metric];
      OracleAgg& agg = it->second[a];
      agg.sum += m;
      agg.count += 1;
      agg.min = std::min(agg.min, m);
      agg.max = std::max(agg.max, m);
    }
  }
  return groups;
}

class PlannerDifferentialTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDays = 16;
  static constexpr uint32_t kCampaigns = 32;

  std::unique_ptr<core::Deployment> MakeDeployment(int scan_workers) {
    core::DeploymentOptions options;
    options.seed = 97;
    options.topology.regions = 1;
    options.topology.racks_per_region = 2;
    options.topology.servers_per_rack = 4;
    options.max_shards = 5000;
    options.per_host_failure_probability = 0.0;
    options.server_options.scan_workers = scan_workers;
    auto dep = std::make_unique<core::Deployment>(options);
    EXPECT_TRUE(dep->CreateDimensionTable(
                        "campaigns", kCampaigns,
                        {Dimension{"advertiser", 5, 1},
                         Dimension{"tier", 3, 1}})
                    .ok());
    std::vector<DimensionEntry> entries;
    for (uint32_t k = 0; k < kCampaigns; ++k) {
      if (k % 7 == 0) continue;  // unmapped: inner-join drops
      entries.push_back(DimensionEntry{k, {k % 5, k % 3}});
    }
    EXPECT_TRUE(dep->LoadDimensionEntries("campaigns", entries).ok());
    EXPECT_TRUE(dep->CreateTable("facts", FactSchema()).ok());
    EXPECT_TRUE(dep->LoadRows("facts", rows_).ok());
    dep->RunFor(15 * kSecond);
    return dep;
  }

  void SetUp() override {
    Rng rng(23);
    for (int i = 0; i < 2000; ++i) {
      rows_.push_back(Row{{static_cast<uint32_t>(rng.NextBounded(kDays)),
                           static_cast<uint32_t>(rng.NextBounded(kCampaigns))},
                          {static_cast<double>(rng.NextBounded(1000))}});
    }
  }

  // One random join query. Always joins campaigns; grouping, filters
  // and aggregation sets vary.
  Query RandomJoinQuery(Rng& rng) {
    Query q;
    q.table = "facts";
    q.joins = {Join{1, "campaigns", static_cast<int>(rng.NextBounded(2))}};
    if (rng.NextBounded(2) == 0) q.group_by_joins = {0};
    if (rng.NextBounded(3) == 0) {
      const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(4));
      q.join_filters = {
          JoinFilter{0, lo, lo + static_cast<uint32_t>(rng.NextBounded(3))}};
    }
    if (rng.NextBounded(2) == 0) {
      q.group_by.push_back(0);
    }
    if (rng.NextBounded(3) == 0) {
      const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(kDays));
      q.filters = {FilterRange{
          0, lo, lo + static_cast<uint32_t>(rng.NextBounded(kDays))}};
    }
    q.aggregations = {Aggregation{0, AggOp::kSum},
                      Aggregation{0, AggOp::kCount}};
    if (rng.NextBounded(2) == 0) {
      q.aggregations.push_back(Aggregation{0, AggOp::kMin});
      q.aggregations.push_back(Aggregation{0, AggOp::kMax});
    }
    return q;
  }

  void CheckAgainstOracle(const Query& q, const QueryResult& result) {
    const ReplicatedTable dim = CampaignDim();
    auto oracle = InterpretOracle(q, rows_, dim);
    ASSERT_EQ(result.num_groups(), oracle.size());
    for (const auto& [key, aggs] : oracle) {
      for (size_t a = 0; a < q.aggregations.size(); ++a) {
        const OracleAgg& expect = aggs[a];
        switch (q.aggregations[a].op) {
          case AggOp::kSum:
            EXPECT_EQ(*result.Value(key, a, AggOp::kSum), expect.sum);
            break;
          case AggOp::kCount:
            EXPECT_EQ(*result.Value(key, a, AggOp::kCount), expect.count);
            break;
          case AggOp::kMin:
            EXPECT_EQ(*result.Value(key, a, AggOp::kMin), expect.min);
            break;
          case AggOp::kMax:
            EXPECT_EQ(*result.Value(key, a, AggOp::kMax), expect.max);
            break;
          default:
            break;
        }
      }
    }
  }

  std::vector<Row> rows_;
};

TEST_F(PlannerDifferentialTest, AllStrategiesAndTopologiesMatchOracle) {
  struct Variant {
    const char* name;
    std::unique_ptr<core::Deployment> dep;
  };
  Variant variants[] = {
      {"serial", MakeDeployment(0)},
      {"parallel", MakeDeployment(4)},
  };
  const JoinStrategy strategies[] = {JoinStrategy::kReplicated,
                                     JoinStrategy::kBroadcast,
                                     JoinStrategy::kShuffle};
  const int fanins[] = {0, 2, 3};

  Rng rng(101);
  for (int i = 0; i < 12; ++i) {
    const Query q = RandomJoinQuery(rng);
    for (Variant& v : variants) {
      const QueryResult* baseline = nullptr;
      QueryResult first;
      for (JoinStrategy strategy : strategies) {
        for (int fanin : fanins) {
          QueryRequest request(q);
          request.join_strategy = strategy;
          request.merge_fanin = fanin;
          auto outcome = v.dep->Query(std::move(request));
          ASSERT_TRUE(outcome.status.ok())
              << v.name << " q" << i << " "
              << JoinStrategyName(strategy) << "/fanin=" << fanin << ": "
              << outcome.status;
          // The outcome echoes the executed plan.
          EXPECT_EQ(outcome.join_strategy, strategy);
          EXPECT_EQ(outcome.merge_fanin, fanin >= 2 ? fanin : 0);
          if (fanin >= 2 && outcome.num_partitions > 1) {
            EXPECT_GT(outcome.tree_depth, 0);
          }
          if (baseline == nullptr) {
            first = outcome.result;
            baseline = &first;
            CheckAgainstOracle(q, first);
          } else {
            EXPECT_TRUE(SameResult(*baseline, outcome.result))
                << v.name << " q" << i << " "
                << JoinStrategyName(strategy) << "/fanin=" << fanin
                << " diverged from replicated/flat";
          }
        }
      }
    }
  }
}

TEST_F(PlannerDifferentialTest, AutoStrategyMatchesOracleToo) {
  auto dep = MakeDeployment(0);
  Rng rng(7);
  for (int i = 0; i < 4; ++i) {
    const Query q = RandomJoinQuery(rng);
    QueryRequest request(q);  // join_strategy = kAuto, merge_fanin = 0
    auto outcome = dep->Query(std::move(request));
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
    // The resolved strategy is echoed (never kAuto after planning).
    EXPECT_NE(outcome.join_strategy, JoinStrategy::kAuto);
    CheckAgainstOracle(q, outcome.result);
  }
}

}  // namespace
}  // namespace scalewall::cubrick
