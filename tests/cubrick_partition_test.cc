// Unit and property tests for TablePartition: insertion, brick pruning,
// execution correctness against a brute-force reference, hotness decay.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "cubrick/partition.h"
#include "workload/generators.h"

namespace scalewall::cubrick {
namespace {

TableSchema SmallSchema() {
  TableSchema schema;
  schema.dimensions = {
      Dimension{"a", 64, 8},
      Dimension{"b", 16, 4},
  };
  schema.metrics = {Metric{"m0"}, Metric{"m1"}};
  return schema;
}

TEST(PartitionTest, InsertValidatesArityAndDomain) {
  TablePartition part("t", 0, SmallSchema());
  EXPECT_TRUE(part.Insert(Row{{1, 2}, {1.0, 2.0}}).ok());
  EXPECT_EQ(part.Insert(Row{{1}, {1.0, 2.0}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(part.Insert(Row{{1, 2}, {1.0}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(part.Insert(Row{{64, 2}, {1.0, 2.0}}).code(),
            StatusCode::kInvalidArgument);  // out of domain
  EXPECT_EQ(part.num_rows(), 1u);
}

TEST(PartitionTest, RowsLandInDistinctBricks) {
  TablePartition part("t", 0, SmallSchema());
  part.Insert(Row{{0, 0}, {1, 1}});
  part.Insert(Row{{0, 1}, {1, 1}});   // same brick (bucket 0,0)
  part.Insert(Row{{8, 0}, {1, 1}});   // bucket (1,0)
  part.Insert(Row{{0, 4}, {1, 1}});   // bucket (0,1)
  EXPECT_EQ(part.num_bricks(), 3u);
  EXPECT_EQ(part.num_rows(), 4u);
}

TEST(PartitionTest, PruningSkipsNonMatchingBricks) {
  TablePartition part("t", 0, SmallSchema());
  for (uint32_t a = 0; a < 64; a += 8) {
    part.Insert(Row{{a, 0}, {1.0, 0.0}});  // 8 bricks along dim a
  }
  Query q;
  q.table = "t";
  q.filters = {FilterRange{0, 0, 7}};  // only bucket 0
  q.aggregations = {Aggregation{0, AggOp::kSum}};
  QueryResult result(1);
  ASSERT_TRUE(part.Execute(q, result).ok());
  EXPECT_EQ(result.bricks_scanned, 1);
  EXPECT_EQ(result.bricks_pruned, 7);
  EXPECT_EQ(*result.Value({}, 0, AggOp::kSum), 1.0);
}

TEST(PartitionTest, PrunedBricksStayCold) {
  TablePartition part("t", 0, SmallSchema());
  part.Insert(Row{{0, 0}, {1, 0}});
  part.Insert(Row{{63, 0}, {1, 0}});
  Query q;
  q.table = "t";
  q.filters = {FilterRange{0, 0, 7}};
  q.aggregations = {Aggregation{0, AggOp::kSum}};
  QueryResult result(1);
  part.Execute(q, result);
  int hot = 0, cold = 0;
  for (const auto& [id, brick] : part.bricks()) {
    (brick.hotness() > 0 ? hot : cold)++;
  }
  EXPECT_EQ(hot, 1);
  EXPECT_EQ(cold, 1);
}

TEST(PartitionTest, ExecuteValidatesQuery) {
  TablePartition part("t", 0, SmallSchema());
  Query q;
  q.table = "t";
  q.aggregations = {Aggregation{5, AggOp::kSum}};  // bad metric index
  QueryResult result(1);
  EXPECT_EQ(part.Execute(q, result).code(), StatusCode::kInvalidArgument);
}

TEST(PartitionTest, ExportRoundtripsAllRows) {
  TablePartition part("t", 0, SmallSchema());
  Rng rng(5);
  auto rows = workload::GenerateRows(SmallSchema(), 500, rng);
  for (const Row& r : rows) ASSERT_TRUE(part.Insert(r).ok());
  auto exported = part.ExportRows();
  EXPECT_EQ(exported.size(), 500u);
  double sum_in = 0, sum_out = 0;
  for (const Row& r : rows) sum_in += r.metrics[0];
  for (const Row& r : exported) sum_out += r.metrics[0];
  EXPECT_DOUBLE_EQ(sum_in, sum_out);
}

TEST(PartitionTest, DecayHotnessIsStochastic) {
  TablePartition part("t", 0, SmallSchema());
  Rng data_rng(5);
  auto rows = workload::GenerateRows(SmallSchema(), 2000, data_rng);
  for (const Row& r : rows) part.Insert(r);
  // Touch everything.
  Query q;
  q.table = "t";
  q.aggregations = {Aggregation{0, AggOp::kSum}};
  QueryResult result(1);
  part.Execute(q, result);
  Rng decay_rng(9);
  part.DecayHotness(decay_rng, 0.5);
  int decayed = 0, kept = 0;
  for (const auto& [id, brick] : part.bricks()) {
    (brick.hotness() == 0 ? decayed : kept)++;
  }
  EXPECT_GT(decayed, 0);
  EXPECT_GT(kept, 0);
}

TEST(PartitionTest, FootprintsTrackCompression) {
  TablePartition part("t", 0, SmallSchema());
  Rng rng(5);
  for (const Row& r : workload::GenerateRows(SmallSchema(), 1000, rng)) {
    part.Insert(r);
  }
  size_t raw = part.MemoryFootprint();
  EXPECT_EQ(raw, part.DecompressedSize());
  for (Brick* b : part.BricksByHotness(true)) b->Compress();
  EXPECT_LT(part.MemoryFootprint(), raw);
  EXPECT_EQ(part.DecompressedSize(), raw);
  EXPECT_EQ(part.SsdFootprint(), 0u);
}

TEST(PartitionTest, BricksByHotnessOrdering) {
  TablePartition part("t", 0, SmallSchema());
  part.Insert(Row{{0, 0}, {1, 0}});
  part.Insert(Row{{63, 15}, {1, 0}});
  // Touch only the second brick twice via a filtered query.
  Query q;
  q.table = "t";
  q.filters = {FilterRange{0, 56, 63}};
  q.aggregations = {Aggregation{0, AggOp::kSum}};
  QueryResult result(1);
  part.Execute(q, result);
  part.Execute(q, result);
  auto coldest = part.BricksByHotness(/*coldest_first=*/true);
  ASSERT_EQ(coldest.size(), 2u);
  EXPECT_LE(coldest[0]->hotness(), coldest[1]->hotness());
  auto hottest = part.BricksByHotness(/*coldest_first=*/false);
  EXPECT_GE(hottest[0]->hotness(), hottest[1]->hotness());
}

// --- rollup ingestion (Cubrick's cell model) ---

TEST(RollupTest, IdenticalDimVectorsMergeIntoOneCell) {
  TableSchema schema = SmallSchema();
  schema.rollup = true;
  TablePartition part("t", 0, schema);
  ASSERT_TRUE(part.Insert(Row{{1, 2}, {10.0, 1.0}}).ok());
  ASSERT_TRUE(part.Insert(Row{{1, 2}, {5.0, 2.0}}).ok());   // same cell
  ASSERT_TRUE(part.Insert(Row{{1, 3}, {7.0, 0.0}}).ok());   // new cell
  EXPECT_EQ(part.num_rows(), 2u);  // cells, not raw rows

  Query q;
  q.table = "t";
  q.aggregations = {Aggregation{0, AggOp::kSum},
                    Aggregation{0, AggOp::kCount}};
  QueryResult result(2);
  ASSERT_TRUE(part.Execute(q, result).ok());
  EXPECT_DOUBLE_EQ(*result.Value({}, 0, AggOp::kSum), 22.0);
  EXPECT_DOUBLE_EQ(*result.Value({}, 1, AggOp::kCount), 2.0);
}

TEST(RollupTest, MergeSurvivesCompressionCycles) {
  TableSchema schema = SmallSchema();
  schema.rollup = true;
  TablePartition part("t", 0, schema);
  ASSERT_TRUE(part.Insert(Row{{1, 2}, {1.0, 0.0}}).ok());
  // Compress, then insert into the same cell: the rollup index must be
  // rebuilt after transparent decompression.
  for (Brick* b : part.BricksByHotness(true)) b->Compress();
  ASSERT_TRUE(part.Insert(Row{{1, 2}, {2.0, 0.0}}).ok());
  ASSERT_TRUE(part.Insert(Row{{9, 2}, {4.0, 0.0}}).ok());
  EXPECT_EQ(part.num_rows(), 2u);
  Query q;
  q.table = "t";
  q.aggregations = {Aggregation{0, AggOp::kSum}};
  QueryResult result(1);
  ASSERT_TRUE(part.Execute(q, result).ok());
  EXPECT_DOUBLE_EQ(*result.Value({}, 0, AggOp::kSum), 7.0);
}

TEST(RollupTest, EquivalentToPostAggregation) {
  // A rollup table must answer GROUP BY over all dimensions exactly like
  // a raw table would.
  TableSchema raw_schema = SmallSchema();
  TableSchema rollup_schema = SmallSchema();
  rollup_schema.rollup = true;
  TablePartition raw("t", 0, raw_schema);
  TablePartition rolled("t", 0, rollup_schema);
  Rng rng(77);
  // Small domain so duplicates are common.
  for (int i = 0; i < 2000; ++i) {
    Row row{{static_cast<uint32_t>(rng.NextBounded(8)),
             static_cast<uint32_t>(rng.NextBounded(4))},
            {static_cast<double>(rng.NextBounded(10)), 1.0}};
    ASSERT_TRUE(raw.Insert(row).ok());
    ASSERT_TRUE(rolled.Insert(row).ok());
  }
  EXPECT_LT(rolled.num_rows(), raw.num_rows());
  EXPECT_LE(rolled.num_rows(), 32u);  // at most 8x4 cells
  Query q;
  q.table = "t";
  q.group_by = {0, 1};
  q.aggregations = {Aggregation{0, AggOp::kSum},
                    Aggregation{1, AggOp::kSum}};
  QueryResult raw_result(2), rolled_result(2);
  ASSERT_TRUE(raw.Execute(q, raw_result).ok());
  ASSERT_TRUE(rolled.Execute(q, rolled_result).ok());
  ASSERT_EQ(raw_result.num_groups(), rolled_result.num_groups());
  for (const auto& [key_view, states] : raw_result.groups()) {
    const QueryResult::GroupKey key(key_view.begin(), key_view.end());
    EXPECT_DOUBLE_EQ(*rolled_result.Value(key, 0, AggOp::kSum),
                     states[0].Finalize(AggOp::kSum));
    EXPECT_DOUBLE_EQ(*rolled_result.Value(key, 1, AggOp::kSum),
                     states[1].Finalize(AggOp::kSum));
  }
}

TEST(RollupTest, ExportPreservesCells) {
  TableSchema schema = SmallSchema();
  schema.rollup = true;
  TablePartition part("t", 0, schema);
  part.Insert(Row{{1, 1}, {3.0, 0.0}});
  part.Insert(Row{{1, 1}, {4.0, 0.0}});
  auto rows = part.ExportRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].metrics[0], 7.0);
}

// Property test: partition execution must equal a brute-force scan over
// the raw rows, for random queries, with and without compression.
class PartitionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionPropertyTest, MatchesBruteForceReference) {
  Rng rng(GetParam());
  TableSchema schema = workload::MakeSchema(
      /*dims=*/3, /*cardinality=*/50, /*range_size=*/7, /*metrics=*/2);
  TablePartition part("t", 0, schema);
  auto rows = workload::GenerateRows(schema, 2000, rng);
  for (const Row& r : rows) ASSERT_TRUE(part.Insert(r).ok());

  for (int trial = 0; trial < 10; ++trial) {
    Query q = workload::GenerateQuery("t", schema, rng);
    if (trial % 2 == 1) {
      // Exercise the compressed path too.
      for (Brick* b : part.BricksByHotness(true)) b->Compress();
    }
    QueryResult result(q.aggregations.size());
    ASSERT_TRUE(part.Execute(q, result).ok());

    // Brute force.
    std::map<std::vector<uint32_t>, std::vector<AggState>> expected;
    for (const Row& r : rows) {
      bool pass = true;
      for (const FilterRange& f : q.filters) {
        uint32_t v = r.dims[f.dimension];
        if (v < f.lo || v > f.hi) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      std::vector<uint32_t> key;
      for (int g : q.group_by) key.push_back(r.dims[g]);
      auto& states = expected[key];
      states.resize(q.aggregations.size());
      for (size_t a = 0; a < q.aggregations.size(); ++a) {
        const Aggregation& agg = q.aggregations[a];
        states[a].Add(agg.op == AggOp::kCount ? 1.0 : r.metrics[agg.metric]);
      }
    }
    ASSERT_EQ(result.num_groups(), expected.size()) << "trial " << trial;
    for (const auto& [key, states] : expected) {
      for (size_t a = 0; a < states.size(); ++a) {
        auto got = result.Value(key, a, q.aggregations[a].op);
        ASSERT_TRUE(got.ok());
        EXPECT_DOUBLE_EQ(*got,
                         states[a].Finalize(q.aggregations[a].op));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace scalewall::cubrick
