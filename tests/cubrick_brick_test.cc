// Unit tests for Granular Partitioning bricks: id arithmetic, scanning,
// adaptive compression state machine, size accounting.

#include <gtest/gtest.h>

#include "cubrick/brick.h"
#include "cubrick/schema.h"

namespace scalewall::cubrick {
namespace {

TableSchema TwoDimSchema() {
  TableSchema schema;
  schema.dimensions = {
      Dimension{"x", /*cardinality=*/100, /*range_size=*/10},  // 10 buckets
      Dimension{"y", /*cardinality=*/40, /*range_size=*/8},    // 5 buckets
  };
  schema.metrics = {Metric{"m"}};
  return schema;
}

TEST(BrickIdTest, MixedRadixEncoding) {
  TableSchema schema = TwoDimSchema();
  // x=23 -> bucket 2, y=17 -> bucket 2; id = 2*5 + 2 = 12.
  EXPECT_EQ(BrickIdForRow(schema, {23, 17}), 12u);
  EXPECT_EQ(BrickIdForRow(schema, {0, 0}), 0u);
  EXPECT_EQ(BrickIdForRow(schema, {99, 39}), 9u * 5 + 4);
}

TEST(BrickIdTest, BucketDecodeInvertsEncode) {
  TableSchema schema = TwoDimSchema();
  for (uint32_t x : {0u, 5u, 23u, 99u}) {
    for (uint32_t y : {0u, 7u, 17u, 39u}) {
      BrickId id = BrickIdForRow(schema, {x, y});
      EXPECT_EQ(BrickBucket(schema, id, 0), x / 10);
      EXPECT_EQ(BrickBucket(schema, id, 1), y / 8);
    }
  }
}

TEST(BrickIdTest, BrickSpaceIsProductOfBuckets) {
  TableSchema schema = TwoDimSchema();
  EXPECT_EQ(BrickSpace(schema), 50u);
  // Rounding up of partial buckets: cardinality 101, range 10 -> 11.
  schema.dimensions[0].cardinality = 101;
  EXPECT_EQ(BrickSpace(schema), 55u);
}

class BrickTest : public ::testing::Test {
 protected:
  BrickTest() : schema_(TwoDimSchema()), brick_(12, 2, 1) {
    // Rows in bucket (2, 2): x in [20,29], y in [16,23].
    brick_.Append({23, 17}, {1.0});
    brick_.Append({25, 16}, {2.0});
    brick_.Append({20, 23}, {4.0});
  }

  Query SumQuery() {
    Query q;
    q.table = "t";
    q.aggregations = {Aggregation{0, AggOp::kSum}};
    return q;
  }

  // A whole-brick scan as TablePartition's serial driver runs it.
  void Scan(const Query& q, QueryResult& result,
            std::atomic<int64_t>* decompressions) {
    brick_.Touch();
    brick_.ScanRange(schema_, q, result, decompressions, nullptr, 0,
                     brick_.num_rows());
  }

  TableSchema schema_;
  Brick brick_;
};

TEST_F(BrickTest, ScanAggregatesAll) {
  QueryResult result(1);
  std::atomic<int64_t> decompressions{0};
  Scan(SumQuery(), result, &decompressions);
  EXPECT_EQ(*result.Value({}, 0, AggOp::kSum), 7.0);
  EXPECT_EQ(result.rows_scanned, 3);
  EXPECT_EQ(decompressions, 0);
}

TEST_F(BrickTest, ScanAppliesRowFilters) {
  Query q = SumQuery();
  q.filters = {FilterRange{0, 21, 26}};  // only x=23, x=25 pass
  QueryResult result(1);
  std::atomic<int64_t> decompressions{0};
  Scan(q, result, &decompressions);
  EXPECT_EQ(*result.Value({}, 0, AggOp::kSum), 3.0);
}

TEST_F(BrickTest, ScanGroupBy) {
  Query q = SumQuery();
  q.group_by = {1};  // y
  QueryResult result(1);
  std::atomic<int64_t> decompressions{0};
  Scan(q, result, &decompressions);
  EXPECT_EQ(result.num_groups(), 3u);
  EXPECT_EQ(*result.Value({17}, 0, AggOp::kSum), 1.0);
  EXPECT_EQ(*result.Value({16}, 0, AggOp::kSum), 2.0);
  EXPECT_EQ(*result.Value({23}, 0, AggOp::kSum), 4.0);
}

TEST_F(BrickTest, ScanBumpsHotness) {
  EXPECT_EQ(brick_.hotness(), 0u);
  QueryResult result(1);
  std::atomic<int64_t> d{0};
  Scan(SumQuery(), result, &d);
  Scan(SumQuery(), result, &d);
  EXPECT_EQ(brick_.hotness(), 2u);
  brick_.Decay();
  EXPECT_EQ(brick_.hotness(), 1u);
  brick_.Decay();
  brick_.Decay();  // saturates at zero
  EXPECT_EQ(brick_.hotness(), 0u);
}

TEST_F(BrickTest, CompressShrinksMemoryAndScanRestores) {
  size_t raw = brick_.MemoryFootprint();
  EXPECT_EQ(raw, brick_.DecompressedSize());
  brick_.Compress();
  EXPECT_EQ(brick_.state(), BrickState::kCompressed);
  EXPECT_LT(brick_.MemoryFootprint(), raw);
  EXPECT_EQ(brick_.DecompressedSize(), raw);  // logical size unchanged

  QueryResult result(1);
  std::atomic<int64_t> decompressions{0};
  Scan(SumQuery(), result, &decompressions);
  EXPECT_EQ(decompressions, 1);
  EXPECT_EQ(brick_.state(), BrickState::kUncompressed);
  EXPECT_EQ(*result.Value({}, 0, AggOp::kSum), 7.0);
}

TEST_F(BrickTest, CompressIsIdempotent) {
  brick_.Compress();
  size_t compressed = brick_.MemoryFootprint();
  brick_.Compress();
  EXPECT_EQ(brick_.MemoryFootprint(), compressed);
  brick_.Decompress();
  brick_.Decompress();
  EXPECT_EQ(brick_.state(), BrickState::kUncompressed);
}

TEST_F(BrickTest, AppendToCompressedBrickDecompressesFirst) {
  brick_.Compress();
  brick_.Append({22, 20}, {8.0});
  EXPECT_EQ(brick_.state(), BrickState::kUncompressed);
  EXPECT_EQ(brick_.num_rows(), 4u);
  QueryResult result(1);
  std::atomic<int64_t> d{0};
  Scan(SumQuery(), result, &d);
  EXPECT_EQ(*result.Value({}, 0, AggOp::kSum), 15.0);
}

TEST_F(BrickTest, SsdEvictionLifecycle) {
  // Must compress first.
  EXPECT_EQ(brick_.EvictToSsd().code(), StatusCode::kFailedPrecondition);
  brick_.Compress();
  size_t compressed = brick_.MemoryFootprint();
  ASSERT_TRUE(brick_.EvictToSsd().ok());
  EXPECT_EQ(brick_.state(), BrickState::kOnSsd);
  EXPECT_EQ(brick_.MemoryFootprint(), 0u);
  EXPECT_EQ(brick_.SsdFootprint(), compressed);
  // Scanning an SSD brick loads + decompresses transparently.
  QueryResult result(1);
  std::atomic<int64_t> decompressions{0};
  Scan(SumQuery(), result, &decompressions);
  EXPECT_EQ(brick_.state(), BrickState::kUncompressed);
  EXPECT_EQ(brick_.SsdFootprint(), 0u);
  EXPECT_EQ(*result.Value({}, 0, AggOp::kSum), 7.0);
}

TEST_F(BrickTest, ExportRowsFromAllStates) {
  auto check = [&] {
    std::vector<Row> rows;
    brick_.ExportRows(rows);
    EXPECT_EQ(rows.size(), 3u);
    double sum = 0;
    for (const Row& r : rows) sum += r.metrics[0];
    EXPECT_EQ(sum, 7.0);
  };
  check();  // uncompressed
  brick_.Compress();
  check();  // compressed — must not disturb state
  EXPECT_EQ(brick_.state(), BrickState::kCompressed);
  brick_.EvictToSsd();
  check();  // on SSD
  EXPECT_EQ(brick_.state(), BrickState::kOnSsd);
}

}  // namespace
}  // namespace scalewall::cubrick
