// Differential tests for the vectorized brick-scan path (ISSUE 6): the
// vectorized kernels must produce *byte-identical* results to the
// interpreted row-at-a-time oracle on randomized queries — serial and
// morsel-parallel, uncompressed and compressed, with and without joins —
// plus regression tests for the satellite fixes that rode along
// (NaN-safe ORDER BY, zero-count min/max finalization, fingerprint
// canonicalization, brick-id-space overflow rejection, RLE scan
// skipping).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "cubrick/partition.h"
#include "cubrick/query.h"
#include "cubrick/replicated_table.h"
#include "cubrick/schema.h"
#include "exec/morsel.h"
#include "exec/thread_pool.h"
#include "workload/generators.h"

namespace scalewall::cubrick {
namespace {

// memcmp on the raw doubles (sensitive to -0.0 vs +0.0), except that any
// NaN equals any NaN: when both addends of `sum += v` are NaN, which
// payload/sign x86 propagates depends on operand order the compiler
// happened to pick, so NaN bits can differ between two correct builds of
// the same addition sequence. Everything non-NaN is bit-exact.
bool SameDouble(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult BitIdentical(const QueryResult& a,
                                        const QueryResult& b) {
  if (a.rows_scanned != b.rows_scanned) {
    return ::testing::AssertionFailure()
           << "rows_scanned " << a.rows_scanned << " vs " << b.rows_scanned;
  }
  if (a.bricks_scanned != b.bricks_scanned) {
    return ::testing::AssertionFailure() << "bricks_scanned "
                                         << a.bricks_scanned << " vs "
                                         << b.bricks_scanned;
  }
  if (a.bricks_pruned != b.bricks_pruned) {
    return ::testing::AssertionFailure()
           << "bricks_pruned " << a.bricks_pruned << " vs "
           << b.bricks_pruned;
  }
  if (a.num_groups() != b.num_groups()) {
    return ::testing::AssertionFailure()
           << "num_groups " << a.num_groups() << " vs " << b.num_groups();
  }
  for (size_t g = 0; g < a.num_groups(); ++g) {
    const QueryResult::Group ga = a.group(g);
    const QueryResult::Group gb = b.group(g);
    if (!std::ranges::equal(ga.key, gb.key)) {
      return ::testing::AssertionFailure() << "group keys diverge";
    }
    if (ga.states.size() != gb.states.size()) {
      return ::testing::AssertionFailure() << "agg arity diverges";
    }
    for (size_t i = 0; i < ga.states.size(); ++i) {
      const AggState& sa = ga.states[i];
      const AggState& sb = gb.states[i];
      if (!SameDouble(sa.sum, sb.sum) || sa.count != sb.count ||
          !SameDouble(sa.min, sb.min) || !SameDouble(sa.max, sb.max)) {
        return ::testing::AssertionFailure()
               << "agg state " << i << " diverges: sum " << sa.sum << "/"
               << sb.sum << " count " << sa.count << "/" << sb.count
               << " min " << sa.min << "/" << sb.min << " max " << sa.max
               << "/" << sb.max;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TablePartition MakeLoadedPartition(const TableSchema& schema, size_t rows,
                                   uint64_t seed) {
  TablePartition part("t", 0, schema);
  Rng rng(seed);
  for (const Row& row : workload::GenerateRows(schema, rows, rng)) {
    EXPECT_TRUE(part.Insert(row).ok());
  }
  return part;
}

// A dimension table covering only part of the key domain, so inner-join
// drops are exercised (plus a second attribute for multi-join queries).
ReplicatedTable MakeDimTable(const std::string& name, uint32_t key_card,
                             uint64_t seed) {
  ReplicatedTable dim(name, key_card,
                      {{"color", 8, 1}, {"size", 5, 1}});
  Rng rng(seed);
  for (uint32_t key = 0; key < key_card; ++key) {
    if (rng.NextBool(0.3)) continue;  // ~30% of keys left unmatched
    DimensionEntry entry;
    entry.key = key;
    entry.attributes = {static_cast<uint32_t>(rng.NextBounded(8)),
                        static_cast<uint32_t>(rng.NextBounded(5))};
    EXPECT_TRUE(dim.Set(entry).ok());
  }
  return dim;
}

// Richer query generator than workload::GenerateQuery: IN lists (with
// out-of-domain values), multiple group dimensions, joins with attribute
// filters and grouped attributes, and every aggregation op.
Query RandomQuery(const TableSchema& schema, Rng& rng, bool with_join) {
  Query q;
  q.table = "t";
  const int dims = static_cast<int>(schema.dimensions.size());
  for (int d = 0; d < dims; ++d) {
    if (rng.NextBool(0.4)) {
      const uint32_t card = schema.dimensions[d].cardinality;
      uint32_t lo = static_cast<uint32_t>(rng.NextBounded(card));
      uint32_t hi = static_cast<uint32_t>(rng.NextBounded(card));
      if (lo > hi) std::swap(lo, hi);
      q.filters.push_back({d, lo, hi});
    }
    if (rng.NextBool(0.25)) {
      FilterIn in;
      in.dimension = d;
      const size_t n = 1 + rng.NextBounded(5);
      for (size_t i = 0; i < n; ++i) {
        // Occasionally out of the dimension's domain: can never match.
        const uint32_t span = schema.dimensions[d].cardinality + 4;
        in.values.push_back(static_cast<uint32_t>(rng.NextBounded(span)));
      }
      q.in_filters.push_back(in);
    }
  }
  for (int d = 0; d < dims; ++d) {
    if (rng.NextBool(0.3)) q.group_by.push_back(d);
    if (q.group_by.size() >= 2) break;
  }
  if (with_join) {
    // Join dim 0 against "colors"; sometimes a second join on dim 1.
    q.joins.push_back({0, "colors", 0});
    if (rng.NextBool(0.5)) q.joins.push_back({1, "colors", 1});
    for (size_t j = 0; j < q.joins.size(); ++j) {
      if (rng.NextBool(0.5)) {
        q.join_filters.push_back(
            {static_cast<int>(j), 0,
             static_cast<uint32_t>(1 + rng.NextBounded(6))});
      }
      if (rng.NextBool(0.5)) {
        q.group_by_joins.push_back(static_cast<int>(j));
      }
    }
  }
  const size_t naggs = 1 + rng.NextBounded(3);
  const AggOp ops[] = {AggOp::kSum, AggOp::kCount, AggOp::kMin, AggOp::kMax,
                       AggOp::kAvg};
  for (size_t i = 0; i < naggs; ++i) {
    Aggregation a;
    a.metric = static_cast<int>(
        rng.NextBounded(schema.metrics.empty() ? 1 : schema.metrics.size()));
    a.op = ops[rng.NextBounded(5)];
    q.aggregations.push_back(a);
  }
  return q;
}

// Runs `query` through both scan paths (serial unless `opts` given) and
// checks byte identity.
void ExpectPathsAgree(TablePartition& part, const Query& query,
                      const JoinContext* join,
                      exec::ExecOptions* opts = nullptr) {
  ASSERT_TRUE(query.Validate(part.schema()).ok());
  QueryResult vec(query.aggregations.size());
  QueryResult oracle(query.aggregations.size());
  exec::ExecOptions vec_opts = opts ? *opts : exec::ExecOptions{};
  vec_opts.scan_path = exec::ScanPath::kVectorized;
  exec::ExecOptions int_opts = opts ? *opts : exec::ExecOptions{};
  int_opts.scan_path = exec::ScanPath::kInterpreted;
  ASSERT_TRUE(part.Execute(query, vec, join, &vec_opts).ok());
  ASSERT_TRUE(part.Execute(query, oracle, join, &int_opts).ok());
  EXPECT_TRUE(BitIdentical(vec, oracle)) << CanonicalQueryFingerprint(query);
}

TEST(VecDifferentialTest, RandomQueriesSerial) {
  const TableSchema schema = workload::MakeSchema(3, 64, 16, 2);
  TablePartition part = MakeLoadedPartition(schema, 6000, 1);
  Rng rng(42);
  for (int i = 0; i < 60; ++i) {
    ExpectPathsAgree(part, RandomQuery(schema, rng, false), nullptr);
  }
}

TEST(VecDifferentialTest, RandomQueriesParallel) {
  const TableSchema schema = workload::MakeSchema(3, 64, 16, 2);
  TablePartition part = MakeLoadedPartition(schema, 6000, 2);
  exec::ThreadPool pool(8);
  exec::ExecOptions opts;
  opts.num_workers = 8;
  opts.pool = &pool;
  opts.morsel_rows = 256;  // many morsels per brick
  Rng rng(43);
  for (int i = 0; i < 40; ++i) {
    ExpectPathsAgree(part, RandomQuery(schema, rng, false), nullptr, &opts);
  }
}

TEST(VecDifferentialTest, RandomQueriesWithJoins) {
  const TableSchema schema = workload::MakeSchema(3, 64, 16, 2);
  TablePartition part = MakeLoadedPartition(schema, 6000, 3);
  const ReplicatedTable dim = MakeDimTable("colors", 64, 7);
  Rng rng(44);
  for (int i = 0; i < 40; ++i) {
    const Query q = RandomQuery(schema, rng, true);
    JoinContext join;
    join.tables.assign(q.joins.size(), &dim);
    ExpectPathsAgree(part, q, &join);
  }
}

TEST(VecDifferentialTest, RandomQueriesCompressed) {
  const TableSchema schema = workload::MakeSchema(3, 64, 16, 2);
  TablePartition part = MakeLoadedPartition(schema, 6000, 4);
  for (auto& [id, brick] : part.mutable_bricks()) brick.Compress();
  Rng rng(45);
  for (int i = 0; i < 30; ++i) {
    ExpectPathsAgree(part, RandomQuery(schema, rng, false), nullptr);
  }
}

TEST(VecDifferentialTest, HashModeGrouping) {
  // Cardinality product 128^2 = 16384 > the 4096 direct-slot cap, so
  // grouping goes through GroupKeyIndex.
  const TableSchema schema = workload::MakeSchema(2, 128, 32, 2);
  TablePartition part = MakeLoadedPartition(schema, 8000, 5);
  Query q;
  q.table = "t";
  q.group_by = {0, 1};
  q.aggregations = {{0, AggOp::kSum}, {1, AggOp::kMin}, {0, AggOp::kCount}};
  ExpectPathsAgree(part, q, nullptr);
  q.filters.push_back({0, 10, 90});
  ExpectPathsAgree(part, q, nullptr);
  // And through the parallel merge.
  exec::ThreadPool pool(4);
  exec::ExecOptions opts;
  opts.num_workers = 4;
  opts.pool = &pool;
  opts.morsel_rows = 512;
  ExpectPathsAgree(part, q, nullptr, &opts);
}

TEST(VecDifferentialTest, NanAndInfinityMetrics) {
  const TableSchema schema = workload::MakeSchema(2, 16, 4, 2);
  TablePartition part("t", 0, schema);
  Rng rng(9);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0,
                             1.5};
  for (int i = 0; i < 500; ++i) {
    Row row;
    row.dims = {static_cast<uint32_t>(rng.NextBounded(16)),
                static_cast<uint32_t>(rng.NextBounded(16))};
    row.metrics = {specials[rng.NextBounded(5)],
                   rng.NextDouble() * 10 - 5};
    ASSERT_TRUE(part.Insert(row).ok());
  }
  Rng qrng(10);
  for (int i = 0; i < 20; ++i) {
    ExpectPathsAgree(part, RandomQuery(schema, qrng, false), nullptr);
  }
}

TEST(VecDifferentialTest, RlePrefilterSkipsDecompression) {
  // Every row has dim0 == dim1, so the conjunction dim0=0 AND dim1=1 is
  // satisfiable at brick granularity (both buckets are bucket 0) but by
  // no actual row — the per-run RLE prefilter proves it without ever
  // decompressing.
  const TableSchema schema = workload::MakeSchema(2, 32, 16, 1);
  auto load = [&] {
    TablePartition part("t", 0, schema);
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
      const uint32_t v = static_cast<uint32_t>(rng.NextBounded(32));
      Row row;
      row.dims = {v, v};
      row.metrics = {1.0};
      EXPECT_TRUE(part.Insert(row).ok());
    }
    for (auto& [id, brick] : part.mutable_bricks()) brick.Compress();
    return part;
  };
  TablePartition vec_part = load();
  TablePartition int_part = load();

  Query q;
  q.table = "t";
  q.filters = {{0, 0, 0}, {1, 1, 1}};
  q.aggregations = {{0, AggOp::kSum}};

  QueryResult vec(1);
  ASSERT_TRUE(vec_part.Execute(q, vec, nullptr, nullptr).ok());
  EXPECT_EQ(vec.num_groups(), 0u);
  // The whole scan was answered from compressed runs: nothing was
  // decompressed, and every brick is still in its compressed tier.
  EXPECT_EQ(vec_part.decompressions(), 0);
  for (const auto& [id, brick] : vec_part.bricks()) {
    EXPECT_EQ(brick.state(), BrickState::kCompressed);
  }

  exec::ExecOptions int_opts;
  int_opts.scan_path = exec::ScanPath::kInterpreted;
  QueryResult oracle(1);
  ASSERT_TRUE(int_part.Execute(q, oracle, nullptr, &int_opts).ok());
  EXPECT_GT(int_part.decompressions(), 0);  // the oracle had to inflate
  EXPECT_TRUE(BitIdentical(vec, oracle));
}

// --- satellite regressions ---

TEST(MaterializeRowsTest, NanValuesOrderLast) {
  Query q;
  q.table = "t";
  q.group_by = {0};
  q.aggregations = {{0, AggOp::kSum}};
  q.order_by = 0;

  QueryResult result(1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  result.Accumulate({0}, 0, 5.0);
  result.Accumulate({1}, 0, nan);
  result.Accumulate({2}, 0, 1.0);
  result.Accumulate({3}, 0, nan);

  q.descending = true;
  std::vector<ResultRow> rows = MaterializeRows(result, q);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].key, (QueryResult::GroupKey{0}));  // 5.0
  EXPECT_EQ(rows[1].key, (QueryResult::GroupKey{2}));  // 1.0
  // NaN rows sort after every real value, tie-broken by group key.
  EXPECT_EQ(rows[2].key, (QueryResult::GroupKey{1}));
  EXPECT_EQ(rows[3].key, (QueryResult::GroupKey{3}));

  q.descending = false;
  rows = MaterializeRows(result, q);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].key, (QueryResult::GroupKey{2}));
  EXPECT_EQ(rows[1].key, (QueryResult::GroupKey{0}));
  EXPECT_EQ(rows[2].key, (QueryResult::GroupKey{1}));
  EXPECT_EQ(rows[3].key, (QueryResult::GroupKey{3}));

  // LIMIT applied after the NaN-safe ordering keeps the real values.
  q.descending = true;
  q.limit = 2;
  rows = MaterializeRows(result, q);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, (QueryResult::GroupKey{0}));
  EXPECT_EQ(rows[1].key, (QueryResult::GroupKey{2}));
}

TEST(AggStateTest, ZeroCountMinMaxFinalizeToZero) {
  const AggState empty;
  EXPECT_EQ(empty.Finalize(AggOp::kMin), 0.0);
  EXPECT_EQ(empty.Finalize(AggOp::kMax), 0.0);
  EXPECT_EQ(empty.Finalize(AggOp::kAvg), 0.0);
  EXPECT_FALSE(std::isinf(empty.Finalize(AggOp::kMin)));
  AggState seen;
  seen.Add(-3.5);
  EXPECT_EQ(seen.Finalize(AggOp::kMin), -3.5);
  EXPECT_EQ(seen.Finalize(AggOp::kMax), -3.5);
}

TEST(FingerprintTest, CountMetricIndexIsNormalized) {
  Query a;
  a.table = "t";
  a.aggregations = {{0, AggOp::kCount}};
  Query b = a;
  b.aggregations = {{1, AggOp::kCount}};  // COUNT(m1) == COUNT(m0)
  EXPECT_EQ(CanonicalQueryFingerprint(a), CanonicalQueryFingerprint(b));
  // Ops that *do* read the metric keep distinct fingerprints.
  a.aggregations = {{0, AggOp::kSum}};
  b.aggregations = {{1, AggOp::kSum}};
  EXPECT_NE(CanonicalQueryFingerprint(a), CanonicalQueryFingerprint(b));
}

TEST(FingerprintTest, TableNamesCannotForgeFilterEncodings) {
  // Without the length prefix these two encoded identically: a table
  // literally named "t|f:0,1,2" versus a filtered query on table "t".
  Query tricky;
  tricky.table = "t|f:0,1,2";
  Query filtered;
  filtered.table = "t";
  filtered.filters = {{0, 1, 2}};
  EXPECT_NE(CanonicalQueryFingerprint(tricky),
            CanonicalQueryFingerprint(filtered));

  // Same forgery through a join's dimension-table name.
  Query join_tricky;
  join_tricky.table = "t";
  join_tricky.joins = {{0, "d,1|jf:0,0,5", 1}};
  Query join_plain;
  join_plain.table = "t";
  join_plain.joins = {{0, "d", 1}};
  join_plain.join_filters = {{0, 0, 5}};
  EXPECT_NE(CanonicalQueryFingerprint(join_tricky),
            CanonicalQueryFingerprint(join_plain));
}

TEST(SchemaTest, RejectsBrickIdSpaceOverflow) {
  // Three full-width dimensions: bucket product ~2^96 overflows the
  // uint64 brick-id space and must be rejected at validation time (the
  // catalog calls Validate before creating a table).
  TableSchema schema;
  schema.dimensions = {{"a", 4294967295u, 1},
                       {"b", 4294967295u, 1},
                       {"c", 4294967295u, 1}};
  schema.metrics = {{"m"}};
  const Status status = schema.Validate();
  EXPECT_FALSE(status.ok());

  // Two of them stay within uint64 ((2^32-1)^2 < 2^64) and validate.
  TableSchema fits;
  fits.dimensions = {{"a", 4294967295u, 1}, {"b", 4294967295u, 1}};
  fits.metrics = {{"m"}};
  EXPECT_TRUE(fits.Validate().ok());
}

}  // namespace
}  // namespace scalewall::cubrick
