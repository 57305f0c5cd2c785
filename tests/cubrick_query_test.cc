// Unit tests for query validation, aggregation states, and result merging
// (the coordinator's partial-result merge, Section IV-C).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "common/random.h"
#include "cubrick/query.h"
#include "cubrick/schema.h"

namespace scalewall::cubrick {
namespace {

TableSchema Schema() {
  TableSchema schema;
  schema.dimensions = {Dimension{"d0", 10, 2}, Dimension{"d1", 10, 2}};
  schema.metrics = {Metric{"m0"}};
  return schema;
}

TEST(SchemaTest, ValidateAcceptsGoodSchema) {
  EXPECT_TRUE(Schema().Validate().ok());
}

TEST(SchemaTest, ValidateRejectsBadSchemas) {
  TableSchema empty;
  EXPECT_FALSE(empty.Validate().ok());

  TableSchema zero_card = Schema();
  zero_card.dimensions[0].cardinality = 0;
  EXPECT_FALSE(zero_card.Validate().ok());

  TableSchema zero_range = Schema();
  zero_range.dimensions[0].range_size = 0;
  EXPECT_FALSE(zero_range.Validate().ok());

  TableSchema dup = Schema();
  dup.metrics.push_back(Metric{"d0"});
  EXPECT_FALSE(dup.Validate().ok());

  TableSchema hash = Schema();
  hash.dimensions[0].name = "bad#name";
  EXPECT_FALSE(hash.Validate().ok());
}

TEST(SchemaTest, ColumnIndexLookup) {
  TableSchema schema = Schema();
  EXPECT_EQ(schema.DimensionIndex("d1"), 1);
  EXPECT_EQ(schema.DimensionIndex("nope"), -1);
  EXPECT_EQ(schema.MetricIndex("m0"), 0);
  EXPECT_EQ(schema.MetricIndex("d0"), -1);
}

TEST(QueryValidateTest, CatchesBadIndices) {
  TableSchema schema = Schema();
  Query q;
  q.table = "t";
  q.aggregations = {Aggregation{0, AggOp::kSum}};
  EXPECT_TRUE(q.Validate(schema).ok());

  Query bad_filter = q;
  bad_filter.filters = {FilterRange{2, 0, 1}};
  EXPECT_FALSE(bad_filter.Validate(schema).ok());

  Query inverted = q;
  inverted.filters = {FilterRange{0, 5, 1}};
  EXPECT_FALSE(inverted.Validate(schema).ok());

  Query bad_group = q;
  bad_group.group_by = {7};
  EXPECT_FALSE(bad_group.Validate(schema).ok());

  Query bad_metric = q;
  bad_metric.aggregations = {Aggregation{3, AggOp::kSum}};
  EXPECT_FALSE(bad_metric.Validate(schema).ok());

  Query no_aggs = q;
  no_aggs.aggregations.clear();
  EXPECT_FALSE(no_aggs.Validate(schema).ok());

  // COUNT ignores the metric index.
  Query count_any = q;
  count_any.aggregations = {Aggregation{99, AggOp::kCount}};
  EXPECT_TRUE(count_any.Validate(schema).ok());
}

TEST(AggStateTest, FinalizeAllOps) {
  AggState s;
  for (double v : {4.0, 1.0, 7.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Finalize(AggOp::kSum), 12.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggOp::kCount), 3.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggOp::kMin), 1.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggOp::kMax), 7.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggOp::kAvg), 4.0);
}

TEST(AggStateTest, EmptyAvgIsZero) {
  AggState s;
  EXPECT_DOUBLE_EQ(s.Finalize(AggOp::kAvg), 0.0);
}

TEST(AggStateTest, MergeEqualsCombinedStream) {
  AggState a, b, combined;
  for (double v : {1.0, 2.0, 3.0}) {
    a.Add(v);
    combined.Add(v);
  }
  for (double v : {10.0, -5.0}) {
    b.Add(v);
    combined.Add(v);
  }
  a.Merge(b);
  for (AggOp op : {AggOp::kSum, AggOp::kCount, AggOp::kMin, AggOp::kMax,
                   AggOp::kAvg}) {
    EXPECT_DOUBLE_EQ(a.Finalize(op), combined.Finalize(op));
  }
}

TEST(QueryResultTest, AccumulateAndValue) {
  QueryResult r(2);
  r.Accumulate({1}, 0, 5.0);
  r.Accumulate({1}, 0, 3.0);
  r.Accumulate({1}, 1, 1.0);
  r.Accumulate({2}, 0, 7.0);
  EXPECT_EQ(r.num_groups(), 2u);
  EXPECT_DOUBLE_EQ(*r.Value({1}, 0, AggOp::kSum), 8.0);
  EXPECT_DOUBLE_EQ(*r.Value({2}, 0, AggOp::kSum), 7.0);
  EXPECT_EQ(r.Value({3}, 0, AggOp::kSum).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(r.Value({1}, 5, AggOp::kSum).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryResultTest, MergePartialResults) {
  // Two "partitions" each contribute partials; merge must equal a single
  // pass over all data.
  QueryResult p1(1), p2(1), merged(1), reference(1);
  p1.Accumulate({0}, 0, 1.0);
  p1.Accumulate({1}, 0, 2.0);
  p2.Accumulate({1}, 0, 3.0);
  p2.Accumulate({2}, 0, 4.0);
  for (double v : {1.0}) reference.Accumulate({0}, 0, v);
  for (double v : {2.0, 3.0}) reference.Accumulate({1}, 0, v);
  for (double v : {4.0}) reference.Accumulate({2}, 0, v);

  merged.Merge(p1);
  merged.Merge(p2);
  EXPECT_EQ(merged.num_groups(), reference.num_groups());
  for (const auto& [key_view, states] : reference.groups()) {
    const QueryResult::GroupKey key(key_view.begin(), key_view.end());
    EXPECT_DOUBLE_EQ(*merged.Value(key, 0, AggOp::kSum),
                     states[0].Finalize(AggOp::kSum));
    EXPECT_DOUBLE_EQ(*merged.Value(key, 0, AggOp::kMin),
                     states[0].Finalize(AggOp::kMin));
  }
}

TEST(QueryResultTest, MergeAccumulatesDiagnostics) {
  QueryResult a(1), b(1);
  a.rows_scanned = 10;
  a.bricks_scanned = 2;
  b.rows_scanned = 5;
  b.bricks_pruned = 3;
  a.Merge(b);
  EXPECT_EQ(a.rows_scanned, 15);
  EXPECT_EQ(a.bricks_scanned, 2);
  EXPECT_EQ(a.bricks_pruned, 3);
}

TEST(QueryResultTest, MergeIntoEmptyAdoptsShape) {
  QueryResult empty(0);
  QueryResult other(2);
  other.Accumulate({}, 1, 3.0);
  empty.Merge(other);
  EXPECT_EQ(empty.num_aggregations(), 2u);
  EXPECT_DOUBLE_EQ(*empty.Value({}, 1, AggOp::kSum), 3.0);
}

// --- differential: flat QueryResult vs a reference std::map fold ---
//
// The reference is the layout QueryResult used to have: a sorted map
// from key to one state vector, every insert and merge folding into a
// default-constructed state. The flat runs must agree with it bit for
// bit on all four fields, however Merge calls and reads interleave.

using RefGroups = std::map<QueryResult::GroupKey, std::vector<AggState>>;

std::vector<AggState>& RefStates(RefGroups& ref, const QueryResult::GroupKey& key,
                                 size_t num_aggs) {
  auto& states = ref[key];
  if (states.size() < num_aggs) states.resize(num_aggs);
  return states;
}

void RefMerge(RefGroups& into, const RefGroups& from) {
  for (const auto& [key, states] : from) {
    auto& mine = into[key];
    if (mine.size() < states.size()) mine.resize(states.size());
    for (size_t a = 0; a < states.size(); ++a) mine[a].Merge(states[a]);
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult MatchesReference(const QueryResult& result,
                                            const RefGroups& ref) {
  if (result.num_groups() != ref.size()) {
    return ::testing::AssertionFailure()
           << "groups " << result.num_groups() << " vs " << ref.size();
  }
  size_t g = 0;
  for (const auto& [key, states] : ref) {
    const QueryResult::Group got = result.group(g++);
    if (!std::ranges::equal(got.key, key)) {
      return ::testing::AssertionFailure() << "key diverges at group " << g;
    }
    if (got.states.size() != states.size()) {
      return ::testing::AssertionFailure() << "state count at group " << g;
    }
    for (size_t a = 0; a < states.size(); ++a) {
      const AggState& x = got.states[a];
      const AggState& y = states[a];
      if (!SameBits(x.sum, y.sum) || x.count != y.count ||
          !SameBits(x.min, y.min) || !SameBits(x.max, y.max)) {
        return ::testing::AssertionFailure()
               << "state " << a << " of group " << g << " diverges: sum "
               << x.sum << "/" << y.sum << " count " << x.count << "/"
               << y.count << " min " << x.min << "/" << y.min << " max "
               << x.max << "/" << y.max;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

double RandomValue(Rng& rng) {
  switch (rng.NextBounded(8)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return -0.0;
    default:
      return rng.NextDouble() * 2e3 - 1e3;
  }
}

QueryResult::GroupKey RandomKey(Rng& rng, size_t arity, uint64_t domain) {
  QueryResult::GroupKey key(arity);
  for (uint32_t& v : key) v = static_cast<uint32_t>(rng.NextBounded(domain));
  return key;
}

// One partial built three ways at random: raw values (Accumulate),
// folded states (AccumulateState, including -0.0 sums and NaN bounds
// that a default state must absorb), or whole groups in any key order
// (AppendRun). Sometimes empty, sometimes a single group.
void RandomPartial(Rng& rng, size_t arity, size_t num_aggs, QueryResult* out,
                   RefGroups* ref) {
  const uint64_t domain = 1 + rng.NextBounded(6);
  const uint64_t inserts = rng.NextBounded(4) == 0 ? rng.NextBounded(2)
                                                   : rng.NextBounded(40);
  for (uint64_t i = 0; i < inserts; ++i) {
    const QueryResult::GroupKey key = RandomKey(rng, arity, domain);
    switch (rng.NextBounded(3)) {
      case 0: {
        const size_t a = rng.NextBounded(num_aggs);
        const double v = RandomValue(rng);
        out->Accumulate(key, a, v);
        RefStates(*ref, key, num_aggs)[a].Add(v);
        break;
      }
      case 1: {
        const size_t a = rng.NextBounded(num_aggs);
        AggState state{RandomValue(rng),
                       static_cast<int64_t>(rng.NextBounded(9)),
                       RandomValue(rng), RandomValue(rng)};
        out->AccumulateState(key, a, state);
        RefStates(*ref, key, num_aggs)[a].Merge(state);
        break;
      }
      default: {
        std::vector<AggState> states(num_aggs);
        for (AggState& state : states) {
          state = AggState{RandomValue(rng),
                           static_cast<int64_t>(rng.NextBounded(9)),
                           RandomValue(rng), RandomValue(rng)};
        }
        out->AppendRun(1, key, states);
        auto& mine = RefStates(*ref, key, num_aggs);
        for (size_t a = 0; a < num_aggs; ++a) mine[a].Merge(states[a]);
        break;
      }
    }
  }
}

TEST(QueryResultDifferentialTest, FlatRunsMatchMapFoldBitwise) {
  Rng rng(0x5EED17);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t arity = rng.NextBounded(4);  // 0 = global aggregate
    const size_t num_aggs = 1 + rng.NextBounded(3);
    QueryResult merged(num_aggs);
    RefGroups ref;
    for (uint64_t p = 0, n = rng.NextBounded(12); p < n; ++p) {
      QueryResult partial(num_aggs);
      RefGroups partial_ref;
      RandomPartial(rng, arity, num_aggs, &partial, &partial_ref);
      if (rng.NextBounded(2) == 0) {
        ASSERT_TRUE(MatchesReference(partial, partial_ref)) << "trial " << trial;
      }
      merged.Merge(partial);
      RefMerge(ref, partial_ref);
      switch (rng.NextBounded(4)) {
        case 0:  // read mid-fold: compacts the pending runs
          ASSERT_TRUE(MatchesReference(merged, ref)) << "trial " << trial;
          break;
        case 1: {  // insert after merging: the runs fold first
          const QueryResult::GroupKey key = RandomKey(rng, arity, 6);
          const double v = RandomValue(rng);
          merged.Accumulate(key, 0, v);
          RefStates(ref, key, num_aggs)[0].Add(v);
          break;
        }
        default:
          break;
      }
    }
    ASSERT_TRUE(MatchesReference(merged, ref)) << "trial " << trial;
    // Value(): binary-search hits and misses, and a key of another arity.
    for (int probe = 0; probe < 8; ++probe) {
      const QueryResult::GroupKey key = RandomKey(rng, arity, 7);
      const size_t a = rng.NextBounded(num_aggs);
      auto got = merged.Value(key, a, AggOp::kSum);
      auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(SameBits(*got, it->second[a].Finalize(AggOp::kSum)));
      }
    }
    QueryResult::GroupKey longer = RandomKey(rng, arity + 1, 7);
    if (merged.num_groups() > 0) {
      EXPECT_EQ(merged.Value(longer, 0, AggOp::kSum).status().code(),
                StatusCode::kNotFound);
    }
  }
}

TEST(QueryResultDifferentialTest, EmptyAndSingleGroupResults) {
  QueryResult empty(2), merged(2);
  merged.Merge(empty);
  EXPECT_EQ(merged.num_groups(), 0u);
  EXPECT_EQ(merged.Value({}, 0, AggOp::kSum).status().code(),
            StatusCode::kNotFound);

  // Global aggregate: arity 0, one group, folded across partials.
  QueryResult a(1), b(1);
  a.Accumulate({}, 0, 2.0);
  b.Accumulate({}, 0, -0.0);
  merged = QueryResult(1);
  merged.Merge(a);
  merged.Merge(b);
  merged.Merge(empty);
  ASSERT_EQ(merged.num_groups(), 1u);
  EXPECT_EQ(merged.key_arity(), 0u);
  EXPECT_EQ(merged.group(0).states[0].count, 2);
  EXPECT_DOUBLE_EQ(*merged.Value({}, 0, AggOp::kSum), 2.0);
  EXPECT_TRUE(SameBits(*merged.Value({}, 0, AggOp::kMin), -0.0));
}

TEST(AggOpTest, Names) {
  EXPECT_EQ(AggOpName(AggOp::kSum), "SUM");
  EXPECT_EQ(AggOpName(AggOp::kCount), "COUNT");
  EXPECT_EQ(AggOpName(AggOp::kMin), "MIN");
  EXPECT_EQ(AggOpName(AggOp::kMax), "MAX");
  EXPECT_EQ(AggOpName(AggOp::kAvg), "AVG");
}

}  // namespace
}  // namespace scalewall::cubrick
