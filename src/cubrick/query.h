// Query AST and aggregation results.
//
// Cubrick powers "dashboards and interactive data exploration tools"
// (Section IV): the workload is filtered aggregations and group-bys over a
// single cube. Queries execute as one partial aggregation per table
// partition (pushed to the server storing it) plus a merge on the query
// coordinator (Section IV-C).

#ifndef SCALEWALL_CUBRICK_QUERY_H_
#define SCALEWALL_CUBRICK_QUERY_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "cubrick/schema.h"
#include "vec/group.h"

namespace scalewall::cubrick {

// Inclusive range filter on one dimension.
struct FilterRange {
  int dimension = 0;
  uint32_t lo = 0;
  uint32_t hi = std::numeric_limits<uint32_t>::max();
};

// Set-membership filter on one dimension (WHERE d IN (a, b, c)).
// Value lists are expected to be small (dashboard pick-lists); matching
// is a linear scan.
struct FilterIn {
  int dimension = 0;
  std::vector<uint32_t> values;
};

enum class AggOp { kSum, kCount, kMin, kMax, kAvg };

std::string_view AggOpName(AggOp op);

// One aggregation over a metric column.
struct Aggregation {
  int metric = 0;  // index into schema.metrics; ignored for kCount
  AggOp op = AggOp::kSum;
};

// A join against a replicated dimension table (Section II-B): the fact
// column `fact_dimension` is a key into `dimension_table`, whose
// attribute column `attribute` becomes usable for grouping and filtering.
// Rows whose key has no entry in the dimension table are dropped (inner
// join).
struct Join {
  int fact_dimension = 0;
  std::string dimension_table;
  int attribute = 0;
};

// Range filter on a joined attribute.
struct JoinFilter {
  int join = 0;  // index into Query::joins
  uint32_t lo = 0;
  uint32_t hi = std::numeric_limits<uint32_t>::max();
};

// A Cubrick query: SELECT group_by, aggs FROM table [JOIN dims] WHERE
// filters GROUP BY group_by [, joined attributes].
struct Query {
  std::string table;
  std::vector<FilterRange> filters;
  std::vector<FilterIn> in_filters;
  std::vector<int> group_by;  // dimension indices
  // Joins and their use: joined attributes referenced by group_by_joins
  // are appended to the group key after the plain dimensions; join
  // filters restrict rows by attribute value.
  std::vector<Join> joins;
  std::vector<int> group_by_joins;  // indices into joins
  std::vector<JoinFilter> join_filters;
  std::vector<Aggregation> aggregations;
  // Presentation: ORDER BY the order_by-th aggregation (or -1 for group
  // key order) and keep the first `limit` rows (0 = all). Applied on the
  // fully merged result — never pushed below the coordinator, so top-N is
  // exact.
  int order_by = -1;
  bool descending = true;
  uint32_t limit = 0;
  // End-to-end latency budget for this query (0 = use the proxy's
  // default, which may itself be unlimited). The proxy stamps the budget
  // on admission and decrements it per hop / attempt; coordinators stop
  // retrying and hedging once the remaining budget is exhausted and the
  // query fails with kDeadlineExceeded instead of blowing the SLA.
  SimDuration deadline = 0;

  // Checks column indices against `schema`.
  Status Validate(const TableSchema& schema) const;
};

// Mergeable aggregation state (sum+count+min+max covers all AggOps).
struct AggState {
  double sum = 0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    sum += v;
    ++count;
    if (v < min) min = v;
    if (v > max) max = v;
  }
  void Merge(const AggState& other) {
    sum += other.sum;
    count += other.count;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }
  double Finalize(AggOp op) const {
    switch (op) {
      case AggOp::kSum:
        return sum;
      case AggOp::kCount:
        return static_cast<double>(count);
      case AggOp::kMin:
        // A zero-count state never saw a value; its min/max are still
        // the ±infinity identities, which must not leak into results
        // (finalize to 0.0, the same convention kAvg uses).
        return count > 0 ? min : 0.0;
      case AggOp::kMax:
        return count > 0 ? max : 0.0;
      case AggOp::kAvg:
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    return 0.0;
  }
};

// Partial (or fully merged) result of a query: one AggState per
// aggregation, per group key. Group key = values of the group_by
// dimensions, in query order, then any joined attributes; a single
// empty key when there is no GROUP BY.
//
// Flat layout: keys of key_arity() values packed in one array, states
// num_aggregations() per group in another. Merge folds a partial of at
// least half this size in by one linear merge and appends a smaller one
// as a sorted run, which the next read folds by a stable sort; equal
// keys fold in merge order either way (float bits as folding one by
// one). Reads compact in place: read a result before threads share it.
class QueryResult {
 public:
  using GroupKey = std::vector<uint32_t>;

  // One group, viewed in place.
  struct Group {
    std::span<const uint32_t> key;     // key_arity() values
    std::span<const AggState> states;  // num_aggregations() states
  };

  explicit QueryResult(size_t num_aggregations = 0)
      : num_aggregations_(num_aggregations) {}

  // Accumulates one input value for aggregation `agg` under `key`.
  void Accumulate(const GroupKey& key, size_t agg, double value) {
    StatesFor(key)[agg].Add(value);
  }

  // Folds a fully accumulated state into aggregation `agg` under `key`.
  // Merging into the freshly created default state reproduces `state`
  // bit-for-bit (sums seeded at +0.0 never produce -0.0, min/max copy
  // verbatim), which is what lets the vectorized scan accumulate into
  // flat slot arrays and still emit byte-identical results.
  void AccumulateState(const GroupKey& key, size_t agg,
                       const AggState& state) {
    StatesFor(key)[agg].Merge(state);
  }

  // Appends `num_groups` groups (strictly ascending `keys`,
  // num_aggregations() `states` each), folding each state into a
  // default one as AccumulateState would.
  void AppendRun(size_t num_groups, std::span<const uint32_t> keys,
                 std::span<const AggState> states);

  // Merges a partial of the same query shape (else only its counters).
  void Merge(const QueryResult& other);

  // Folds pending inserts and runs into one ascending run (every read).
  void Compact() const;

  size_t num_groups() const {
    Compact();
    return num_groups_;
  }
  size_t num_aggregations() const { return num_aggregations_; }
  size_t key_arity() const { return arity_; }
  Group group(size_t g) const {
    Compact();
    return {{keys_.data() + g * arity_, arity_},
            {states_.data() + g * num_aggregations_, num_aggregations_}};
  }
  // Every group, in ascending key order.
  auto groups() const {
    return std::views::iota(size_t{0}, num_groups()) |
           std::views::transform([this](size_t g) { return group(g); });
  }
  // The compacted arrays, group-major.
  std::span<const uint32_t> keys() const {
    Compact();
    return keys_;
  }
  std::span<const AggState> states() const {
    Compact();
    return states_;
  }

  // Finalized value for (key, agg). Returns NOT_FOUND for missing keys.
  Result<double> Value(const GroupKey& key, size_t agg, AggOp op) const;

  // Rows scanned while producing this result (diagnostics).
  int64_t rows_scanned = 0;
  int64_t bricks_scanned = 0;
  int64_t bricks_pruned = 0;
  // Bricks counted in bricks_scanned whose compressed runs proved no
  // row matches, so they were never decompressed (RLE prefilter).
  int64_t bricks_rle_skipped = 0;

 private:
  AggState* StatesFor(std::span<const uint32_t> key);
  // Sorts by key (linearly for two runs split at `split` > 0), folding
  // equal keys in append order.
  void Fold(size_t split) const;

  size_t num_aggregations_;
  mutable size_t arity_ = 0;
  // Groups held, counting every pending copy of a key.
  mutable size_t num_groups_ = 0;
  mutable std::vector<uint32_t> keys_;
  mutable std::vector<AggState> states_;
  mutable bool sorted_ = true;  // keys_ strictly ascending
  // While Accumulate* inserts, the keys live here (slot == group).
  mutable std::optional<vec::GroupKeyIndex> index_;
};

// One presentation row: the group key plus every aggregation finalized.
struct ResultRow {
  QueryResult::GroupKey key;
  std::vector<double> values;
};

// Materializes a merged result into presentation rows, applying the
// query's ORDER BY / LIMIT (stable; ties broken by group key).
std::vector<ResultRow> MaterializeRows(const QueryResult& result,
                                       const Query& query);

// Canonical fingerprint of a query's *semantic* shape: every field that
// affects the result (table, filters, joins, group-by, aggregations,
// presentation) encoded into one deterministic string; `deadline` is
// deliberately excluded (it affects when a query gives up, never what
// it computes). Used verbatim as the result-cache key — exact string
// equality, so two queries share a cache entry iff they compute the
// same thing; no hash, no collision risk to the exact-correctness
// guarantee.
std::string CanonicalQueryFingerprint(const Query& query);

// Approximate in-memory cost of a result, in bytes — the charge a
// cached entry pays against the LRU bytes budget.
size_t ApproxResultBytes(const QueryResult& result);

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_QUERY_H_
