#include "cubrick/query.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace scalewall::cubrick {

std::string_view AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum:
      return "SUM";
    case AggOp::kCount:
      return "COUNT";
    case AggOp::kMin:
      return "MIN";
    case AggOp::kMax:
      return "MAX";
    case AggOp::kAvg:
      return "AVG";
  }
  return "?";
}

Status Query::Validate(const TableSchema& schema) const {
  int num_dims = static_cast<int>(schema.dimensions.size());
  int num_metrics = static_cast<int>(schema.metrics.size());
  for (const FilterRange& f : filters) {
    if (f.dimension < 0 || f.dimension >= num_dims) {
      return Status::InvalidArgument("filter on unknown dimension index " +
                                     std::to_string(f.dimension));
    }
    if (f.lo > f.hi) {
      return Status::InvalidArgument("filter with lo > hi");
    }
  }
  for (const FilterIn& f : in_filters) {
    if (f.dimension < 0 || f.dimension >= num_dims) {
      return Status::InvalidArgument("IN filter on unknown dimension index " +
                                     std::to_string(f.dimension));
    }
    if (f.values.empty()) {
      return Status::InvalidArgument("IN filter with empty value list");
    }
  }
  for (int d : group_by) {
    if (d < 0 || d >= num_dims) {
      return Status::InvalidArgument("group-by on unknown dimension index " +
                                     std::to_string(d));
    }
  }
  if (aggregations.empty()) {
    return Status::InvalidArgument("query needs at least one aggregation");
  }
  for (const Aggregation& a : aggregations) {
    if (a.op < AggOp::kSum || a.op > AggOp::kAvg) {
      return Status::InvalidArgument(
          "unknown aggregation op " + std::to_string(static_cast<int>(a.op)));
    }
    if (a.op != AggOp::kCount &&
        (a.metric < 0 || a.metric >= num_metrics)) {
      return Status::InvalidArgument("aggregation on unknown metric index " +
                                     std::to_string(a.metric));
    }
  }
  if (order_by >= static_cast<int>(aggregations.size())) {
    return Status::InvalidArgument("ORDER BY aggregation index out of range");
  }
  for (const Join& j : joins) {
    if (j.fact_dimension < 0 || j.fact_dimension >= num_dims) {
      return Status::InvalidArgument("join on unknown fact dimension " +
                                     std::to_string(j.fact_dimension));
    }
    if (j.dimension_table.empty()) {
      return Status::InvalidArgument("join without a dimension table");
    }
  }
  for (int j : group_by_joins) {
    if (j < 0 || j >= static_cast<int>(joins.size())) {
      return Status::InvalidArgument("group-by on unknown join index " +
                                     std::to_string(j));
    }
  }
  for (const JoinFilter& f : join_filters) {
    if (f.join < 0 || f.join >= static_cast<int>(joins.size())) {
      return Status::InvalidArgument("filter on unknown join index " +
                                     std::to_string(f.join));
    }
    if (f.lo > f.hi) {
      return Status::InvalidArgument("join filter with lo > hi");
    }
  }
  return Status::Ok();
}

std::vector<ResultRow> MaterializeRows(const QueryResult& result,
                                       const Query& query) {
  std::vector<ResultRow> rows;
  rows.reserve(result.num_groups());
  for (const auto& [key, states] : result.groups()) {
    ResultRow row;
    row.key.assign(key.begin(), key.end());
    row.values.reserve(query.aggregations.size());
    for (size_t a = 0; a < query.aggregations.size(); ++a) {
      double v = a < states.size()
                     ? states[a].Finalize(query.aggregations[a].op)
                     : 0.0;
      row.values.push_back(v);
    }
    rows.push_back(std::move(row));
  }
  if (query.order_by >= 0) {
    size_t agg = static_cast<size_t>(query.order_by);
    bool desc = query.descending;
    std::stable_sort(
        rows.begin(), rows.end(),
        [agg, desc](const ResultRow& a, const ResultRow& b) {
          // NaN finalized values (e.g. a NaN metric summed) would make
          // the raw comparisons non-strict-weak — UB in
          // stable_sort. Order NaN after every number deterministically,
          // ties (including NaN vs NaN) by group key.
          const double av = a.values[agg];
          const double bv = b.values[agg];
          const bool an = std::isnan(av);
          const bool bn = std::isnan(bv);
          if (an != bn) return bn;  // the non-NaN row sorts first
          if (!an && av != bv) return desc ? av > bv : av < bv;
          return a.key < b.key;
        });
  }
  if (query.limit > 0 && rows.size() > query.limit) {
    rows.resize(query.limit);
  }
  return rows;
}

std::string CanonicalQueryFingerprint(const Query& query) {
  std::string fp;
  fp.reserve(64 + query.table.size());
  // Length-prefix the (only free-form) table name so no table name can
  // collide with a different query's encoding — e.g. table "t|f:1,2,3"
  // versus a filtered query on table "t".
  fp += std::to_string(query.table.size());
  fp += ':';
  fp += query.table;
  for (const FilterRange& f : query.filters) {
    fp += "|f:" + std::to_string(f.dimension) + "," + std::to_string(f.lo) +
          "," + std::to_string(f.hi);
  }
  for (const FilterIn& f : query.in_filters) {
    fp += "|in:" + std::to_string(f.dimension) + "=";
    for (uint32_t v : f.values) fp += std::to_string(v) + "+";
  }
  fp += "|g:";
  for (int d : query.group_by) fp += std::to_string(d) + ",";
  for (const Join& j : query.joins) {
    // Dimension-table names are free-form too: length-prefixed like the
    // fact table.
    fp += "|j:" + std::to_string(j.fact_dimension) + "," +
          std::to_string(j.dimension_table.size()) + ":" +
          j.dimension_table + "," + std::to_string(j.attribute);
  }
  fp += "|gj:";
  for (int j : query.group_by_joins) fp += std::to_string(j) + ",";
  for (const JoinFilter& f : query.join_filters) {
    fp += "|jf:" + std::to_string(f.join) + "," + std::to_string(f.lo) + "," +
          std::to_string(f.hi);
  }
  fp += "|a:";
  for (const Aggregation& a : query.aggregations) {
    // COUNT ignores its metric index, so COUNT(m0) and COUNT(m1) compute
    // the same thing — normalize to 0 so they share a cache entry.
    const int metric = a.op == AggOp::kCount ? 0 : a.metric;
    fp += std::to_string(metric) + std::string(AggOpName(a.op)) + ",";
  }
  fp += "|ob:" + std::to_string(query.order_by) +
        (query.descending ? "d" : "a") + std::to_string(query.limit);
  return fp;
}

size_t ApproxResultBytes(const QueryResult& result) {
  // The charge of the former map layout: an 88-byte result plus, per
  // group, a map node, its key vector and its AggState vector. Keeping
  // it keeps every cache budget, eviction and hit ratio where it was.
  return 88 + result.num_groups() *
                  (64 + result.key_arity() * sizeof(uint32_t) +
                   result.num_aggregations() * sizeof(AggState));
}

namespace {

bool KeyLess(const uint32_t* a, const uint32_t* b, size_t arity) {
  return std::lexicographical_compare(a, a + arity, b, b + arity);
}

}  // namespace

AggState* QueryResult::StatesFor(std::span<const uint32_t> key) {
  if (!index_) {
    // Start inserting: index the held groups (slot g == group g).
    Compact();
    if (num_groups_ == 0) arity_ = key.size();
    index_.emplace(arity_);
    for (size_t g = 0; g < num_groups_; ++g) {
      index_->SlotFor(keys_.data() + g * arity_);
    }
    keys_.clear();
    sorted_ = false;
  }
  const size_t slot = index_->SlotFor(key.data());
  if (slot == num_groups_) states_.resize(++num_groups_ * num_aggregations_);
  return states_.data() + slot * num_aggregations_;
}

void QueryResult::AppendRun(size_t num_groups, std::span<const uint32_t> keys,
                            std::span<const AggState> states) {
  if (num_groups == 0) return;
  if (index_) Compact();
  if (num_groups_ == 0) {
    arity_ = keys.size() / num_groups;
  } else if (!KeyLess(keys_.data() + keys_.size() - arity_, keys.data(),
                      arity_)) {
    sorted_ = false;
  }
  keys_.insert(keys_.end(), keys.begin(), keys.end());
  for (const AggState& state : states) states_.emplace_back().Merge(state);
  num_groups_ += num_groups;
}

void QueryResult::Merge(const QueryResult& other) {
  if (num_aggregations_ == 0) num_aggregations_ = other.num_aggregations_;
  other.Compact();
  if (other.num_aggregations_ == num_aggregations_ &&
      (num_groups_ == 0 || other.arity_ == arity_)) {
    // A partial at least half this size folds in now (one linear merge
    // keeps an overlapping fan-in small); a smaller one waits as a run.
    const size_t split = num_groups_;
    const bool now = sorted_ && !index_ && other.num_groups_ * 2 >= split;
    AppendRun(other.num_groups_, other.keys_, other.states_);
    if (now && !sorted_) Fold(split);
  }
  rows_scanned += other.rows_scanned;
  bricks_scanned += other.bricks_scanned;
  bricks_pruned += other.bricks_pruned;
  bricks_rle_skipped += other.bricks_rle_skipped;
}

void QueryResult::Compact() const {
  if (index_) {
    // The index holds the inserted keys contiguously, in slot order.
    keys_.assign(index_->KeyAt(0), index_->KeyAt(0) + num_groups_ * arity_);
    index_.reset();
  }
  if (!sorted_) Fold(0);
}

void QueryResult::Fold(size_t split) const {
  const size_t ar = arity_;
  const size_t na = num_aggregations_;
  const auto key = [&](size_t g) { return keys_.data() + g * ar; };
  const auto less = [&](uint32_t a, uint32_t b) {
    return KeyLess(key(a), key(b), ar);
  };
  // Stable: equal keys stay in append order, so each folds in the order
  // its partial was merged.
  std::vector<uint32_t> order(num_groups_);
  std::iota(order.begin(), order.end(), 0u);
  if (split > 0) {
    std::inplace_merge(order.begin(), order.begin() + split, order.end(),
                       less);
  } else {
    std::stable_sort(order.begin(), order.end(), less);
  }
  std::vector<uint32_t> keys(keys_.size());
  std::vector<AggState> states(states_.size());
  size_t n = 0;
  for (uint32_t g : order) {
    const AggState* in = states_.data() + size_t{g} * na;
    if (n > 0 && std::equal(key(g), key(g) + ar, keys.data() + (n - 1) * ar)) {
      AggState* out = states.data() + (n - 1) * na;
      for (size_t a = 0; a < na; ++a) out[a].Merge(in[a]);
    } else {
      std::copy_n(key(g), ar, keys.data() + n * ar);
      std::copy_n(in, na, states.data() + n * na);
      ++n;
    }
  }
  keys.resize(n * ar);
  states.resize(n * na);
  num_groups_ = n;
  keys_ = std::move(keys);
  states_ = std::move(states);
  sorted_ = true;
}

Result<double> QueryResult::Value(const GroupKey& key, size_t agg,
                                  AggOp op) const {
  const auto all = groups();
  const auto it = std::ranges::lower_bound(
      all, key, std::ranges::lexicographical_compare, &Group::key);
  if (it == all.end() || !std::ranges::equal((*it).key, key)) {
    return Status::NotFound("group key not present in result");
  }
  if (agg >= num_aggregations_) {
    return Status::InvalidArgument("aggregation index out of range");
  }
  return (*it).states[agg].Finalize(op);
}

}  // namespace scalewall::cubrick
