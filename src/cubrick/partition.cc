#include "cubrick/partition.h"

#include <algorithm>

#include "cubrick/vec_scan.h"
#include "exec/morsel.h"

namespace scalewall::cubrick {

uint64_t NextPartitionEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

// Granular-partitioning pruning, hoisted: a range filter [lo, hi] on
// dimension d admits exactly the bricks whose bucket on d lies in
// [lo / range, hi / range]; an IN filter admits the buckets its values
// fall into. Both translations depend only on the query, so they are
// computed once here instead of per brick per filter.
struct PruningPlan {
  struct RangeBuckets {
    int dimension;
    uint32_t lo;
    uint32_t hi;
  };
  struct InBuckets {
    int dimension;
    std::vector<uint32_t> buckets;  // sorted, deduplicated
  };
  std::vector<RangeBuckets> ranges;
  std::vector<InBuckets> ins;

  bool empty() const { return ranges.empty() && ins.empty(); }
};

PruningPlan BuildPruningPlan(const TableSchema& schema, const Query& query) {
  PruningPlan plan;
  plan.ranges.reserve(query.filters.size());
  for (const FilterRange& f : query.filters) {
    const uint32_t range = schema.dimensions[f.dimension].range_size;
    plan.ranges.push_back(
        PruningPlan::RangeBuckets{f.dimension, f.lo / range, f.hi / range});
  }
  plan.ins.reserve(query.in_filters.size());
  for (const FilterIn& f : query.in_filters) {
    const uint32_t range = schema.dimensions[f.dimension].range_size;
    PruningPlan::InBuckets in;
    in.dimension = f.dimension;
    in.buckets.reserve(f.values.size());
    for (uint32_t v : f.values) in.buckets.push_back(v / range);
    std::sort(in.buckets.begin(), in.buckets.end());
    in.buckets.erase(std::unique(in.buckets.begin(), in.buckets.end()),
                     in.buckets.end());
    plan.ins.push_back(std::move(in));
  }
  return plan;
}

// Decodes every per-dimension bucket digit of `id` in one mixed-radix
// walk (BrickBucket per filter would redo the walk each time).
void DecodeBrickDigits(const TableSchema& schema, BrickId id,
                       std::vector<uint32_t>& digits) {
  for (int d = static_cast<int>(schema.dimensions.size()) - 1; d >= 0; --d) {
    uint32_t buckets = schema.dimensions[d].num_buckets();
    digits[static_cast<size_t>(d)] = static_cast<uint32_t>(id % buckets);
    id /= buckets;
  }
}

// True if the brick's bucket combination cannot satisfy the plan.
// `digits` is caller-provided scratch (one allocation per query, not
// per brick).
bool PruneBrick(const TableSchema& schema, const PruningPlan& plan,
                BrickId id, std::vector<uint32_t>& digits) {
  if (plan.empty()) return false;
  DecodeBrickDigits(schema, id, digits);
  for (const PruningPlan::RangeBuckets& f : plan.ranges) {
    const uint32_t bucket = digits[static_cast<size_t>(f.dimension)];
    if (bucket < f.lo || bucket > f.hi) return true;
  }
  for (const PruningPlan::InBuckets& f : plan.ins) {
    const uint32_t bucket = digits[static_cast<size_t>(f.dimension)];
    if (!std::binary_search(f.buckets.begin(), f.buckets.end(), bucket)) {
      return true;
    }
  }
  return false;
}

// One span per scanned brick; the name is only built when tracing.
void BrickSpan(const obs::TraceContext& trace, SimTime time,
               const Brick& brick) {
  if (!trace.active()) return;
  obs::TraceContext span =
      trace.Child("brick " + std::to_string(brick.id()), time);
  span.Annotate("rows", std::to_string(brick.num_rows()));
  span.End(time);
}

// A scan kernel evaluates one query over row ranges of bricks: `Open`
// starts an accumulator on a QueryResult, `Scan` feeds it a row range
// and `Close` folds it into the result. `Skip` may prove that a brick
// holds no matching row; the brick then counts as scanned, rows and
// all, without being decompressed. The two drivers below run either
// kernel, so the serial and the morsel-parallel fold orders exist once.

// Vectorized kernel: the compiled plan, batch-at-a-time ScanRangeVec
// and the RLE prefilter on compressed bricks.
struct VecKernel {
  VecScanPlan plan;
  std::atomic<int64_t>* decompressions;

  VecExecState Open(QueryResult&) const { return VecExecState(plan); }
  void Scan(VecExecState& state, Brick& brick, size_t begin,
            size_t end) const {
    brick.ScanRangeVec(plan, state, decompressions, begin, end);
  }
  static void Close(const VecExecState& state, QueryResult& out) {
    state.Flush(out);
  }
  bool Skip(Brick& brick, QueryResult& result) const {
    if (!brick.CanSkipCompressed(plan)) return false;
    result.rows_scanned += static_cast<int64_t>(brick.num_rows());
    ++result.bricks_rle_skipped;
    return true;
  }
};

// Interpreted kernel, the row-at-a-time oracle: accumulates straight
// into the result it was opened on and never skips a brick.
struct InterpretedKernel {
  const TableSchema& schema;
  const Query& query;
  const JoinContext* join;
  std::atomic<int64_t>* decompressions;

  static QueryResult* Open(QueryResult& out) { return &out; }
  void Scan(QueryResult* out, Brick& brick, size_t begin, size_t end) const {
    brick.ScanRange(schema, query, *out, decompressions, join, begin, end);
  }
  static void Close(QueryResult*, QueryResult&) {}
  static bool Skip(Brick&, QueryResult&) { return false; }
};

// Serial scan: ONE accumulator takes every brick in brick-id order and
// is closed once (also on cancel, keeping the completed bricks), so
// each group's aggregation state receives the same Add() sequence
// under either kernel — byte-identical results, float effects included.
template <typename Kernel>
Status ScanSerial(const Kernel& kernel, const std::vector<Brick*>& bricks,
                  QueryResult& result, const exec::ExecOptions& exec,
                  const TablePartition& part) {
  auto acc = kernel.Open(result);
  for (size_t i = 0; i < bricks.size(); ++i) {
    if (exec.cancel != nullptr && exec.cancel->cancelled()) {
      if (exec.morsel_metrics != nullptr) {
        exec.morsel_metrics->skipped +=
            static_cast<int64_t>(bricks.size() - i);
      }
      Kernel::Close(acc, result);
      return Status::Cancelled("partition scan cancelled: " + part.table() +
                               "/" + std::to_string(part.partition()));
    }
    Brick& brick = *bricks[i];
    BrickSpan(exec.trace, exec.trace_time, brick);
    brick.Touch();
    ++result.bricks_scanned;
    if (!kernel.Skip(brick, result)) {
      kernel.Scan(acc, brick, 0, brick.num_rows());
    }
    if (exec.morsel_metrics != nullptr) ++exec.morsel_metrics->executed;
  }
  Kernel::Close(acc, result);
  return Status::Ok();
}

// Morsel-driven parallel scan. The decomposition (unskipped bricks in
// brick-id order, each split at fixed morsel_rows boundaries) and the
// merge order are functions of the data and the query only: each
// morsel closes its own accumulator into its own partial, and the
// partials are merged in (brick, range) order, so the combined result
// is identical for any worker count and any scheduling — see
// DESIGN.md § Execution subsystem.
template <typename Kernel>
Status ScanParallel(const Kernel& kernel, const std::vector<Brick*>& survivors,
                    QueryResult& result, const exec::ExecOptions& exec,
                    size_t num_aggregations) {
  std::vector<Brick*> bricks;
  std::vector<size_t> brick_rows;
  for (Brick* brick : survivors) {
    brick->Touch();  // once per brick per execution, never per morsel
    if (kernel.Skip(*brick, result)) continue;  // spawns no morsels
    bricks.push_back(brick);
    brick_rows.push_back(brick->num_rows());
  }
  const std::vector<exec::MorselRange> morsels =
      exec::SplitMorsels(brick_rows, exec.morsel_rows);
  std::vector<QueryResult> partials(morsels.size(),
                                    QueryResult(num_aggregations));
  SCALEWALL_RETURN_IF_ERROR(exec::ForEachMorsel(
      exec.pool, exec.num_workers, morsels.size(),
      [&](size_t i) {
        const exec::MorselRange& m = morsels[i];
        // Morsel spans are recorded from pool workers concurrently; the
        // sink serializes writes and exports canonicalize the order, so
        // the trace stays byte-stable regardless of scheduling.
        obs::TraceContext mspan =
            exec.trace.Child("morsel " + std::to_string(i), exec.trace_time);
        mspan.Annotate("brick", std::to_string(bricks[m.item]->id()));
        mspan.Annotate("rows", std::to_string(m.end - m.begin));
        mspan.End(exec.trace_time);
        auto acc = kernel.Open(partials[i]);
        kernel.Scan(acc, *bricks[m.item], m.begin, m.end);
        Kernel::Close(acc, partials[i]);
      },
      exec.cancel, exec.morsel_metrics, exec.sched_pool));
  for (const QueryResult& partial : partials) result.Merge(partial);
  result.bricks_scanned += static_cast<int64_t>(survivors.size());
  return Status::Ok();
}

}  // namespace

Status TablePartition::Insert(const Row& row) {
  if (row.dims.size() != schema_.dimensions.size()) {
    return Status::InvalidArgument("row dimension arity mismatch");
  }
  if (row.metrics.size() != schema_.metrics.size()) {
    return Status::InvalidArgument("row metric arity mismatch");
  }
  for (size_t d = 0; d < row.dims.size(); ++d) {
    if (row.dims[d] >= schema_.dimensions[d].cardinality) {
      return Status::InvalidArgument(
          "dimension value out of domain for " + schema_.dimensions[d].name);
    }
  }
  BrickId id = BrickIdForRow(schema_, row.dims);
  auto it = bricks_.find(id);
  if (it == bricks_.end()) {
    it = bricks_
             .emplace(id, Brick(id, schema_.dimensions.size(),
                                schema_.metrics.size()))
             .first;
  }
  if (schema_.rollup) {
    if (it->second.AppendOrMerge(row.dims, row.metrics)) ++num_rows_;
  } else {
    it->second.Append(row.dims, row.metrics);
    ++num_rows_;
  }
  // Even a rollup merge changed aggregate contents: always advance.
  epoch_.store(NextPartitionEpoch(), std::memory_order_release);
  return Status::Ok();
}

Status TablePartition::Execute(const Query& query, QueryResult& result,
                               const JoinContext* join,
                               const exec::ExecOptions* exec) {
  SCALEWALL_RETURN_IF_ERROR(query.Validate(schema_));
  if (!query.joins.empty()) {
    if (join == nullptr || join->tables.size() != query.joins.size()) {
      return Status::FailedPrecondition(
          "query joins replicated tables but no join context was "
          "provided");
    }
    for (const ReplicatedTable* table : join->tables) {
      if (table == nullptr) {
        return Status::FailedPrecondition("missing dimension table replica");
      }
    }
  }

  const PruningPlan plan = BuildPruningPlan(schema_, query);
  std::vector<uint32_t> digits(schema_.dimensions.size());
  std::vector<Brick*> survivors;
  survivors.reserve(bricks_.size());
  for (auto& [id, brick] : bricks_) {
    if (PruneBrick(schema_, plan, id, digits)) {
      ++result.bricks_pruned;
      continue;
    }
    survivors.push_back(&brick);
  }

  static const exec::ExecOptions kSerial;
  const exec::ExecOptions& opts = exec != nullptr ? *exec : kSerial;
  const bool parallel =
      opts.pool != nullptr && opts.num_workers > 1 && !survivors.empty();
  const auto run = [&](const auto& kernel) {
    return parallel ? ScanParallel(kernel, survivors, result, opts,
                                   query.aggregations.size())
                    : ScanSerial(kernel, survivors, result, opts, *this);
  };
  if (opts.scan_path == exec::ScanPath::kInterpreted) {
    return run(InterpretedKernel{schema_, query, join, &decompressions_});
  }
  return run(VecKernel{BuildVecScanPlan(schema_, query, join),
                       &decompressions_});
}

std::vector<Row> TablePartition::ExportRows() const {
  std::vector<Row> out;
  out.reserve(num_rows_);
  for (const auto& [id, brick] : bricks_) {
    brick.ExportRows(out);
  }
  return out;
}

std::vector<Brick*> TablePartition::BricksByHotness(bool coldest_first) {
  std::vector<Brick*> out;
  out.reserve(bricks_.size());
  for (auto& [id, brick] : bricks_) out.push_back(&brick);
  std::sort(out.begin(), out.end(), [coldest_first](Brick* a, Brick* b) {
    if (a->hotness() != b->hotness()) {
      return coldest_first ? a->hotness() < b->hotness()
                           : a->hotness() > b->hotness();
    }
    return a->id() < b->id();
  });
  return out;
}

void TablePartition::DecayHotness(Rng& rng, double p) {
  for (auto& [id, brick] : bricks_) {
    if (rng.NextBool(p)) brick.Decay();
  }
}

size_t TablePartition::MemoryFootprint() const {
  size_t bytes = 0;
  for (const auto& [id, brick] : bricks_) bytes += brick.MemoryFootprint();
  return bytes;
}

size_t TablePartition::DecompressedSize() const {
  size_t bytes = 0;
  for (const auto& [id, brick] : bricks_) bytes += brick.DecompressedSize();
  return bytes;
}

size_t TablePartition::SsdFootprint() const {
  size_t bytes = 0;
  for (const auto& [id, brick] : bricks_) bytes += brick.SsdFootprint();
  return bytes;
}

}  // namespace scalewall::cubrick
