// Compiled vectorized scan plans (the fused per-query pipeline).
//
// BuildVecScanPlan resolves a validated Query against the schema and the
// join context ONCE — filter bounds, IN probe structures (bitset or
// sorted vector), raw dimension-table attribute columns, the group-by
// slot layout, and per-aggregation specs — so the per-brick scan
// (Brick::ScanRangeVec) runs straight-line kernels over raw columns with
// no per-row dispatch, map lookups, or std::find.
//
// Group states live in a flat slot-addressed array:
//   * kGlobal: no GROUP BY — a single state row;
//   * kDirect: the product of group-column cardinalities fits
//     kMaxDirectSlots — the slot is the mixed-radix number of the group
//     values (no hashing, no key storage);
//   * kHash: otherwise — an open-addressing index assigns dense slots.
// A VecExecState accumulates any number of ScanRangeVec calls and is
// flushed into a QueryResult at the end as one key-sorted run
// (QueryResult::AppendRun), reproducing the interpreter's per-group
// Add() sequences bit-for-bit.

#ifndef SCALEWALL_CUBRICK_VEC_SCAN_H_
#define SCALEWALL_CUBRICK_VEC_SCAN_H_

#include <cstdint>
#include <vector>

#include "cubrick/query.h"
#include "cubrick/replicated_table.h"
#include "cubrick/schema.h"
#include "vec/filter.h"
#include "vec/group.h"
#include "vec/selvec.h"

namespace scalewall::cubrick {

struct VecScanPlan {
  // Direct (mixed-radix) grouping is capped so per-morsel dense state
  // arrays stay cheap to allocate and cache-resident; larger group
  // spaces fall back to hashed slots.
  static constexpr uint64_t kMaxDirectSlots = 4096;
  // Rows per processing chunk: selection vectors and slot arrays for one
  // chunk fit comfortably in L2.
  static constexpr size_t kChunkRows = 4096;

  struct RangeF {
    int dim;
    uint32_t lo;
    uint32_t hi;
  };
  struct InF {
    int dim;
    vec::InSet set;
  };
  // Joined-attribute filter with the dimension-table column resolved to
  // a raw pointer (nullptr when the attribute index is invalid — no row
  // can match, same as Attribute() returning kNoAttribute).
  struct JoinF {
    int fact_dim;
    const uint32_t* attr_col;
    uint32_t key_domain;
    uint32_t lo;
    uint32_t hi;
  };
  struct GroupJoin {
    int fact_dim;
    const uint32_t* attr_col;
    uint32_t key_domain;
  };
  struct AggSpec {
    int metric;     // ignored when is_count
    bool is_count;  // COUNT accumulates the constant 1.0
  };

  enum class GroupMode { kGlobal, kDirect, kHash };

  std::vector<RangeF> ranges;
  std::vector<InF> ins;
  std::vector<JoinF> join_filters;
  std::vector<int> group_dims;       // query.group_by
  std::vector<GroupJoin> group_joins;
  std::vector<AggSpec> aggs;

  GroupMode mode = GroupMode::kGlobal;
  vec::DirectLayout direct;  // valid in kDirect mode
  // Group-key arity: group_dims then group_joins, the interpreter's key
  // layout.
  size_t key_arity = 0;

  bool has_filters() const {
    return !ranges.empty() || !ins.empty() || !join_filters.empty();
  }
};

// Compiles `query` (already Validate()d; `join` aligned with query.joins
// when joins are present, exactly as TablePartition::Execute requires).
// The plan borrows raw attribute columns from `join`, so it must not
// outlive the join context.
VecScanPlan BuildVecScanPlan(const TableSchema& schema, const Query& query,
                             const JoinContext* join);

// Accumulation state + scratch buffers for one scan stream (one serial
// partition pass, or one morsel). Feed any number of ScanRangeVec calls,
// then Flush once.
struct VecExecState {
  explicit VecExecState(const VecScanPlan& plan);

  const VecScanPlan* plan;
  // Slot-major state array: states[slot * num_aggs + agg]. One row in
  // kGlobal mode; direct.total_slots rows in kDirect; grows with the
  // hash index in kHash.
  std::vector<AggState> states;
  vec::GroupKeyIndex hash;
  int64_t rows_scanned = 0;

  // Per-chunk scratch (reused across chunks and bricks).
  vec::SelVec sel;
  std::vector<uint32_t> slots;
  std::vector<std::vector<uint32_t>> gathered;  // one per group_join
  std::vector<uint32_t> key_scratch;

  // Emits every populated group into `result` (skipping untouched direct
  // slots — the interpreter only creates groups a surviving row reached)
  // and adds rows_scanned. Call exactly once per state.
  void Flush(QueryResult& result) const;
};

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_VEC_SCAN_H_
