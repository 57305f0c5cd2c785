#include "cubrick/vec_scan.h"

#include <algorithm>

#include "cubrick/brick.h"
#include "cubrick/codec.h"
#include "vec/agg.h"

namespace scalewall::cubrick {

VecScanPlan BuildVecScanPlan(const TableSchema& schema, const Query& query,
                             const JoinContext* join) {
  VecScanPlan plan;
  plan.ranges.reserve(query.filters.size());
  for (const FilterRange& f : query.filters) {
    plan.ranges.push_back(VecScanPlan::RangeF{f.dimension, f.lo, f.hi});
  }
  plan.ins.reserve(query.in_filters.size());
  for (const FilterIn& f : query.in_filters) {
    const uint32_t domain = schema.dimensions[f.dimension].cardinality;
    plan.ins.push_back(
        VecScanPlan::InF{f.dimension, vec::InSet(f.values, domain)});
  }
  plan.join_filters.reserve(query.join_filters.size());
  for (const JoinFilter& f : query.join_filters) {
    const Join& j = query.joins[f.join];
    const ReplicatedTable* table = join->tables[f.join];
    plan.join_filters.push_back(VecScanPlan::JoinF{
        j.fact_dimension, table->column_data(j.attribute),
        table->key_cardinality(), f.lo, f.hi});
  }
  plan.group_dims = query.group_by;
  plan.group_joins.reserve(query.group_by_joins.size());
  for (int gj : query.group_by_joins) {
    const Join& j = query.joins[gj];
    const ReplicatedTable* table = join->tables[gj];
    plan.group_joins.push_back(VecScanPlan::GroupJoin{
        j.fact_dimension, table->column_data(j.attribute),
        table->key_cardinality()});
  }
  plan.aggs.reserve(query.aggregations.size());
  for (const Aggregation& a : query.aggregations) {
    plan.aggs.push_back(
        VecScanPlan::AggSpec{a.metric, a.op == AggOp::kCount});
  }
  plan.key_arity = plan.group_dims.size() + plan.group_joins.size();

  if (plan.key_arity == 0) {
    plan.mode = VecScanPlan::GroupMode::kGlobal;
    return plan;
  }
  std::vector<uint32_t> cards;
  cards.reserve(plan.key_arity);
  for (int d : plan.group_dims) {
    cards.push_back(schema.dimensions[d].cardinality);
  }
  for (size_t g = 0; g < plan.group_joins.size(); ++g) {
    const Join& j = query.joins[query.group_by_joins[g]];
    const ReplicatedTable* table = join->tables[query.group_by_joins[g]];
    // Attribute values are validated < cardinality at Set() time, so the
    // cardinality bounds the slot digit. An invalid attribute index
    // matches no rows at all; cardinality 1 keeps the layout buildable.
    const auto& attrs = table->attributes();
    const bool valid = j.attribute >= 0 &&
                       j.attribute < static_cast<int>(attrs.size());
    cards.push_back(valid ? attrs[static_cast<size_t>(j.attribute)].cardinality
                          : 1);
  }
  plan.mode = plan.direct.Build(cards, VecScanPlan::kMaxDirectSlots)
                  ? VecScanPlan::GroupMode::kDirect
                  : VecScanPlan::GroupMode::kHash;
  return plan;
}

VecExecState::VecExecState(const VecScanPlan& p)
    : plan(&p), hash(p.key_arity) {
  switch (p.mode) {
    case VecScanPlan::GroupMode::kGlobal:
      states.resize(p.aggs.size());
      break;
    case VecScanPlan::GroupMode::kDirect:
      states.resize(static_cast<size_t>(p.direct.total_slots) *
                    p.aggs.size());
      break;
    case VecScanPlan::GroupMode::kHash:
      break;  // grows with the key index
  }
  gathered.resize(p.group_joins.size());
  key_scratch.resize(p.key_arity);
}

void VecExecState::Flush(QueryResult& result) const {
  const size_t naggs = plan->aggs.size();
  const auto emit = [&](const uint32_t* key, size_t base) {
    result.AppendRun(1, {key, plan->key_arity}, {states.data() + base, naggs});
  };
  switch (plan->mode) {
    case VecScanPlan::GroupMode::kGlobal:
      // Every aggregation sees every surviving row, so agg 0's count
      // tells whether the (single, empty-keyed) group exists at all.
      if (!states.empty() && states[0].count > 0) emit(nullptr, 0);
      break;
    case VecScanPlan::GroupMode::kDirect: {
      // The last group column is the least-significant digit, so slots
      // ascend in key order: the groups append as one sorted run.
      std::vector<uint32_t> key(plan->key_arity);
      for (uint64_t slot = 0; slot < plan->direct.total_slots; ++slot) {
        const size_t base = static_cast<size_t>(slot) * naggs;
        if (states[base].count == 0) continue;
        plan->direct.DecodeSlot(slot, key.data());
        emit(key.data(), base);
      }
      break;
    }
    case VecScanPlan::GroupMode::kHash: {
      // Slots are in first-seen order; the result sorts them once, at
      // its first read.
      for (size_t slot = 0; slot < hash.num_slots(); ++slot) {
        emit(hash.KeyAt(static_cast<uint32_t>(slot)), slot * naggs);
      }
      break;
    }
  }
  result.rows_scanned += rows_scanned;
}

void Brick::ScanRangeVec(const VecScanPlan& plan, VecExecState& st,
                         std::atomic<int64_t>* decompressions,
                         size_t row_begin, size_t row_end) {
  EnsureUncompressed(decompressions);
  const size_t naggs = plan.aggs.size();
  // Dense fast path: with no predicates and no group joins every row
  // survives, so no selection vector is materialized at all.
  const bool dense = !plan.has_filters() && plan.group_joins.empty();

  for (size_t chunk = row_begin; chunk < row_end;
       chunk += VecScanPlan::kChunkRows) {
    const uint32_t b = static_cast<uint32_t>(chunk);
    const uint32_t e = static_cast<uint32_t>(
        std::min(row_end, chunk + VecScanPlan::kChunkRows));
    const size_t dense_n = e - b;

    if (dense) {
      switch (plan.mode) {
        case VecScanPlan::GroupMode::kGlobal:
          for (size_t a = 0; a < naggs; ++a) {
            const VecScanPlan::AggSpec& spec = plan.aggs[a];
            if (spec.is_count) {
              vec::AccumulateConstGlobal(st.states[a], dense_n, 1.0);
            } else {
              vec::AccumulateColumnGlobalDense(
                  st.states[a], b, dense_n, metrics_[spec.metric].data());
            }
          }
          continue;
        case VecScanPlan::GroupMode::kDirect:
          if (plan.key_arity == 1) {
            // The single group column's value IS the slot (stride 1).
            const uint32_t* slot_col = dims_[plan.group_dims[0]].data();
            for (size_t a = 0; a < naggs; ++a) {
              const VecScanPlan::AggSpec& spec = plan.aggs[a];
              if (spec.is_count) {
                vec::AccumulateConstBySlotColumn(st.states.data(), naggs, a,
                                                 slot_col, b, dense_n, 1.0);
              } else {
                vec::AccumulateColumnBySlotColumn(
                    st.states.data(), naggs, a, slot_col, b, dense_n,
                    metrics_[spec.metric].data());
              }
            }
          } else {
            st.slots.assign(dense_n, 0);
            for (size_t g = 0; g < plan.group_dims.size(); ++g) {
              vec::SlotAccumulateDense(dims_[plan.group_dims[g]].data(), b,
                                       dense_n, plan.direct.strides[g],
                                       st.slots.data());
            }
            for (size_t a = 0; a < naggs; ++a) {
              const VecScanPlan::AggSpec& spec = plan.aggs[a];
              if (spec.is_count) {
                vec::AccumulateConst(st.states.data(), naggs, a,
                                     st.slots.data(), dense_n, 1.0);
              } else {
                vec::AccumulateColumnDense(st.states.data(), naggs, a,
                                           st.slots.data(), b, dense_n,
                                           metrics_[spec.metric].data());
              }
            }
          }
          continue;
        case VecScanPlan::GroupMode::kHash:
          // Hash grouping stays scalar over the key assembly; fall
          // through to the selected path with an identity selection.
          break;
      }
    }

    // --- selection ---
    vec::SelVec& sel = st.sel;
    bool seeded = false;
    for (const VecScanPlan::RangeF& f : plan.ranges) {
      const uint32_t* col = dims_[f.dim].data();
      if (!seeded) {
        vec::SelRangeInit(col, b, e, f.lo, f.hi, sel);
        seeded = true;
      } else {
        vec::SelRangeRefine(col, f.lo, f.hi, sel);
      }
    }
    for (const VecScanPlan::InF& f : plan.ins) {
      const uint32_t* col = dims_[f.dim].data();
      if (!seeded) {
        vec::SelInInit(col, b, e, f.set, sel);
        seeded = true;
      } else {
        vec::SelInRefine(col, f.set, sel);
      }
    }
    if (!seeded) vec::SelIota(b, e, sel);
    for (const VecScanPlan::JoinF& f : plan.join_filters) {
      vec::SelJoinRangeRefine(dims_[f.fact_dim].data(), f.attr_col,
                              f.key_domain, kNoAttribute, f.lo, f.hi, sel);
    }

    // --- group-join attribute gather (drops unmatched keys: inner join)
    std::vector<std::vector<uint32_t>*> aligned;
    aligned.reserve(plan.group_joins.size());
    for (size_t g = 0; g < plan.group_joins.size(); ++g) {
      const VecScanPlan::GroupJoin& gj = plan.group_joins[g];
      vec::GatherJoinAttribute(dims_[gj.fact_dim].data(), gj.attr_col,
                               gj.key_domain, kNoAttribute, sel, aligned,
                               st.gathered[g]);
      aligned.push_back(&st.gathered[g]);
    }

    const size_t n = sel.size();
    if (n == 0) continue;

    // --- slots + accumulation ---
    if (plan.mode == VecScanPlan::GroupMode::kGlobal) {
      for (size_t a = 0; a < naggs; ++a) {
        const VecScanPlan::AggSpec& spec = plan.aggs[a];
        if (spec.is_count) {
          vec::AccumulateConstGlobal(st.states[a], n, 1.0);
        } else {
          vec::AccumulateColumnGlobal(st.states[a], sel.data(), n,
                                      metrics_[spec.metric].data());
        }
      }
      continue;
    }

    if (plan.mode == VecScanPlan::GroupMode::kDirect) {
      st.slots.assign(n, 0);
      for (size_t g = 0; g < plan.group_dims.size(); ++g) {
        vec::SlotAccumulate(dims_[plan.group_dims[g]].data(), sel.data(), n,
                            plan.direct.strides[g], st.slots.data());
      }
      for (size_t g = 0; g < plan.group_joins.size(); ++g) {
        vec::SlotAccumulateGathered(
            st.gathered[g].data(), n,
            plan.direct.strides[plan.group_dims.size() + g],
            st.slots.data());
      }
    } else {  // kHash
      st.slots.resize(n);
      const size_t ndims = plan.group_dims.size();
      for (size_t i = 0; i < n; ++i) {
        const uint32_t row = sel[i];
        for (size_t g = 0; g < ndims; ++g) {
          st.key_scratch[g] = dims_[plan.group_dims[g]][row];
        }
        for (size_t g = 0; g < plan.group_joins.size(); ++g) {
          st.key_scratch[ndims + g] = st.gathered[g][i];
        }
        st.slots[i] = st.hash.SlotFor(st.key_scratch.data());
      }
      if (st.states.size() < st.hash.num_slots() * naggs) {
        st.states.resize(st.hash.num_slots() * naggs);
      }
    }

    for (size_t a = 0; a < naggs; ++a) {
      const VecScanPlan::AggSpec& spec = plan.aggs[a];
      if (spec.is_count) {
        vec::AccumulateConst(st.states.data(), naggs, a, st.slots.data(), n,
                             1.0);
      } else {
        vec::AccumulateColumn(st.states.data(), naggs, a, st.slots.data(),
                              sel.data(), n, metrics_[spec.metric].data());
      }
    }
  }
  st.rows_scanned += static_cast<int64_t>(row_end - row_begin);
}

namespace {

// One RLE run cursor over an encoded dimension column.
struct RunCursor {
  const std::vector<uint8_t>* buf = nullptr;
  size_t pos = 0;
  int dim = 0;
  uint32_t value = 0;
  uint64_t run_left = 0;
  bool pass = false;
};

}  // namespace

bool Brick::CanSkipCompressed(const VecScanPlan& plan) {
  if (!plan.has_filters()) return false;
  std::lock_guard<std::mutex> lock(decompress_mu_);
  if (state_.load(std::memory_order_acquire) != BrickState::kCompressed) {
    return false;
  }

  // Does a row with value `v` on dimension `dim` pass every predicate
  // that touches that dimension? Exact, not conservative: range, IN and
  // join-attribute filters all test the dimension value alone.
  auto dim_passes = [&plan](int dim, uint32_t v) {
    for (const VecScanPlan::RangeF& f : plan.ranges) {
      if (f.dim == dim && (v < f.lo || v > f.hi)) return false;
    }
    for (const VecScanPlan::InF& f : plan.ins) {
      if (f.dim == dim && !f.set.Contains(v)) return false;
    }
    for (const VecScanPlan::JoinF& f : plan.join_filters) {
      if (f.fact_dim != dim) continue;
      const uint32_t attr = (f.attr_col != nullptr && v < f.key_domain)
                                ? f.attr_col[v]
                                : kNoAttribute;
      if (attr == kNoAttribute || attr < f.lo || attr > f.hi) return false;
    }
    return true;
  };

  // The dimensions that carry predicates, deduplicated.
  std::vector<int> filter_dims;
  for (const VecScanPlan::RangeF& f : plan.ranges) {
    filter_dims.push_back(f.dim);
  }
  for (const VecScanPlan::InF& f : plan.ins) filter_dims.push_back(f.dim);
  for (const VecScanPlan::JoinF& f : plan.join_filters) {
    filter_dims.push_back(f.fact_dim);
  }
  std::sort(filter_dims.begin(), filter_dims.end());
  filter_dims.erase(std::unique(filter_dims.begin(), filter_dims.end()),
                    filter_dims.end());

  std::vector<RunCursor> cursors;
  cursors.reserve(filter_dims.size());
  for (int dim : filter_dims) {
    if (dim < 0 || static_cast<size_t>(dim) >= encoded_dims_.size()) {
      return false;  // shouldn't happen for a validated query
    }
    RunCursor c;
    c.buf = &encoded_dims_[static_cast<size_t>(dim)];
    c.dim = dim;
    auto count = GetVarint64(*c.buf, c.pos);
    if (!count.ok() || count.value() != num_rows_) return false;
    cursors.push_back(c);
  }

  // Zip the runs: advance all cursors through aligned segments, testing
  // each dimension's predicates once per run instead of once per row.
  uint64_t rows_left = num_rows_;
  while (rows_left > 0) {
    uint64_t seg = rows_left;
    for (RunCursor& c : cursors) {
      if (c.run_left == 0) {
        auto value = GetVarint32(*c.buf, c.pos);
        if (!value.ok()) return false;
        auto run = GetVarint64(*c.buf, c.pos);
        if (!run.ok() || run.value() == 0 || run.value() > rows_left) {
          return false;
        }
        c.value = value.value();
        c.run_left = run.value();
        c.pass = dim_passes(c.dim, c.value);
      }
      seg = std::min(seg, c.run_left);
    }
    bool all_pass = true;
    for (const RunCursor& c : cursors) all_pass = all_pass && c.pass;
    if (all_pass) return false;  // this segment's rows survive the filters
    for (RunCursor& c : cursors) c.run_left -= seg;
    rows_left -= seg;
  }
  return true;  // no segment passes: zero rows can match
}

}  // namespace scalewall::cubrick
