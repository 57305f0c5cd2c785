#include "cubrick/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cubrick/coordinator.h"

namespace scalewall::cubrick {

std::string_view JoinStrategyName(JoinStrategy strategy) {
  switch (strategy) {
    case JoinStrategy::kAuto:
      return "auto";
    case JoinStrategy::kReplicated:
      return "replicated";
    case JoinStrategy::kBroadcast:
      return "broadcast";
    case JoinStrategy::kShuffle:
      return "shuffle";
  }
  return "?";
}

std::string_view MergeTopologyName(MergeTopology topology) {
  switch (topology) {
    case MergeTopology::kFlat:
      return "flat";
    case MergeTopology::kTree:
      return "tree";
  }
  return "?";
}

int TreeDepth(int leaves, int fanin) {
  if (leaves <= 1) return leaves;
  if (fanin < 2) return 1;
  int depth = 0;
  int width = leaves;
  while (width > 1) {
    width = width / fanin + (width % fanin != 0);  // ceil, no overflow
    ++depth;
  }
  return depth;
}

namespace {

// Formats a cost for the explain line ("-" when not evaluated).
void AppendCost(std::string& out, const char* label, double ms) {
  char buf[48];
  if (ms < 0) {
    std::snprintf(buf, sizeof(buf), "%s=-", label);
  } else {
    std::snprintf(buf, sizeof(buf), "%s=%.2f", label, ms);
  }
  if (!out.empty()) out += ' ';
  out += buf;
}

}  // namespace

ExecutionPlan BuildExecutionPlan(const RegionContext& ctx, const Query& query,
                                 cluster::ServerId coordinator,
                                 JoinStrategy requested,
                                 int merge_fanin_hint) {
  const PlannerOptions& opt = ctx.planner;
  ExecutionPlan plan;
  plan.query = query;
  plan.coordinator = coordinator;
  plan.shuffle_buckets = std::max(1, opt.shuffle_buckets);

  // --- stats the cost model runs on ---
  int partitions = 0;
  if (ctx.catalog != nullptr) {
    auto table = ctx.catalog->GetTable(query.table);
    if (table.ok()) partitions = static_cast<int>(table->num_partitions);
  }
  // Worst-case fan-out: one distinct host per partition.
  const int fanout = std::max(1, partitions);
  double dim_mb = 0.0;
  bool dims_known = !query.joins.empty() && ctx.catalog != nullptr;
  for (const Join& join : query.joins) {
    if (ctx.catalog == nullptr) break;
    auto dim = ctx.catalog->GetReplicatedTable(join.dimension_table);
    if (!dim.ok()) {
      dims_known = false;
      break;
    }
    dim_mb += static_cast<double>(dim->attributes.size()) *
              static_cast<double>(dim->key_cardinality) * sizeof(uint32_t) /
              1e6;
  }
  // One hop's cost: the region's modeled median. (The transport's
  // rtt_ms histogram records whole modeled calls — subquery chains,
  // attempts, two-hop epoch probes — so it is no per-hop price.)
  const double rtt_ms =
      static_cast<double>(ctx.network_model.options().median) / 1000.0;
  const double service_ms =
      static_cast<double>(ctx.latency_model.options().median) / 1000.0;
  const double per_partial_ms =
      static_cast<double>(opt.merge_cost_per_partial) / 1000.0;
  const double overhead_ms = static_cast<double>(ctx.merge_overhead) / 1000.0;

  // --- merge topology: flat vs k-ary tree over `partitions` partials ---
  plan.cost_flat_merge_ms = overhead_ms + partitions * per_partial_ms;
  const int fanin =
      merge_fanin_hint >= 2 ? merge_fanin_hint : opt.auto_tree_fanin;
  const int depth = TreeDepth(partitions, fanin);
  // Each tree level adds a merge point (overhead + fanin partials) and
  // a forwarding hop; the win is replacing the P-wide coordinator
  // fan-in with fanin-wide merges.
  plan.cost_tree_merge_ms =
      depth * (overhead_ms + fanin * per_partial_ms + rtt_ms);
  if (merge_fanin_hint == 1) {
    plan.merge_fanin = 0;  // pinned flat
  } else if (merge_fanin_hint >= 2) {
    plan.merge_fanin = merge_fanin_hint;  // pinned tree
  } else if (partitions > fanin &&
             plan.cost_tree_merge_ms < plan.cost_flat_merge_ms) {
    plan.merge_fanin = fanin;
  }
  const double merge_ms = plan.merge_fanin >= 2 ? plan.cost_tree_merge_ms
                                                : plan.cost_flat_merge_ms;

  // --- join strategy ---
  if (query.joins.empty()) {
    plan.join_strategy = JoinStrategy::kReplicated;
  } else {
    const double base_ms = rtt_ms + service_ms + merge_ms;
    plan.cost_replicated_ms =
        base_ms + dim_mb * opt.replica_mem_ms_per_mb_host * fanout;
    plan.cost_broadcast_ms = base_ms + dim_mb * opt.ship_ms_per_mb;
    const int buckets = std::min(plan.shuffle_buckets, fanout);
    plan.cost_shuffle_ms = base_ms + rtt_ms + buckets * opt.shuffle_map_ms;
    if (requested != JoinStrategy::kAuto) {
      plan.join_strategy = requested;
    } else if (!dims_known) {
      // Unknown dims: fall back to the seed path, whose execution
      // reports the precise catalog error.
      plan.join_strategy = JoinStrategy::kReplicated;
    } else if (plan.cost_shuffle_ms < plan.cost_replicated_ms &&
               plan.cost_shuffle_ms < plan.cost_broadcast_ms) {
      plan.join_strategy = JoinStrategy::kShuffle;
    } else if (plan.cost_broadcast_ms < plan.cost_replicated_ms) {
      plan.join_strategy = JoinStrategy::kBroadcast;
    } else {
      plan.join_strategy = JoinStrategy::kReplicated;
    }
  }

  std::string costs;
  AppendCost(costs, "repl", plan.cost_replicated_ms);
  AppendCost(costs, "bcast", plan.cost_broadcast_ms);
  AppendCost(costs, "shuf", plan.cost_shuffle_ms);
  AppendCost(costs, "flat", plan.cost_flat_merge_ms);
  AppendCost(costs, "tree", plan.cost_tree_merge_ms);
  plan.explain = "strategy=" + std::string(JoinStrategyName(plan.join_strategy)) +
                 " merge=" +
                 std::string(MergeTopologyName(plan.merge_topology())) +
                 (plan.merge_fanin >= 2
                      ? " fanin=" + std::to_string(plan.merge_fanin) +
                            " depth=" +
                            std::to_string(TreeDepth(partitions,
                                                     plan.merge_fanin))
                      : std::string()) +
                 " partitions=" + std::to_string(partitions) +
                 " dim_mb=" + std::to_string(dim_mb) + " costs_ms[" + costs +
                 "]";
  return plan;
}

Query MakeShuffleScanQuery(const Query& query) {
  Query stage1 = query;
  for (const Join& join : query.joins) {
    stage1.group_by.push_back(join.fact_dimension);
  }
  stage1.joins.clear();
  stage1.group_by_joins.clear();
  stage1.join_filters.clear();
  // Presentation is applied on the fully merged result only; clearing
  // it keeps the stage-1 fingerprint canonical across callers.
  stage1.order_by = -1;
  stage1.descending = true;
  stage1.limit = 0;
  return stage1;
}

uint32_t ShuffleBucket(std::span<const uint32_t> key, size_t num_join_keys,
                       uint32_t num_buckets) {
  if (num_buckets <= 1) return 0;
  // FNV-1a over the raw join-key values (the trailing num_join_keys
  // entries of the stage-1 group key), byte by byte, little-endian.
  uint64_t h = 1469598103934665603ull;
  const size_t start = key.size() >= num_join_keys ? key.size() - num_join_keys
                                                   : 0;
  for (size_t i = start; i < key.size(); ++i) {
    uint32_t v = key[i];
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return static_cast<uint32_t>(h % num_buckets);
}

Result<QueryResult> ApplyShuffleMapping(const Query& query,
                                        const JoinContext& dims,
                                        const QueryResult& bucket) {
  if (dims.tables.size() != query.joins.size()) {
    return Status::InvalidArgument(
        "shuffle mapping: join context does not back the query's joins");
  }
  for (const ReplicatedTable* table : dims.tables) {
    if (table == nullptr) {
      return Status::InvalidArgument(
          "shuffle mapping: missing dimension table replica");
    }
  }
  if (bucket.num_aggregations() > query.aggregations.size()) {
    return Status::InvalidArgument(
        "shuffle mapping: bucket carries more aggregations than the query");
  }
  const size_t plain = query.group_by.size();
  const size_t raw = query.joins.size();
  QueryResult mapped(query.aggregations.size());
  for (const auto& [key, states] : bucket.groups()) {
    if (key.size() != plain + raw) {
      return Status::InvalidArgument(
          "shuffle mapping: stage-1 group key has wrong arity");
    }
    // Inner-join semantics, exactly as brick.cc's replicated scan:
    // join_filters drop on kNoAttribute or out-of-range ...
    bool dropped = false;
    for (const JoinFilter& f : query.join_filters) {
      if (f.join < 0 || f.join >= static_cast<int>(raw)) {
        return Status::InvalidArgument("shuffle mapping: join filter index");
      }
      const uint32_t attr = dims.tables[f.join]->Attribute(
          key[plain + f.join], query.joins[f.join].attribute);
      if (attr == kNoAttribute || attr < f.lo || attr > f.hi) {
        dropped = true;
        break;
      }
    }
    if (dropped) continue;
    // ... and group_by_joins drop unset keys, appending the attribute
    // after the plain dimensions. Joins referenced by neither drop
    // nothing.
    QueryResult::GroupKey out_key(key.begin(), key.begin() + plain);
    for (int g : query.group_by_joins) {
      if (g < 0 || g >= static_cast<int>(raw)) {
        return Status::InvalidArgument("shuffle mapping: group_by_join index");
      }
      const uint32_t attr =
          dims.tables[g]->Attribute(key[plain + g], query.joins[g].attribute);
      if (attr == kNoAttribute) {
        dropped = true;
        break;
      }
      out_key.push_back(attr);
    }
    if (dropped) continue;
    for (size_t a = 0; a < states.size(); ++a) {
      mapped.AccumulateState(out_key, a, states[a]);
    }
  }
  return mapped;
}

}  // namespace scalewall::cubrick
