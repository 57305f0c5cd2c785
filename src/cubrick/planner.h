// Plan-then-execute: the cost-based distributed-query planner.
//
// The seed coordinator hardwired one topology: replicated-dim joins and
// a flat fan-in where every partition's partial funnels into a single
// coordinator merge. At thousands of shards the merge — not the scan —
// becomes the bottleneck, and a single join strategy wastes either
// memory (replicating large dimension tables to every host) or network
// (shipping them per query). Following Shark's argument that partial
// aggregation must happen *in* the cluster, and the sharding survey's
// point that placement-aware strategy choice beats any one hardwired
// topology, every query is now compiled into an explicit ExecutionPlan
// before execution:
//
//  * a join strategy — replicated (each host probes its resident dim
//    replicas), broadcast (the coordinator ships dim snapshots with the
//    subqueries), or shuffle (stage 1 scans group by the raw join keys
//    with no dim access; stage 2 re-buckets those groups across servers
//    that map keys to attributes; stage 3 merges the buckets) — chosen
//    by a cost model over table stats (partition count, dim-table
//    bytes, fan-out) and the region's modeled network hop;
//  * a merge topology — flat, or a k-ary aggregation tree where
//    servers merge AggState partials from their subtree before
//    forwarding, shrinking the coordinator's fan-in from P partials to
//    `merge_fanin` subtree results.
//
// Every topology merges partials in a fixed order (ascending partition,
// chunks contiguous), so tree-merge results are byte-identical to flat
// results for exact aggregation states (count/min/max always; sums
// whenever metric values are integral — the node dataset's `spend` is
// not, and its tree sums can differ from flat in the last bit; the
// float-associativity carve-out is documented in DESIGN.md §15).
//
// The planner is deliberately cheap and deterministic: no RNG, no
// catalogs mutated, a handful of multiplies — it runs once per attempt.

#ifndef SCALEWALL_CUBRICK_PLANNER_H_
#define SCALEWALL_CUBRICK_PLANNER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "common/status.h"
#include "common/time.h"
#include "cubrick/query.h"
#include "cubrick/replicated_table.h"
#include "exec/cancel.h"
#include "obs/trace.h"

namespace scalewall::cubrick {

struct RegionContext;  // coordinator.h (which includes this header)

// How joined dimension tables reach the fact-partition scans.
enum class JoinStrategy : uint8_t {
  kAuto = 0,        // request-side only: the planner picks
  kReplicated = 1,  // probe resident per-host replicas (the seed path)
  kBroadcast = 2,   // ship dim snapshots with each subquery
  kShuffle = 3,     // group by raw keys, re-bucket, map keys server-side
};

// How partial aggregation states reach the coordinator.
enum class MergeTopology : uint8_t {
  kFlat = 0,  // every partition's partial merges on the coordinator
  kTree = 1,  // k-ary: servers merge their subtree before forwarding
};

std::string_view JoinStrategyName(JoinStrategy strategy);
std::string_view MergeTopologyName(MergeTopology topology);

// Planner knobs, embedded in RegionContext. The defaults keep the seed
// behaviour exactly: merge_cost_per_partial = 0 makes flat and tree
// cost-equivalent (so kAuto stays flat), and the weight defaults pick
// kReplicated for the small dims every existing test uses.
struct PlannerOptions {
  // Modeled cost of folding ONE partial into an aggregation state at a
  // merge point (coordinator or interior tree node). This is the term
  // that makes the flat fan-in a wall: flat charges P * this on the
  // coordinator, a k-ary tree charges only fanin * this per node.
  // 0 (default) keeps the seed model (merge_overhead only).
  SimDuration merge_cost_per_partial = 0;
  // Shipping a dimension snapshot costs this per MB per query
  // (broadcast pays it; the sends pipeline, so it is charged once).
  double ship_ms_per_mb = 8.0;
  // Amortized per-query charge for keeping a dim replica resident on
  // every participating host (replicated pays dim_mb * this * fanout).
  double replica_mem_ms_per_mb_host = 0.05;
  // Per-bucket stage-2 cost of a shuffle (map raw keys -> attributes
  // and regroup).
  double shuffle_map_ms = 2.0;
  // Buckets a shuffle spreads stage-2 over (clamped to the fan-out at
  // execution time).
  int shuffle_buckets = 8;
  // Fan-in the planner evaluates (and uses) when it decides a tree
  // merge beats flat and the request didn't pin one.
  int auto_tree_fanin = 8;
};

// The compiled form of one distributed execution attempt: everything
// the coordinator needs, resolved — strategy never kAuto, costs filled
// for the audit trail. Immutable once built; the executor takes it by
// const reference.
struct ExecutionPlan {
  Query query;
  cluster::ServerId coordinator = 0;
  // Resolved join strategy (kReplicated when the query has no joins).
  JoinStrategy join_strategy = JoinStrategy::kReplicated;
  // 0 or 1 = flat merge; >= 2 = k-ary aggregation tree with this fanin.
  int merge_fanin = 0;
  // Stage-2 bucket count for kShuffle (clamped to fan-out at exec time).
  int shuffle_buckets = 0;
  // Modeled per-query costs the planner compared (milliseconds;
  // negative = not evaluated, e.g. join strategies for joinless
  // queries). Diagnostics only — never part of canonical output.
  double cost_replicated_ms = -1.0;
  double cost_broadcast_ms = -1.0;
  double cost_shuffle_ms = -1.0;
  double cost_flat_merge_ms = -1.0;
  double cost_tree_merge_ms = -1.0;
  // One-line human-readable summary ("strategy=shuffle fanin=4 ...").
  std::string explain;

  MergeTopology merge_topology() const {
    return merge_fanin >= 2 ? MergeTopology::kTree : MergeTopology::kFlat;
  }
};

// Per-attempt execution inputs that are not part of the plan: the
// region being executed in, the caller's RNG stream (draw order defines
// an experiment), budgets, tracing, cache routing. Bundling them ends
// the parameter-list creep the old ExecuteDistributed signature had.
struct ExecContext {
  RegionContext* region = nullptr;  // required
  Rng* rng = nullptr;  // required by the modeled environment
  SimDuration deadline_budget = 0;  // 0 = unlimited
  obs::TraceContext trace = {};
  SimTime dispatch_time = -1;  // -1 = the environment's current time
  cache::CachePolicy cache_policy = cache::CachePolicy::kDefault;
  const std::string* fingerprint = nullptr;  // precomputed, optional
  // Normalized pool path of the admitted ResourceClaim: rides every
  // subquery so servers charge scan work to the owning pool ("" = the
  // claim never passed admission; servers charge the default pool).
  std::string pool_path;
  // Per-query cancellation token (nullptr = none). Admission min-share
  // preemption flips it; the coordinator chains its per-attempt token to
  // it so in-flight morsel scans of a preempted best-effort query stop
  // at the next checkpoint.
  const exec::CancelToken* cancel = nullptr;
};

// Compiles `query` into an ExecutionPlan for an attempt coordinated by
// `coordinator` in `ctx`'s region. `requested` pins the join strategy
// (kAuto lets the cost model pick); `merge_fanin_hint` pins the merge
// topology (0 lets the model pick, 1 forces flat, >= 2 forces a k-ary
// tree with that fanin). Never fails: planning over an unknown table or
// missing dims degrades to a kReplicated/flat plan whose execution then
// reports the precise error — the planner stays off the error path.
ExecutionPlan BuildExecutionPlan(const RegionContext& ctx, const Query& query,
                                 cluster::ServerId coordinator,
                                 JoinStrategy requested = JoinStrategy::kAuto,
                                 int merge_fanin_hint = 0);

// Depth of a k-ary merge tree over `leaves` partials (1 = the
// coordinator merges every leaf directly, i.e. flat).
int TreeDepth(int leaves, int fanin);

// Width of each contiguous chunk when a range of `n` partials splits
// into at most `fanin` subtrees: ceil(n / fanin). Every layer that
// walks the merge tree — the executor's data pass, its modeled timing
// pass and the kTreeMergeRequest handler on remote aggregators — chunks
// with this one function, which is what keeps the tree shape (and hence
// the fixed ascending merge order) identical across processes.
inline int TreeChunkSize(int n, int fanin) {
  if (fanin < 2) return n;
  return n / fanin + (n % fanin != 0);  // ceil, without overflow
}

// --- shuffle-join building blocks (pure; shared by the coordinator
// --- and the server's stage-2 endpoint) ---

// The stage-1 scan query of a shuffle: joins stripped, each join's raw
// fact key appended to the group-by (after the plain dimensions, in
// join order), presentation (order/limit) cleared. Having no joins, it
// runs on the existing scan kernels — including vectorized — and is
// partial-cacheable with no dim epochs.
Query MakeShuffleScanQuery(const Query& query);

// Deterministic stage-2 bucket of one stage-1 group key: FNV-1a over
// the trailing `num_join_keys` raw key values. Identical across
// processes and platforms by construction (no std::hash).
uint32_t ShuffleBucket(std::span<const uint32_t> key, size_t num_join_keys,
                       uint32_t num_buckets);

// Stage 2: maps one bucket of stage-1 groups through the dimension
// tables, reproducing exactly the replicated scan's join semantics —
// join_filters drop groups whose attribute is kNoAttribute or outside
// [lo, hi]; group_by_joins drop kNoAttribute groups and append the
// attribute to the key after the plain dimensions; joins referenced by
// neither drop nothing. Scan counters are NOT carried (the coordinator
// restores stage-1 totals onto the final result). `dims.tables` must
// back `query.joins` 1:1.
Result<QueryResult> ApplyShuffleMapping(const Query& query,
                                        const JoinContext& dims,
                                        const QueryResult& bucket);

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_PLANNER_H_
