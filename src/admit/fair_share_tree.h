// Hierarchical fair-share pool tree (scalewall::admit).
//
// Generalizes the flat per-tenant weighted-fair slice of DESIGN.md §11
// into a pool *hierarchy* (org → tenant → query class), modeled on
// ytsaurus's fair_share_tree scheduler: every pool carries a weight
// (relative to its siblings), a min-share (a guaranteed fraction of the
// root capacity, funded before anything else) and a max-share (a hard
// cap as a fraction of the root capacity). Demand-aware fair shares are
// computed top-down each scheduling tick: at every node the children's
// min-share guarantees are funded first (scaled down proportionally if
// they oversubscribe the node's allocation), and the remainder is
// poured by weighted max-min water-filling (admit.h's
// WeightedFairShares) over the children's residual demand — so capacity
// an idle subtree does not want flows to its siblings, but never past a
// max-share cap.
//
// The tree is pure accounting + arithmetic: it draws no randomness,
// performs no I/O and never touches a clock, so the AdmissionController
// driving it stays byte-invisible when it is not shedding. All methods
// are thread-safe (one internal mutex); the usage charge-back entry
// points are called from exec-pool workers concurrently with Admit().
//
// Pool paths are '/'-separated ("acme/dashboards/interactive"):
//  * empty segments are stripped ("a//b" == "a/b");
//  * depth is capped at kMaxPoolDepth segments (deeper paths are
//    truncated — the extra segments are query-class noise, not pools);
//  * an empty path (or one that normalizes to empty: "", "/", "//")
//    falls back to the shared kDefaultPool leaf;
//  * unknown paths are materialized on first sight as ephemeral pools
//    with the default weight (or the submission's weight_hint) and no
//    guarantees — exactly how unknown tenants behaved in the flat
//    design — until kMaxPools nodes exist; a new path past that cap
//    charges kDefaultPool (configured pools are always materialized).

#ifndef SCALEWALL_ADMIT_FAIR_SHARE_TREE_H_
#define SCALEWALL_ADMIT_FAIR_SHARE_TREE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace scalewall::admit {

// Deepest pool nesting honored (org / tenant / class / subclass).
inline constexpr int kMaxPoolDepth = 4;
// The leaf empty pool paths resolve to.
inline constexpr std::string_view kDefaultPool = "default";
// Pool nodes Resolve materializes at most (clients name their pools).
inline constexpr size_t kMaxPools = 1024;

// Per-pool scheduling parameters. A pool with min_share > 0 is a
// *guaranteed* pool: starving it of its entitlement triggers preemption
// of best-effort work; a pool with min_share == 0 is best-effort.
struct PoolConfig {
  // Weight relative to sibling pools in the water-filling pour.
  double weight = 1.0;
  // Guaranteed fraction of the root capacity (0 = no guarantee). Funded
  // before any weighted pour; oversubscribed guarantees scale down
  // proportionally.
  double min_share = 0.0;
  // Hard cap as a fraction of the root capacity (1 = uncapped).
  double max_share = 1.0;
  // Hard cap on concurrently admitted queries charged to this pool
  // (0 = only the fair-share mechanism limits it).
  int max_concurrency = 0;
  // Hard cap on this pool's in-flight bytes (0 = unlimited).
  size_t max_inflight_bytes = 0;
};

// Splits and normalizes a pool path: empty segments stripped, depth
// capped at kMaxPoolDepth. An empty result means "the default pool".
std::vector<std::string> ParsePoolPath(std::string_view path);
// The canonical '/'-joined form ("default" for empty paths).
std::string NormalizePoolPath(std::string_view path);

class FairShareTree {
 public:
  // Identifies one pool node. Stable for the tree's lifetime; 0 is the
  // root (never a leaf queries land on).
  using PoolId = uint32_t;

  // `default_weight` applies to pools materialized without an explicit
  // ConfigurePool (and without a weight_hint).
  explicit FairShareTree(double default_weight = 1.0);

  FairShareTree(const FairShareTree&) = delete;
  FairShareTree& operator=(const FairShareTree&) = delete;

  // (Re)configures the pool at `path`, creating it (and any missing
  // ancestors, with default config) as needed.
  void ConfigurePool(std::string_view path, const PoolConfig& config);

  // Resolves `path` to its pool, materializing missing nodes. A
  // positive `weight_hint` seeds the weight of a pool materialized by
  // this call (explicit configuration always wins and is never
  // overwritten by hints).
  PoolId Resolve(std::string_view path, double weight_hint = 0.0);

  std::string PoolPath(PoolId pool) const;
  PoolConfig Config(PoolId pool) const;
  // Whether the pool carries a min-share guarantee (itself or through
  // any ancestor) — guaranteed pools are never preemption victims.
  bool HasGuarantee(PoolId pool) const;

  // --- accounting (driven by the admission controller / servers) ---

  void OnAdmit(PoolId pool, size_t bytes);
  void OnReject(PoolId pool);
  // Releases one admitted query's slot and bytes (completion, lazy
  // reservation expiry, or preemption — pass preempted=true for the
  // latter so victim counts are kept).
  void OnRelease(PoolId pool, size_t bytes, bool preempted = false);
  // Virtual (sim-time) service charged on completion — deterministic,
  // safe to export as a metric.
  void ChargeService(PoolId pool, SimDuration service);
  // Measured wall-clock scan time charged back from the exec layer.
  // Deliberately kept out of the metrics registry (same rule as
  // CubrickServer::Stats::scan_micros): surfaced via Snapshot() only.
  void ChargeScanMicros(PoolId pool, int64_t micros);
  void ChargeScanMicros(std::string_view path, int64_t micros);

  int running(PoolId pool) const;
  size_t inflight_bytes(PoolId pool) const;

  // --- the scheduling tick ---

  struct PoolDemand {
    PoolId pool = 0;
    double demand = 0.0;  // slots wanted: running + queued (+1 arrival)
  };
  // Computes every pool's demand-aware fair share of `capacity` slots
  // top-down (min-shares funded first, weighted water-filling over
  // residual demand, max-share caps). Pools absent from `demands` have
  // zero demand and receive nothing.
  void Recompute(double capacity, const std::vector<PoolDemand>& demands);

  // The pool's share from the last Recompute (0 before the first).
  double FairShare(PoolId pool) const;
  // The pool's guaranteed slots at `capacity`: min_share * capacity.
  double MinShareSlots(PoolId pool, double capacity) const;
  // Whether the pool is starved of its guarantee: it has a min-share
  // and runs strictly fewer slots than min_share * capacity. The
  // controller preempts best-effort work when a starved pool's arrival
  // finds every slot busy.
  bool Starved(PoolId pool, double capacity) const;

  // Strict hierarchical weight-proportional slice of `capacity` among
  // *active* pools (running > 0, or the requester's own branch): the
  // wait-queue entitlement check. Deliberately not demand-capped —
  // same rationale as the flat design (DESIGN.md §11): re-pouring a
  // momentarily under-share pool's slack lets an equal-rate peer camp
  // above its entitlement. The slice is floored at the pool's
  // guaranteed share and capped by max-share (its own and every
  // ancestor's).
  double QueueSlice(PoolId pool, double capacity) const;

  // --- introspection (admin /pools endpoint, shell, tests) ---

  struct PoolSnapshot {
    std::string path;  // "" for the root
    int depth = 0;     // 0 for the root
    bool is_leaf = false;
    double weight = 1.0;
    double min_share = 0.0;
    double max_share = 1.0;
    double demand = 0.0;      // from the last Recompute
    double fair_share = 0.0;  // from the last Recompute (direct share)
    int running = 0;
    size_t inflight_bytes = 0;
    int64_t admitted = 0;
    int64_t rejected = 0;
    int64_t completed = 0;
    int64_t preempted = 0;        // times this pool's work was preempted
    int64_t service_micros = 0;   // virtual (sim-time) service charged
    int64_t scan_micros = 0;      // wall-clock exec charge-back
  };
  // Every pool in deterministic pre-order (children in name order),
  // root first.
  std::vector<PoolSnapshot> Snapshot() const;
  // One pool's snapshot (a default one for an unknown id).
  PoolSnapshot Snapshot(PoolId pool) const;

  size_t num_pools() const;       // root included
  int64_t preemptions() const;    // total victims across all pools

 private:
  struct Node {
    std::string name;
    std::string path;  // "" for root
    int depth = 0;
    PoolId parent = 0;
    std::map<std::string, PoolId> children;  // name-ordered: determinism
    PoolConfig config;
    bool configured = false;  // explicit ConfigurePool (hints never win)

    // Accounting.
    int running = 0;  // direct (this node's own tickets), not subtree
    size_t inflight_bytes = 0;
    int64_t admitted = 0;
    int64_t rejected = 0;
    int64_t completed = 0;
    int64_t preempted = 0;
    int64_t service_micros = 0;
    int64_t scan_micros = 0;

    // Scratch for Recompute / QueueSlice.
    double demand = 0.0;          // direct demand set by the tick
    double subtree_demand = 0.0;  // aggregated, max-share-capped
    double fair_share = 0.0;      // direct share after the pour
    double subtree_share = 0.0;   // allocation handed to this subtree
  };

  // `capped`: new paths past kMaxPools resolve to kDefaultPool.
  PoolId ResolveLocked(std::string_view path, double weight_hint,
                       bool capped = true);
  PoolSnapshot SnapshotLocked(PoolId id) const;
  // Distributes node `id`'s subtree_share among its children (plus its
  // own direct demand) per min-share / weight / max-share.
  void DistributeLocked(PoolId id, double capacity);
  // True when the subtree under `id` holds running work or contains
  // `requester`.
  bool ActiveLocked(PoolId id, PoolId requester) const;

  mutable std::mutex mu_;
  double default_weight_;
  // nodes_[0] is the root; parents always precede children (created
  // top-down), so reverse iteration is a bottom-up pass.
  std::vector<Node> nodes_;
  double last_capacity_ = 0.0;
  int64_t preemptions_ = 0;
};

}  // namespace scalewall::admit

#endif  // SCALEWALL_ADMIT_FAIR_SHARE_TREE_H_
