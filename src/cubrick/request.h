// QueryRequest: the submission envelope of the redesigned query API.
//
// The original entry points took a bare Query plus a preferred region;
// every new per-query knob (deadline budgets, tracing, cache policy)
// would have widened those signatures again. QueryRequest bundles the
// query with its per-submission overrides; CubrickProxy::Submit and
// core::Deployment::Query take it directly (the transitional
// Submit(Query, region) shims were removed once every call site
// migrated).
//
// ResourceClaim is the scheduling half of the envelope: which pool of
// the hierarchical fair-share tree this submission is charged to, its
// priority tier, and an advisory weight for pools materialized on first
// sight. It replaced the flat `tenant_id` + `priority` pair when
// admission moved to admit::FairShareTree — a tenant is now just one
// level of the pool path.

#ifndef SCALEWALL_CUBRICK_REQUEST_H_
#define SCALEWALL_CUBRICK_REQUEST_H_

#include <string>
#include <utility>

#include "admit/admit.h"
#include "cache/cache.h"
#include "cluster/cluster.h"
#include "common/time.h"
#include "cubrick/planner.h"
#include "cubrick/query.h"

namespace scalewall::cubrick {

// What this submission asks of the scheduler: the pool it is charged
// to, its tier, and an advisory weight. Rides the wire inside the
// client-query envelope (versioned codec; see cubrick/wire.h).
struct ResourceClaim {
  // '/'-separated pool path, org → tenant → query class (e.g.
  // "acme/dashboards/interactive"). "" = the shared default pool.
  // Normalized per admit/fair_share_tree.h (empty segments stripped,
  // depth capped).
  std::string pool_path;
  // Scheduling tier: under backend overload best-effort sheds first,
  // then batch; interactive is shed last. Best-effort is also the only
  // tier min-share preemption may cancel (scalewall::admit).
  admit::Priority priority = admit::Priority::kInteractive;
  // Advisory weight for a pool this submission materializes (0 = the
  // controller's default; explicitly configured pools ignore hints).
  double weight_hint = 0.0;
};

struct QueryRequest {
  Query query;
  // Region "closest to the client"; the proxy tries it first.
  cluster::RegionId preferred_region = 0;
  // Per-submission latency budget. Overrides Query::deadline when > 0
  // (which in turn overrides the proxy's default; 0 = inherit).
  SimDuration deadline = 0;
  // When false, this query records no distributed span tree even if the
  // deployment has a TraceSink (high-QPS benches opt noisy probes out).
  bool tracing = true;
  // Result-cache behaviour for this submission (server partial cache
  // and proxy merged cache both honor it).
  cache::CachePolicy cache_policy = cache::CachePolicy::kDefault;
  // Resource claim: the pool this submission is charged to plus its
  // priority tier. Admission fair-shares the concurrency budget across
  // the pool tree, the exec layer weights scan tasks by pool, and
  // traces/metrics/profiles are keyed by the pool path end to end.
  ResourceClaim claim;
  // Opt-in per-query profile: where this query's time and work went
  // (obs::QueryProfile), derived from the stitched span tree. Implies
  // nothing about `tracing` for other queries; this submission records
  // spans whenever either flag is set.
  bool profile = false;
  // Join-strategy hint for the planner: kAuto (default) lets the cost
  // model pick; the other values pin the strategy — every one produces
  // byte-identical results, so pinning is a performance/testing knob,
  // never a correctness one. Ignored for joinless queries.
  JoinStrategy join_strategy = JoinStrategy::kAuto;
  // Merge-topology hint: 0 = planner's choice, 1 = pin the flat merge,
  // >= 2 = pin a k-ary aggregation tree with this fan-in.
  int merge_fanin = 0;

  QueryRequest() = default;
  explicit QueryRequest(Query q, cluster::RegionId region = 0)
      : query(std::move(q)), preferred_region(region) {}
};

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_REQUEST_H_
