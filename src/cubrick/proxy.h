// CubrickProxy: the stateless query front door (Section IV-D).
//
// "Queries are always submitted to a Cubrick proxy service ... Cubrick
// proxy is responsible for handling all user queries and deciding which
// is the most suitable region to dispatch a query to. This decision is
// based on region availability ... and proximity to client. Proxies are
// also responsible for retrying queries which failed due to some types of
// errors ... the query is transparently retried on a different region and
// users are unaware of the failure. Finally, the proxy is also
// responsible for a list of features such as admission control,
// blacklisting, logging and query tracing."
//
// The proxy also implements the four query-coordinator location
// strategies of Section IV-C, including the production one: "Cache number
// of partitions per table, then forward to a random one", where "the
// number of partitions per table is always included as part of query
// results metadata, and updates the proxy's cache".

#ifndef SCALEWALL_CUBRICK_PROXY_H_
#define SCALEWALL_CUBRICK_PROXY_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "admit/admit.h"
#include "cache/cache.h"
#include "cache/lru_cache.h"
#include "cluster/cluster.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "cubrick/coordinator.h"
#include "cubrick/query.h"
#include "cubrick/request.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace scalewall::cubrick {

// The four coordinator-location strategies of Section IV-C.
enum class CoordinatorStrategy {
  // 1. Always forward queries to partition 0 (imbalanced coordinators).
  kPartitionZero,
  // 2. Forward to partition 0, which re-forwards to a random partition
  //    (balanced, but one extra network hop on the data path).
  kForwardFromZero,
  // 3. Retrieve the partition count first, then go to a random partition
  //    (balanced, no extra data hop, but one extra metadata roundtrip).
  kLookupThenRandom,
  // 4. Cache partitions per table, forward to a random one (production).
  kCachedRandom,
};

std::string_view CoordinatorStrategyName(CoordinatorStrategy strategy);

struct ProxyOptions {
  CoordinatorStrategy strategy = CoordinatorStrategy::kCachedRandom;
  // Retry budget across regions (first attempt included). Regions are
  // cycled in proximity order until the budget is exhausted, so with two
  // regions and max_attempts = 3 a transient in-region failure is
  // retried in-region on the third attempt.
  int max_attempts = 3;
  // End-to-end latency budget stamped on queries that do not carry their
  // own (Query::deadline). Decremented per hop and per attempt;
  // coordinators stop retrying/hedging when it runs out. 0 = unlimited.
  SimDuration default_deadline = 0;
  // Servers that failed a query are avoided as coordinators for this long.
  SimDuration blacklist_duration = 30 * kSecond;
  // A server is only blacklisted after this many failures within one
  // blacklist window (a single transient failure is not a dead host).
  int blacklist_threshold = 3;
  // The real admission pipeline (scalewall::admit): token-bucket rate
  // limiting, hierarchical fair-share pools with min-share guarantees
  // and best-effort preemption, priority tiers, in-flight-bytes
  // budgets, deadline-aware queue-wait prediction and backend-overload
  // shedding. Rejections return Status::ResourceExhausted with a
  // retry-after hint (QueryOutcome::retry_after).
  bool enable_admission = false;
  admit::AdmitOptions admission;
  // Backend overload fold-in: servers of the preferred region sampled
  // for their overload score per refresh (0 disables the fold-in), and
  // how long a sampled score is reused before re-polling.
  int overload_sample_servers = 4;
  SimDuration overload_refresh = 250 * kMillisecond;
  // A region is eligible only if at least this fraction of its servers is
  // serving (regions can be down or drained entirely).
  double min_region_availability = 0.5;
  // Query traces retained in the ring buffer (0 disables tracing).
  size_t trace_capacity = 1024;
  // Merged-result cache budget in (approximate) bytes; 0 disables it.
  // Entries are keyed by canonical query fingerprint and validated with
  // a cheap per-partition epoch check (one metadata roundtrip instead
  // of a full fan-out); under CachePolicy::kAllowStale a cached result
  // is also served — flagged — when every region fails.
  size_t merged_cache_bytes = 0;
  // Unified metrics registry the proxy's Stats counters register into
  // (null = standalone counters, visible only through stats()).
  obs::MetricsRegistry* metrics = nullptr;
  // Distributed-tracing sink: when set, every submitted query opens a
  // span tree (query -> attempt -> subquery -> partition -> morsel)
  // propagated down through coordinator and servers.
  obs::TraceSink* trace_sink = nullptr;
};

// One entry of the proxy's query trace ring buffer ("the proxy is also
// responsible for ... logging and query tracing"). The inherited
// ReliabilityCounters cover subquery retries, hedges and cache activity
// across all attempts.
struct QueryTrace : ReliabilityCounters {
  SimTime time = 0;
  std::string table;
  cluster::RegionId region = 0;
  int attempts = 0;
  StatusCode status = StatusCode::kOk;
  SimDuration latency = 0;
  int fanout = 0;
  // The deadline budget the query ran under (0 = none).
  SimDuration deadline = 0;
  // Whether a stale cached result was served (kAllowStale fallback).
  bool served_stale = false;
  // Distributed trace id in the deployment's TraceSink (0 = tracing was
  // off or the trace has been evicted).
  uint64_t trace_id = 0;
  // Pool path and scheduling tier the submission's ResourceClaim
  // carried ("default" for unclaimed submissions).
  std::string pool;
  admit::Priority priority = admit::Priority::kInteractive;
  // Virtual admission queue wait included in `latency` (0 = none).
  SimDuration queue_wait = 0;
};

// Final outcome of a proxied query. Inherits the per-query
// ReliabilityCounters (retries, hedges, cache activity) summed over all
// attempts.
struct QueryOutcome : ReliabilityCounters {
  Status status;
  QueryResult result;
  // Presentation rows: the merged result with the query's ORDER BY /
  // LIMIT applied (all rows, in group-key order, when unspecified).
  std::vector<ResultRow> rows;
  // End-to-end latency including failed attempts and retries.
  SimDuration latency = 0;
  int attempts = 0;
  // Region that answered (or last region tried).
  cluster::RegionId region = 0;
  // Fan-out of the successful attempt.
  int fanout = 0;
  uint32_t num_partitions = 0;
  // THE stale-serve flag: true iff this result came from the merged
  // cache *without* epoch validation, served under
  // CachePolicy::kAllowStale because every region failed. A successful
  // outcome with served_stale == false is always exact — the
  // correctness guarantee of DESIGN.md §5 is never silently weakened.
  bool served_stale = false;
  // On a ResourceExhausted rejection: the admission controller's
  // backoff hint — resubmitting earlier will very likely be shed again.
  // Clients honoring it (the reliability layer's backoff, the overload
  // bench's retry loop) converge instead of hammering.
  SimDuration retry_after = 0;
  // Virtual admission queue wait included in `latency` (0 = admitted
  // straight into a free slot).
  SimDuration queue_wait = 0;
  // Distributed trace id of this submission in the deployment's
  // TraceSink (0 = tracing off). Feed Spans(trace_id) to
  // obs::BuildQueryProfile for the per-query profile.
  uint64_t trace_id = 0;
  // The executed plan of the answering attempt (kReplicated/0/0 for the
  // seed-equivalent flat replicated path, and for cache hits, which
  // execute no plan at all).
  JoinStrategy join_strategy = JoinStrategy::kReplicated;
  int merge_fanin = 0;  // 0 = flat merge
  int tree_depth = 0;   // 0 = flat merge
};

// One merged-result cache entry: the fully merged and materialized
// answer from the last successful execution, plus the epoch vector it
// was computed against — partition epochs followed by one dim-table
// epoch per join (so replicated-dim join results validate too) — and
// the metadata the outcome reports. A validated hit replays all of it.
struct MergedCacheEntry {
  cluster::RegionId region = 0;
  std::vector<uint64_t> epochs;
  QueryResult result;
  std::vector<ResultRow> rows;
  int fanout = 0;
  uint32_t num_partitions = 0;
};
// Keyed by canonical query fingerprint (exact string equality).
using MergedResultCache = cache::LruCache<std::string, MergedCacheEntry>;

class CubrickProxy {
 public:
  CubrickProxy(sim::Simulation* simulation, cluster::Cluster* cluster,
               Catalog* catalog, ProxyOptions options = {});

  // Registers one region's execution context. Regions are tried in
  // proximity order starting from the client's preferred region.
  void AddRegion(RegionContext* context);

  // Submits a request: the query plus its per-submission overrides
  // (preferred region, deadline budget, tracing, cache policy,
  // ResourceClaim). The sole entry point of the redesigned API — the
  // transitional Submit(Query, region) shim is gone.
  QueryOutcome Submit(const QueryRequest& request);

  // The admission controller (null unless enable_admission configured
  // one). Exposed for pool configuration and tests.
  admit::AdmissionController* admission() { return admission_.get(); }

  // (Re)configures one fair-share pool's weight, min/max shares and
  // hard caps, creating it (and missing ancestors) as needed. A no-op
  // without admission control.
  void ConfigurePool(const std::string& path,
                     const admit::PoolConfig& config) {
    if (admission_ != nullptr) admission_->ConfigurePool(path, config);
  }

  // Cached partition count for a table (kCachedRandom strategy), or 0.
  uint32_t CachedPartitions(const std::string& table) const;

  // Most recent query traces, newest first, at most `limit` entries
  // (0 = all retained traces).
  std::vector<QueryTrace> RecentTraces(size_t limit = 0) const;

  // Counters live in obs handles so a registry-attached proxy exports
  // them by name; with no registry they are standalone cells and this
  // struct behaves exactly like the plain-int64 version it replaced
  // (Counter converts implicitly and supports ++/+=/load).
  // Inherits the reliability counters (subquery_retries, hedges_fired,
  // hedge_wins, cache_hits, cache_stale_serves) as obs::Counter handles
  // — the same field names the per-query outcomes use as plain ints.
  struct Stats : ReliabilityCountersT<obs::Counter> {
    explicit Stats(obs::MetricsRegistry* registry = nullptr);

    obs::Counter submitted;
    obs::Counter succeeded;
    obs::Counter failed;
    obs::Counter retried;   // queries needing >1 attempt
    obs::Counter rejected;  // admission control
    obs::Counter cross_region_retries;
    obs::Counter blacklist_hits;
    obs::Counter extra_hops;        // strategy-2 forwards
    obs::Counter extra_roundtrips;  // strategy-3 lookups
    obs::Counter deadline_exceeded;  // queries failed on their budget
    // Merged-cache outcomes beyond the inherited hit/stale counters:
    // lookups that found nothing, and entries whose epoch validation
    // failed (changed data or unreachable hosts -> full re-execution).
    obs::Counter cache_misses;
    obs::Counter cache_validation_failures;
    // Executed attempts per resolved join strategy
    // (scalewall_plan_total{strategy=...}) and attempts that ran a
    // k-ary tree merge (scalewall_tree_merge_queries_total).
    obs::Counter plan_replicated;
    obs::Counter plan_broadcast;
    obs::Counter plan_shuffle;
    obs::Counter tree_merge_queries;
    // Per-stage latency histograms (milliseconds).
    obs::HistogramMetric attempt_latency_ms{/*min_value=*/0.001};
    obs::HistogramMetric query_latency_ms{/*min_value=*/0.001};
    // Coordinator picks per server (coordinator balance ablation),
    // registered as scalewall_proxy_coordinator_picks{server=...} at the
    // server's first pick.
    std::map<cluster::ServerId, obs::Counter> coordinator_picks;
  };
  const Stats& stats() const { return stats_; }

  // The merged-result cache's internal counters (zeros when disabled).
  MergedResultCache::Snapshot MergedCacheSnapshot() const;

  // True while `server` is blacklisted as a coordinator choice.
  bool Blacklisted(cluster::ServerId server) const;

  // Bookkeeping sizes (tests/diagnostics): entries currently held in the
  // blacklist and failure-streak maps. Expired entries are swept
  // periodically so week-long simulations do not accumulate state.
  size_t blacklist_size() const { return blacklist_.size(); }
  size_t failure_streaks() const { return failures_.size(); }

 private:
  // `queue_wait` is the virtual admission-queue delay already charged
  // to this query; it seeds the outcome's latency so the deadline
  // budget shrinks by the time spent waiting for a slot. `cancel` is
  // the query-level cancellation token admission preemption flips
  // (nullptr = unclaimed / no admission).
  QueryOutcome SubmitInternal(const QueryRequest& request, SimTime start,
                              const obs::TraceContext& root,
                              SimDuration queue_wait,
                              const exec::CancelToken* cancel = nullptr);

  // Merged-cache helpers (no-ops / misses when the cache is disabled or
  // the policy forbids them). TryServeValidated serves a hit only after
  // the epoch-check roundtrip confirms every partition unchanged;
  // TryServeStale is the all-regions-failed kAllowStale fallback.
  bool TryServeValidated(const QueryRequest& request,
                         const std::string& fingerprint,
                         const obs::TraceContext& root, QueryOutcome& outcome);
  bool TryServeStale(const QueryRequest& request,
                     const std::string& fingerprint,
                     const obs::TraceContext& root, QueryOutcome& outcome);

  bool RegionAvailable(const RegionContext& ctx) const;

  // Samples the preferred region's servers for their overload score
  // (exec-pool queue depth + modeled scan backlog), averaged over a
  // deterministic subset and cached for overload_refresh. 0 when the
  // fold-in is disabled or no server is reachable.
  double BackendOverload(cluster::RegionId preferred_region);

  // Picks a coordinator server per the configured strategy. Returns the
  // extra latency the strategy incurred before execution starts.
  Result<cluster::ServerId> PickCoordinator(RegionContext& ctx,
                                            const Query& query,
                                            SimDuration& extra_latency);
  // Counts a pick in stats().coordinator_picks, registering the server's
  // counter on its first pick.
  void CountCoordinatorPick(cluster::ServerId server);

  // Records a failure against `server`'s streak, blacklisting it when the
  // streak reaches the threshold within one window.
  void RecordFailure(cluster::ServerId server);

  // Erases expired blacklist entries and stale failure streaks (amortized
  // to at most one sweep per blacklist window).
  void SweepExpired();

  sim::Simulation* simulation_;
  cluster::Cluster* cluster_;
  Catalog* catalog_;
  ProxyOptions options_;
  Rng rng_;
  std::vector<RegionContext*> regions_;
  std::unordered_map<std::string, uint32_t> partition_cache_;
  std::unordered_map<cluster::ServerId, SimTime> blacklist_;
  // Recent failure streaks: server -> (count, first failure time).
  std::unordered_map<cluster::ServerId, std::pair<int, SimTime>> failures_;
  // Last time expired blacklist/failure-streak entries were swept.
  SimTime last_sweep_ = 0;
  // Admission pipeline (null = admit everything, the pre-admission
  // behaviour). Replaces the old per-second timestamp deque.
  std::unique_ptr<admit::AdmissionController> admission_;
  // Cached backend overload score per preferred region.
  struct OverloadSample {
    bool valid = false;
    SimTime at = 0;
    double score = 0.0;
  };
  std::map<cluster::RegionId, OverloadSample> overload_samples_;
  std::deque<QueryTrace> traces_;
  // Merged-result cache (null when merged_cache_bytes == 0).
  std::unique_ptr<MergedResultCache> merged_cache_;
  Stats stats_;
};

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_PROXY_H_
