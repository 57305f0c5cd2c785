// Distributed query execution: the query-coordinator role.
//
// "In Cubrick, queries are invariably executed by the hosts that store
// partitions of a table, always pushing the compute closer to the data.
// The host that receives the client connection is called a query
// coordinator. ... A query coordinator has additional responsibilities,
// such as merging partial results, query parsing, compilation and
// distribution" (Section IV-C). "Once a query is dispatched to be
// executed in a certain region, all table partitions required by the
// query are required to be available within that region — there is no
// cross-region traffic during query execution. If some partition is
// unavailable, queries will fail and be retried on a different region by
// Cubrick proxy" (Section IV-D).
//
// ExecuteDistributed owns the data path and asks an AttemptEnv for
// placement, failure draws, spans and time. The simulator's modeled
// environment runs subqueries to all partition hosts in parallel: the
// distributed latency is the max over per-host (network hop + service
// latency) plus a merge term, with per-host transient failures drawn from
// the paper's failure model — the process behind Figures 1, 2 and 5. A
// node proxy's wall environment measures instead. Either way the data
// path is real: partial aggregation states are computed by scanning
// actual bricks and merged on the coordinator.

#ifndef SCALEWALL_CUBRICK_COORDINATOR_H_
#define SCALEWALL_CUBRICK_COORDINATOR_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "common/status.h"
#include "cubrick/catalog.h"
#include "cubrick/planner.h"
#include "cubrick/query.h"
#include "cubrick/server.h"
#include "discovery/service_discovery.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "sim/latency_model.h"
#include "sim/simulation.h"

namespace scalewall::cubrick {

// Subquery-level reliability policy (the mechanism that moves the
// scalability wall rather than measuring it). A query fanning out to N
// hosts fails with probability 1-(1-p)^N; whole-query retries stop
// helping once N is large, so the coordinator instead retries and hedges
// *individual* subqueries, pushing the effective per-host p down to
// p^(1+retries) and taming the max-over-N latency tail.
struct SubqueryPolicy {
  // Failed per-host draws are retried this many times against the
  // shard's current owner, re-resolved through SmClient's authoritative
  // view (so a just-published failover replica is found even while the
  // local discovery cache is stale). 0 = legacy behaviour: the first
  // per-host failure fails the whole in-region attempt.
  int max_subquery_retries = 0;
  // Backoff before the k-th subquery retry: retry_backoff << k of
  // simulated time, added to that subquery chain's latency.
  SimDuration retry_backoff = 2 * kMillisecond;
  // When > 0, a duplicate of any subquery still outstanding at this
  // quantile of the service-latency body is dispatched and the first
  // completion wins (tied-request hedging, Dean & Barroso). 0 disables.
  double hedge_quantile = 0.0;

  bool enabled() const {
    return max_subquery_retries > 0 || hedge_quantile > 0.0;
  }
};

// Everything a coordinator in one region needs to execute queries.
struct RegionContext {
  cluster::RegionId region = 0;
  std::string service;  // the region's SM service name
  sim::Simulation* simulation = nullptr;
  cluster::Cluster* cluster = nullptr;
  Catalog* catalog = nullptr;
  const ServerDirectory* directory = nullptr;
  const discovery::ServiceDiscovery* discovery = nullptr;
  sim::LatencyModel latency_model;
  sim::NetworkModel network_model;
  sim::TransientFailureModel failure_model{0.0};
  // Fixed cost of merging partial results on the coordinator.
  SimDuration merge_overhead = 1 * kMillisecond;
  // Planner knobs: cost-model weights plus the per-partial merge cost
  // that makes the coordinator fan-in a wall (planner.h). The defaults
  // reproduce the seed model exactly.
  PlannerOptions planner;
  // Subquery retry/hedging policy applied by coordinators in this region.
  SubqueryPolicy policy;
  // The transport every hop of the query path crosses (proxy ->
  // coordinator -> partition hosts, tree merges, shuffle maps, plus the
  // epoch-validation probe): requests and responses pass through the
  // wire codecs. Required to execute queries (ExecuteDistributed fails
  // kFailedPrecondition without one). A Deployment plugs in its sim
  // network; scalewall_node processes plug in the epoll backend.
  net::Transport* transport = nullptr;
};

// Reliability-layer activity counters, shared by every layer that
// reports them: DistributedOutcome and QueryOutcome/QueryTrace (plain
// ints) and the proxy's Stats (obs::Counter handles) all embed this one
// struct by inheritance, so field access stays flat (`outcome.hedge_wins`)
// and a new counter — like the cache ones below — is added in exactly
// one place.
template <typename C>
struct ReliabilityCountersT {
  C subquery_retries{};  // failed host draws retried in-region
  C hedges_fired{};      // duplicate subqueries dispatched
  C hedge_wins{};        // hedges that beat the primary
  // Result-cache activity at the proxy: validated merged-result hits
  // served without a fan-out, and stale results served (flagged) after
  // every region failed.
  C cache_hits{};
  C cache_stale_serves{};

  // Adds another instance's values (any counter type convertible via
  // +=, e.g. accumulating per-attempt ints into obs::Counter handles).
  template <typename Other>
  void AccumulateReliability(const Other& other) {
    subquery_retries += other.subquery_retries;
    hedges_fired += other.hedges_fired;
    hedge_wins += other.hedge_wins;
    cache_hits += other.cache_hits;
    cache_stale_serves += other.cache_stale_serves;
  }
};
using ReliabilityCounters = ReliabilityCountersT<int>;

// Outcome of one in-region distributed execution attempt.
struct DistributedOutcome : ReliabilityCounters {
  Status status;
  QueryResult result;
  // Wall time of this attempt (meaningful for failures too: time until
  // the failure surfaced).
  SimDuration latency = 0;
  // Distinct servers that had to participate.
  int fanout = 0;
  // Current partition count of the table — returned "as part of query
  // results metadata" to keep the proxy cache fresh (Section IV-C).
  uint32_t num_partitions = 0;
  // Per-partition freshness epochs observed by this attempt (indexed by
  // partition; only meaningful on success). The proxy's merged-result
  // cache validates against these with a cheap epoch-check roundtrip.
  std::vector<uint64_t> partition_epochs;
  // Freshness epochs of the joined dimension tables, one per
  // Query::joins entry in join order (empty for joinless queries). The
  // proxy appends these to the merged-cache entry's epoch vector, which
  // is what makes join results safely cacheable: a dim update bumps the
  // epoch and invalidates.
  std::vector<uint64_t> dim_epochs;
  // The plan this attempt executed (echoed from the ExecutionPlan so
  // the proxy, across the wire, sees the coordinator's choice).
  JoinStrategy strategy = JoinStrategy::kReplicated;
  int merge_fanin = 0;  // 0 = flat, >= 2 = k-ary tree
  int tree_depth = 0;   // levels below the coordinator (0 = flat)
  // The server that failed the attempt, if any (for proxy blacklisting).
  cluster::ServerId failed_server = cluster::kInvalidServer;
};

// One attempt as its environment's hooks see it. ExecuteDistributed owns
// it; hooks may write `spans` and, where documented, `outcome`.
struct AttemptFrame {
  obs::TraceContext trace;  // parent of the attempt's spans
  SimTime t0 = 0;           // the time they start at
  std::vector<cluster::ServerId>* servers = nullptr;  // partition -> host
  std::vector<obs::TraceContext> spans;  // per chunk, by first leaf
  DistributedOutcome* outcome = nullptr;
};

// Where a distributed attempt runs: placement and clock, one seam since
// no caller varies them apart. The modeled environment (the two-argument
// ExecuteDistributed) places through SM and draws simulated time, one
// per attempt; node::ProxyCore's wall environment places statically,
// measures time and is shared by its handler threads. Hooks run on the
// attempt's thread. The durations they return are modeled (the defaults
// model nothing): ExecuteDistributed sums them, Latency converts a sum.
class AttemptEnv {
 public:
  virtual ~AttemptEnv() = default;
  // The clock's current time: anchors an attempt with no dispatch time.
  virtual SimTime Now() = 0;
  virtual SimDuration Latency(const AttemptFrame& frame,
                              SimDuration modeled) = 0;
  // The coordinator's replica of each join's dimension table (nullptr
  // where it has none), or why it cannot coordinate.
  virtual Result<std::vector<const ReplicatedTable*>> CoordinatorDims(
      const std::vector<Join>& joins) = 0;
  // Partition `p`'s host. A failure sets frame.outcome->latency.
  virtual Result<cluster::ServerId> Place(AttemptFrame& frame,
                                          const std::string& table,
                                          uint32_t p) = 0;
  // Draws the placed hosts' transient failures; one that fails the
  // attempt sets frame.outcome's status, latency and failed_server.
  virtual void DrawFailures(AttemptFrame&,
                            const std::set<cluster::ServerId>& /*hosts*/) {}
  // The trace a call carries in-process (the sim's side-band).
  virtual obs::TraceContext SidebandTrace(const obs::TraceContext&) {
    return {};
  }
  // Before chunk [lo, hi) is sent: opens frame.spans[lo] and sets the
  // call's trace, on the side-band or as a wire telemetry block.
  virtual void OpenChunk(AttemptFrame& frame, size_t lo, size_t hi,
                         net::CallSideband* sideband,
                         std::string* telemetry) = 0;
  // Chunk [lo, hi) replied, with its leaves' forward hops and span batch.
  virtual SimDuration FoldChunk(AttemptFrame& frame, size_t lo, size_t hi,
                                const std::vector<int>& forward_hops,
                                std::string_view span_batch) = 0;
  // The time a failed call takes to surface.
  virtual SimDuration FailedCall() { return 0; }
  // The coordinator merges `partials` partials, starting `at`.
  virtual SimDuration Merge(AttemptFrame&, size_t /*partials*/,
                            SimTime /*at*/) { return 0; }
  // Shuffle bucket `bucket`'s `groups` groups map on `server`, from `at`.
  virtual SimDuration MapBucket(AttemptFrame&, uint32_t /*bucket*/,
                                cluster::ServerId /*server*/,
                                size_t /*groups*/, SimTime /*at*/) {
    return 0;
  }
};

// Executes an ExecutionPlan (planner.h) in `env`, fanning out to every
// partition of the table as `env` places it. The plan decides how: join
// strategy (replicated / broadcast / shuffle) and merge topology (flat /
// k-ary tree, where servers merge AggState partials from their subtree
// before forwarding — the subtree hops ride kTreeMergeRequest frames
// over ctx.transport). Every topology merges in a fixed order (ascending
// partitions, contiguous chunks), so results are byte-identical across
// strategies and topologies on the repo's integral datasets (DESIGN.md
// §15). `ectx` carries the rest: the region's catalog and transport, the
// deadline budget (0 = unlimited), the parent trace span (a "plan" child
// span records the executed strategy), the cache policy / precomputed
// fingerprint routed to every server's partial-result cache, the pool.
DistributedOutcome ExecuteDistributed(const ExecutionPlan& plan,
                                      ExecContext& ectx, AttemptEnv& env);

// ExecuteDistributed in ectx.region's modeled environment: the
// coordinator on `plan.coordinator` resolves partitions through its
// local discovery view, retries and hedges per `ctx.policy`, and draws
// time from `ectx.rng`.
DistributedOutcome ExecuteDistributed(const ExecutionPlan& plan,
                                      ExecContext& ectx);

// Resolves every partition of `table` in ctx's region and collects the
// current freshness epochs without scanning anything — the cheap
// validation probe behind the proxy's merged-result cache: a metadata
// roundtrip instead of a full fan-out execution. `dim_tables` (one
// entry per join, duplicates preserved) appends the named replicated
// dimension tables' epochs after the partition epochs, matching the
// partition_epochs + dim_epochs layout DistributedOutcome reports.
// Fails if any partition is unresolvable or its host is gone (the
// caller falls back to a full execution).
Result<std::vector<uint64_t>> CollectPartitionEpochs(
    RegionContext& ctx, const std::string& table,
    const std::vector<std::string>& dim_tables = {});

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_COORDINATOR_H_
