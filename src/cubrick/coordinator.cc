#include "cubrick/coordinator.h"

#include <algorithm>
#include <map>

#include "cubrick/net_service.h"
#include "cubrick/wire.h"
#include "sm/sm_client.h"

namespace scalewall::cubrick {

Result<std::vector<uint64_t>> CollectPartitionEpochs(
    RegionContext& ctx, const std::string& table,
    const std::vector<std::string>& dim_tables) {
  auto info = ctx.catalog->GetTable(table);
  if (!info.ok()) return info.status();
  sm::SmClient client(ctx.discovery, ctx.cluster, /*viewer=*/0);
  std::vector<uint64_t> epochs(info->num_partitions, 0);
  CubrickServer* any_instance = nullptr;
  for (uint32_t p = 0; p < info->num_partitions; ++p) {
    auto shard = ctx.catalog->ShardForPartition(table, p);
    if (!shard.ok()) return shard.status();
    auto server = client.ResolveServing(ctx.service, *shard);
    if (!server.ok()) return server.status();
    CubrickServer* instance =
        ctx.directory != nullptr ? ctx.directory->Lookup(*server) : nullptr;
    if (instance == nullptr || !ctx.cluster->Contains(*server) ||
        !ctx.cluster->Get(*server).IsServing()) {
      return Status::Unavailable("epoch check: host for partition " +
                                 PartitionName(table, p) + " unavailable");
    }
    auto epoch = instance->PartitionEpoch(table, p);
    if (!epoch.ok()) return epoch.status();
    epochs[p] = *epoch;
    any_instance = instance;
  }
  // Dim epochs append after the partition epochs — the exact
  // partition_epochs + dim_epochs layout DistributedOutcome reports, so
  // a cached join result validates against the vector it was stored
  // with. Every replica of a dim carries the same epoch (the deployment
  // stamps them from one draw), so any serving instance's copy answers.
  for (const std::string& dim : dim_tables) {
    if (any_instance == nullptr) {
      return Status::Unavailable(
          "epoch check: no serving instance to read dim epochs from");
    }
    const ReplicatedTable* replica = any_instance->GetReplicatedTable(dim);
    if (replica == nullptr) {
      return Status::Unavailable("epoch check: dimension table " + dim +
                                 " not resident in region " +
                                 std::to_string(ctx.region));
    }
    epochs.push_back(replica->epoch());
  }
  return epochs;
}

namespace {

// Records a plan off the seed path as a "plan" span (strategy, merge
// topology, and a tree's fan-in and depth over `num_leaves`); the seed
// plan (replicated, `fanin` < 2) records nothing.
void TracePlan(const obs::TraceContext& parent, SimTime at,
               JoinStrategy strategy, int fanin, int num_leaves) {
  const bool tree = fanin >= 2;
  if (strategy == JoinStrategy::kReplicated && !tree) return;
  obs::TraceContext span = parent.Child("plan", at);
  span.Annotate("strategy", std::string(JoinStrategyName(strategy)));
  span.Annotate("merge", std::string(MergeTopologyName(
                             tree ? MergeTopology::kTree
                                  : MergeTopology::kFlat)));
  if (tree) {
    span.Annotate("fanin", std::to_string(fanin));
    span.Annotate("depth", std::to_string(TreeDepth(num_leaves, fanin)));
  }
  span.End(at);
}

// The simulator's environment for one attempt: placement through the
// coordinator's SM view of the region, per-host failure draws and
// modeled latency from the caller's RNG stream, all in simulated time
// at one frozen instant.
class ModeledEnv : public AttemptEnv {
 public:
  ModeledEnv(const ExecutionPlan& plan, ExecContext& ectx)
      : ctx_(*ectx.region),
        rng_(*ectx.rng),
        plan_(plan),
        deadline_budget_(ectx.deadline_budget),
        client_(ctx_.discovery, ctx_.cluster, plan.coordinator),
        // Subqueries still outstanding at the hedge quantile of the
        // latency model get a duplicate dispatch; the first completion
        // wins, taming the max-over-N tail that drives Figure 5.
        hedge_delay_(ctx_.policy.hedge_quantile > 0.0
                         ? ctx_.latency_model.Quantile(
                               ctx_.policy.hedge_quantile)
                         : 0) {}

  SimTime Now() override {
    return ctx_.simulation != nullptr ? ctx_.simulation->now() : 0;
  }
  SimDuration Latency(const AttemptFrame&, SimDuration modeled) override {
    return modeled;
  }

  Result<std::vector<const ReplicatedTable*>> CoordinatorDims(
      const std::vector<Join>& joins) override {
    CubrickServer* coord = ctx_.directory != nullptr
                               ? ctx_.directory->Lookup(plan_.coordinator)
                               : nullptr;
    if (coord == nullptr || !ctx_.cluster->Contains(plan_.coordinator) ||
        !ctx_.cluster->Get(plan_.coordinator).IsServing()) {
      return Status::Unavailable("coordinator unavailable");
    }
    std::vector<const ReplicatedTable*> dims;
    for (const Join& join : joins) {
      dims.push_back(coord->GetReplicatedTable(join.dimension_table));
    }
    return dims;
  }

  // Resolves through the coordinator's local SMC view.
  Result<cluster::ServerId> Place(AttemptFrame& frame,
                                  const std::string& table,
                                  uint32_t p) override {
    auto shard = ctx_.catalog->ShardForPartition(table, p);
    if (!shard.ok()) return shard.status();
    auto server = client_.ResolveServing(ctx_.service, *shard);
    if (!server.ok() && ctx_.policy.enabled()) {
      // The local discovery view can be seconds stale (Figure 4c); before
      // giving up on the region, re-resolve against the authoritative
      // root, which already knows a just-published failover replica.
      server = client_.ResolveServingFresh(ctx_.service, *shard);
    }
    if (server.ok()) return server;
    // Partition unavailable in this region: fail so the proxy retries
    // against a different region.
    frame.outcome->latency = ctx_.network_model.SampleHop(rng_);
    return Status::Unavailable("partition " + PartitionName(table, p) +
                               " unavailable in region " +
                               std::to_string(ctx_.region) + ": " +
                               server.status().message());
  }

  // Per-host transient failure draws: each participating server
  // independently fails the request with probability p (Figures 1-2).
  // Instead of failing the whole in-region attempt on the first bad
  // draw, the coordinator retries the host's subqueries with exponential
  // backoff — re-resolved below through the authoritative SmClient view,
  // so a shard that failed over mid-query lands on its new replica.
  // Retries push the effective per-host failure probability down from p
  // to p^(1+retries), which directly moves the Figure 1/2 wall outward.
  void DrawFailures(AttemptFrame& frame,
                    const std::set<cluster::ServerId>& hosts) override {
    const SubqueryPolicy& policy = ctx_.policy;
    DistributedOutcome& outcome = *frame.outcome;
    // Fails the attempt at `spent`; past the deadline the caller has
    // already hung up, so it reports kDeadlineExceeded at the budget.
    auto fail = [&](cluster::ServerId server, SimDuration spent,
                    Status status) {
      if (deadline_budget_ > 0 && spent >= deadline_budget_) {
        if (status.code() != StatusCode::kDeadlineExceeded) {
          status = Status::DeadlineExceeded(
              "attempt exceeded remaining deadline budget of " +
              FormatDuration(deadline_budget_));
        }
        spent = deadline_budget_;
      }
      outcome.status = std::move(status);
      outcome.latency = spent;
      outcome.failed_server = server;
    };
    std::set<cluster::ServerId> reresolve;
    for (cluster::ServerId server : hosts) {
      SimDuration penalty = 0;
      int tries = 0;
      while (ctx_.failure_model.Fails(rng_)) {
        // The failure surfaces roughly when the subquery would have
        // completed (or timed out).
        const SimDuration failed_at = penalty;
        penalty += ctx_.network_model.SampleHop(rng_) +
                   ctx_.latency_model.Sample(rng_);
        if (tries >= policy.max_subquery_retries) {
          obs::TraceContext fspan = frame.trace.Child(
              "failure s" + std::to_string(server), frame.t0 + failed_at);
          fspan.Annotate("server", std::to_string(server));
          fspan.End(frame.t0 + penalty);
          return fail(server, penalty,
                      Status::Unavailable("server " + std::to_string(server) +
                                          " failed during query execution"));
        }
        penalty += policy.retry_backoff << tries;
        // Span covering the failed draw plus the backoff before the retry
        // re-dispatches against the re-resolved replica.
        obs::TraceContext rspan = frame.trace.Child(
            "retry s" + std::to_string(server) + " t" + std::to_string(tries),
            frame.t0 + failed_at);
        rspan.Annotate("server", std::to_string(server));
        rspan.End(frame.t0 + penalty);
        ++tries;
        ++outcome.subquery_retries;
        reresolve.insert(server);
        if (deadline_budget_ > 0 && penalty >= deadline_budget_) {
          return fail(server, penalty,
                      Status::DeadlineExceeded(
                          "subquery retries exhausted the remaining "
                          "deadline budget of " +
                          FormatDuration(deadline_budget_)));
        }
      }
      if (penalty > 0) host_penalty_[server] = penalty;
    }

    // Assignments are resolved before dispatch: tree chunks ship them to
    // their aggregators pre-resolved (so a divergent discovery view
    // cannot split the tree), so any retry-driven re-resolution against
    // the authoritative view happens here, for flat and tree plans
    // alike. Retry penalties stay keyed on the original assignment.
    std::vector<cluster::ServerId>& servers = *frame.servers;
    assigned_ = servers;
    forward_hops_.assign(servers.size(), 0);
    for (uint32_t p = 0; p < servers.size(); ++p) {
      if (reresolve.count(assigned_[p]) == 0) continue;
      auto shard = ctx_.catalog->ShardForPartition(plan_.query.table, p);
      if (!shard.ok()) continue;
      auto fresh = client_.ResolveServingFresh(ctx_.service, *shard);
      if (fresh.ok()) servers[p] = *fresh;
    }
  }

  obs::TraceContext SidebandTrace(const obs::TraceContext& trace) override {
    return trace;
  }

  // A leaf's subquery span opens before dispatch so the server's
  // partition (and morsel) spans nest under it; a subtree's spans are
  // modeled as it folds.
  void OpenChunk(AttemptFrame& frame, size_t lo, size_t hi,
                 net::CallSideband* sideband, std::string*) override {
    if (hi - lo > 1) return;
    sideband->trace = frame.spans[lo] = OpenSubquery(frame, frame.trace, lo);
  }

  SimDuration FoldChunk(AttemptFrame& frame, size_t lo, size_t hi,
                        const std::vector<int>& forward_hops,
                        std::string_view) override {
    for (size_t i = lo; i < hi; ++i) forward_hops_[i] = forward_hops[i - lo];
    return hi - lo == 1
               ? ModelLeaf(frame, lo, plan_.coordinator, frame.spans[lo])
               : ModelSubtree(frame, lo, hi, plan_.coordinator, frame.trace);
  }

  SimDuration FailedCall() override {
    return ctx_.network_model.SampleHop(rng_) +
           ctx_.latency_model.Sample(rng_);
  }

  // The "merge" span is the vocabulary the node path records too, so
  // BuildQueryProfile folds both identically.
  SimDuration Merge(AttemptFrame& frame, size_t partials,
                    SimTime at) override {
    const SimDuration merge = ctx_.merge_overhead + PerPartial(partials);
    if (merge > 0) frame.trace.Child("merge", at).End(at + merge);
    return merge;
  }

  // One modeled round-trip plus per-group mapping cost per bucket; the
  // buckets run in parallel in simulated time.
  SimDuration MapBucket(AttemptFrame& frame, uint32_t bucket,
                        cluster::ServerId server, size_t groups,
                        SimTime at) override {
    obs::TraceContext bspan =
        frame.trace.Child("shuffle b" + std::to_string(bucket), at);
    bspan.Annotate("server", std::to_string(server));
    const SimDuration hop =
        server == plan_.coordinator ? 0 : ctx_.network_model.SampleHop(rng_);
    const SimDuration chain = hop + ctx_.merge_overhead + PerPartial(groups);
    if (hop > 0) {
      bspan.Child("net s" + std::to_string(server), at).End(at + hop);
    }
    bspan.End(at + chain);
    return chain;
  }

 private:
  // Per-partial merge cost (planner.h): the term that makes the flat
  // coordinator fan-in a wall. 0 (the default) reproduces the seed
  // timing exactly.
  SimDuration PerPartial(size_t partials) const {
    return static_cast<SimDuration>(partials) *
           ctx_.planner.merge_cost_per_partial;
  }

  obs::TraceContext OpenSubquery(const AttemptFrame& frame,
                                 const obs::TraceContext& parent, size_t i) {
    obs::TraceContext sspan =
        parent.Child("subquery p" + std::to_string(i), frame.t0);
    sspan.Annotate("server", std::to_string((*frame.servers)[i]));
    return sspan;
  }

  // Modeled latency of one leaf subquery (in parallel in simulated time
  // with its siblings): hop from its parent (plus any migration
  // forwarding hops), scan-queue wait and service draw, hedged per
  // policy, plus the host's retry penalty. Fixes the extent of the
  // subquery's span.
  SimDuration ModelLeaf(AttemptFrame& frame, size_t i,
                        cluster::ServerId parent_host,
                        const obs::TraceContext& sspan) {
    const SimTime t0 = frame.t0;
    const cluster::ServerId host = (*frame.servers)[i];
    SimDuration hop =
        host == parent_host ? 0 : ctx_.network_model.SampleHop(rng_);
    for (int h = 0; h < forward_hops_[i]; ++h) {
      hop += ctx_.network_model.SampleHop(rng_);
    }
    SimDuration service = ctx_.latency_model.Sample(rng_);
    // Charge the scan against the host's virtual scan queue: under
    // overload all slots are busy and the subquery waits for one, which
    // is exactly how real backends degrade — and the backlog this builds
    // is the overload signal the proxy's admission control sheds on.
    // A no-op (0 wait) when the server's virtual_scan_slots is 0.
    CubrickServer* server = ctx_.directory->Lookup(host);
    const SimDuration scan_wait =
        server != nullptr ? server->EnqueueScan(t0 + hop, service) : 0;
    {
      // The modeled scan (slot wait + service draw) as a "scan" span:
      // the server's partition span is instantaneous in the simulator
      // (the draw happens here, after it returned), so this span is
      // what carries the subquery's scan time into profiles.
      obs::TraceContext scspan =
          sspan.Child("scan p" + std::to_string(i), t0 + hop);
      if (scan_wait > 0) {
        scspan.Annotate("slot_wait", std::to_string(scan_wait));
      }
      scspan.End(t0 + hop + scan_wait + service);
    }
    SimDuration chain = hop + scan_wait + service;
    if (hedge_delay_ > 0 && chain > hedge_delay_) {
      ++frame.outcome->hedges_fired;
      // The hedge goes to a duplicate replica, not back into this host's
      // scan queue — it is left uncharged in the overload model.
      SimDuration hedged = hedge_delay_ + ctx_.network_model.SampleHop(rng_) +
                           ctx_.latency_model.Sample(rng_);
      obs::TraceContext hspan = sspan.Child("hedge", t0 + hedge_delay_);
      hspan.Annotate("won", hedged < chain ? "true" : "false");
      hspan.End(t0 + hedged);
      if (hedged < chain) {
        ++frame.outcome->hedge_wins;
        chain = hedged;
      }
    }
    auto it = host_penalty_.find(assigned_[i]);
    if (it != host_penalty_.end()) chain += it->second;
    // The modeled wire time (parent -> host hop plus any forwarding hops)
    // as a "net" child, so profiles can split subquery wall time into
    // net vs scan.
    if (hop > 0) sspan.Child("net s" + std::to_string(host), t0).End(t0 + hop);
    sspan.End(t0 + chain);
    // The RTT histogram records the modeled chain latency, which is only
    // known now — after hedging and retry penalties resolved — not at
    // Call time.
    ctx_.transport->RecordModeledRtt(static_cast<double>(chain) / 1000.0);
    return chain;
  }

  // A subtree's modeled latency: interior nodes charge their own merge
  // (overhead + children * per_partial) plus one forwarding hop toward
  // their parent.
  SimDuration ModelSubtree(AttemptFrame& frame, size_t lo, size_t hi,
                           cluster::ServerId parent_host,
                           const obs::TraceContext& parent_span) {
    if (hi - lo == 1) {
      return ModelLeaf(frame, lo, parent_host,
                       OpenSubquery(frame, parent_span, lo));
    }
    const SimTime t0 = frame.t0;
    const cluster::ServerId agg = (*frame.servers)[lo];
    // NOT the exact string "merge": profiles fold exact-"merge" spans
    // into the coordinator merge share, and a subtree merge is
    // precisely the work the tree moved OFF the coordinator.
    obs::TraceContext tspan = parent_span.Child(
        "tree merge p" + std::to_string(lo) + "-p" + std::to_string(hi - 1),
        t0);
    tspan.Annotate("server", std::to_string(agg));
    const size_t chunk = static_cast<size_t>(
        TreeChunkSize(static_cast<int>(hi - lo), frame.outcome->merge_fanin));
    SimDuration slowest_child = 0;
    size_t num_chunks = 0;
    for (size_t clo = lo; clo < hi; clo += chunk) {
      const size_t chi = std::min(clo + chunk, hi);
      slowest_child =
          std::max(slowest_child, ModelSubtree(frame, clo, chi, agg, tspan));
      ++num_chunks;
    }
    SimDuration chain =
        slowest_child + ctx_.merge_overhead + PerPartial(num_chunks);
    if (agg != parent_host) {
      const SimDuration hop = ctx_.network_model.SampleHop(rng_);
      tspan.Child("net s" + std::to_string(agg), t0 + chain)
          .End(t0 + chain + hop);
      chain += hop;
    }
    tspan.End(t0 + chain);
    return chain;
  }

  RegionContext& ctx_;
  Rng& rng_;
  const ExecutionPlan& plan_;
  const SimDuration deadline_budget_;
  const sm::SmClient client_;
  const SimDuration hedge_delay_;
  // Set by DrawFailures: each partition's original assignment (retry
  // penalties key on it); the forward hops its reply reported.
  std::vector<cluster::ServerId> assigned_;
  std::vector<int> forward_hops_;
  std::map<cluster::ServerId, SimDuration> host_penalty_;
};

}  // namespace

DistributedOutcome ExecuteDistributed(const ExecutionPlan& plan,
                                      ExecContext& ectx) {
  ModeledEnv env(plan, ectx);
  return ExecuteDistributed(plan, ectx, env);
}

DistributedOutcome ExecuteDistributed(const ExecutionPlan& plan,
                                      ExecContext& ectx, AttemptEnv& env) {
  RegionContext& ctx = *ectx.region;
  const Query& query = plan.query;
  const SimDuration deadline_budget = ectx.deadline_budget;

  DistributedOutcome outcome;
  // `base` carries everything every chunk request shares; the partition
  // hosts join it once placed. t0 anchors every child span: the
  // simulator runs at one frozen instant, so its span boundaries are
  // computed from the same arithmetic that produces the latency.
  wire::TreeMergeEnvelope base;
  AttemptFrame frame{
      ectx.trace, ectx.dispatch_time >= 0 ? ectx.dispatch_time : env.Now(),
      &base.servers, {}, &outcome};
  auto table = ctx.catalog->GetTable(query.table);
  if (!table.ok()) {
    outcome.status = table.status();
    return outcome;
  }
  outcome.num_partitions = table->num_partitions;
  outcome.partition_epochs.assign(table->num_partitions, 0);
  outcome.result = QueryResult(query.aggregations.size());

  Status valid = query.Validate(table->schema);
  if (!valid.ok()) {
    outcome.status = valid;
    return outcome;
  }
  // Joined dimension tables must exist with the referenced attributes
  // (each server resolves its own local replica at execution time).
  for (const Join& join : query.joins) {
    auto dim = ctx.catalog->GetReplicatedTable(join.dimension_table);
    if (!dim.ok()) {
      outcome.status = dim.status();
      return outcome;
    }
    if (join.attribute < 0 ||
        join.attribute >= static_cast<int>(dim->attributes.size())) {
      outcome.status = Status::InvalidArgument(
          "unknown attribute index for join against " +
          join.dimension_table);
      return outcome;
    }
  }

  // Resolve the plan's join strategy: joinless queries always take the
  // replicated (seed) data path, and an unresolved kAuto — a plan built
  // by hand rather than by BuildExecutionPlan — degrades to it too.
  JoinStrategy strategy = plan.join_strategy;
  if (query.joins.empty() || strategy == JoinStrategy::kAuto) {
    strategy = JoinStrategy::kReplicated;
  }

  if (ctx.transport == nullptr) {
    outcome.status = Status::FailedPrecondition(
        "region context has no transport to reach partition hosts");
    return outcome;
  }
  auto dims = env.CoordinatorDims(query.joins);
  if (!dims.ok()) {
    outcome.status = dims.status();
    return outcome;
  }

  // Dim freshness epochs (one per join, join order) from the
  // coordinator's resident replicas — every replica carries the same
  // deployment-stamped value, so the coordinator's copy speaks for the
  // region. 0 when a replica is missing here (the leaves then fail with
  // the precise error on the replicated path). Broadcast additionally
  // snapshots the replicas to ship with the subqueries.
  for (size_t j = 0; j < query.joins.size(); ++j) {
    const ReplicatedTable* replica = (*dims)[j];
    outcome.dim_epochs.push_back(replica != nullptr ? replica->epoch() : 0);
    if (strategy == JoinStrategy::kBroadcast) {
      if (replica == nullptr) {
        outcome.status = Status::Unavailable(
            "broadcast join: dimension table " +
            query.joins[j].dimension_table +
            " not resident on the coordinator");
        return outcome;
      }
      base.dims.push_back(*replica);
    }
  }

  // Every partition's host, as the environment places it.
  std::set<cluster::ServerId> distinct;
  for (uint32_t p = 0; p < table->num_partitions; ++p) {
    auto server = env.Place(frame, query.table, p);
    if (!server.ok()) {
      outcome.status = server.status();
      return outcome;
    }
    base.partitions.push_back(p);
    base.servers.push_back(*server);
    distinct.insert(*server);
  }
  outcome.fanout = static_cast<int>(distinct.size());

  // Merge topology: the plan pins it. A tree with a single partial is
  // meaningless, so it degrades to flat.
  const size_t num_leaves = base.servers.size();
  const bool tree = plan.merge_fanin >= 2 && num_leaves > 1;
  const int fanin = plan.merge_fanin;
  outcome.strategy = strategy;
  outcome.merge_fanin = tree ? fanin : 0;
  outcome.tree_depth =
      tree ? TreeDepth(static_cast<int>(num_leaves), fanin) : 0;
  // The executed plan's shape, for profiles.
  TracePlan(frame.trace, frame.t0, strategy, tree ? fanin : 0,
            static_cast<int>(num_leaves));

  // Shuffle stage 1 scans by raw join keys with joins stripped: it runs
  // on the plain scan kernels and is partial-cacheable (no dim epochs).
  // Its canonical fingerprint is computed once here, coordinator-side.
  base.query = query;
  if (ectx.fingerprint != nullptr) base.fingerprint = *ectx.fingerprint;
  if (strategy == JoinStrategy::kShuffle) {
    base.query = MakeShuffleScanQuery(query);
    base.fingerprint = CanonicalQueryFingerprint(base.query);
  }

  env.DrawFailures(frame, distinct);
  if (!outcome.status.ok()) return outcome;

  // Host-side cooperative cancellation (scalewall::exec): every partial
  // execution below shares this token; the moment the attempt's deadline
  // budget is spent the coordinator cancels it, so hosts running
  // morsel-parallel scans stop scheduling work the proxy has already
  // given up on instead of burning cores on a dead query.
  exec::CancelToken cancel;
  // Chain to the query-level token (admission preemption): a preempted
  // best-effort query's scans observe the flip through this attempt's
  // shared token.
  cancel.LinkParent(ectx.cancel);

  // Fan the top-level chunks out and fold them in ascending chunk order:
  // a flat plan's chunks are single subqueries; a tree plan's
  // multi-partition chunks travel as one kTreeMergeRequest to their
  // aggregator (the host of the chunk's first partition), which
  // executes/forwards and folds its subtree in ascending partition
  // order. The environment times each chunk as it folds. The attempt's
  // latency is the slowest chunk chain plus the coordinator's own
  // (chunk-wide) merge.
  base.fanin = fanin;
  base.cache_policy = ectx.cache_policy;
  base.remaining_budget = deadline_budget;
  base.pool_path = ectx.pool_path;
  net::CallOptions call;
  call.timeout = deadline_budget;  // 0 = the transport's default
  call.sideband.cancel = &cancel;
  call.sideband.trace = env.SidebandTrace(frame.trace);
  call.sideband.trace_time = frame.t0;

  frame.spans.resize(num_leaves);
  SimDuration slowest = 0;
  size_t top_chunks = 0;
  ChunkHooks hooks;
  hooks.trace = [&](size_t lo, size_t hi, net::CallSideband* sideband,
                    std::string* telemetry) {
    env.OpenChunk(frame, lo, hi, sideband, telemetry);
  };
  hooks.fold = [&](size_t lo, size_t hi, Result<wire::TreeMergeResult> reply,
                   std::string_view span_batch) -> Status {
    if (!reply.ok()) {
      outcome.latency = env.Latency(frame, env.FailedCall());
      // The chunk's span records the failure.
      frame.spans[lo].Annotate(
          "status", std::string(StatusCodeName(reply.status().code())));
      frame.spans[lo].End(frame.t0 + outcome.latency);
      outcome.failed_server = base.servers[lo];
      return reply.status();
    }
    for (size_t i = lo; i < hi; ++i) {
      outcome.partition_epochs[i] = reply->epochs[i - lo];
    }
    outcome.result.Merge(reply->result);
    slowest = std::max(
        slowest, env.FoldChunk(frame, lo, hi, reply->forward_hops, span_batch));
    ++top_chunks;
    return Status::Ok();
  };
  outcome.status =
      FanOutChunks(ctx.transport, base, 0, num_leaves, call, hooks);
  if (!outcome.status.ok()) return outcome;
  // The coordinator-side merge starts where the slowest chunk chain
  // completed.
  SimDuration modeled =
      slowest + env.Merge(frame, top_chunks, frame.t0 + slowest);

  if (strategy == JoinStrategy::kShuffle) {
    // --- shuffle stages 2 + 3 ---
    //
    // Stage 1 left outcome.result keyed by [plain dims..., raw join
    // keys...]. Bucket the groups deterministically (FNV-1a over the
    // raw keys), ship each bucket to a dim-replica host that maps keys
    // to attributes, and fold the mapped buckets back in ascending
    // bucket order. Scan counters are restored from the stage-1 totals
    // (the mapping rekeys groups, it scans nothing).
    std::vector<cluster::ServerId> hosts_sorted(distinct.begin(),
                                                distinct.end());
    const uint32_t num_hosts = static_cast<uint32_t>(hosts_sorted.size());
    const uint32_t num_buckets = std::max<uint32_t>(
        1, std::min<uint32_t>(
               static_cast<uint32_t>(std::max(1, plan.shuffle_buckets)),
               num_hosts));
    // Ascending keys: each bucket is one sorted run.
    std::map<uint32_t, QueryResult> buckets;
    for (const auto& [key, states] : outcome.result.groups()) {
      buckets
          .try_emplace(ShuffleBucket(key, query.joins.size(), num_buckets),
                       query.aggregations.size())
          .first->second.AppendRun(1, key, states);
    }
    QueryResult mapped_total(query.aggregations.size());
    const SimTime t_fan = frame.t0 + modeled;
    SimDuration stage2_max = 0;
    for (const auto& [b, bucket] : buckets) {
      const cluster::ServerId map_server = hosts_sorted[b % num_hosts];
      auto mapped =
          CallShuffleMap(*ctx.transport, map_server, query, bucket,
                         env.SidebandTrace(frame.trace), t_fan);
      if (!mapped.ok()) {
        outcome.status = mapped.status();
        outcome.failed_server = map_server;
        outcome.latency = env.Latency(frame, modeled + env.FailedCall());
        return outcome;
      }
      stage2_max = std::max(stage2_max, env.MapBucket(frame, b, map_server,
                                                      bucket.num_groups(),
                                                      t_fan));
      mapped_total.Merge(*mapped);
    }
    modeled += stage2_max +
               env.Merge(frame, buckets.size(), t_fan + stage2_max);
    mapped_total.rows_scanned = outcome.result.rows_scanned;
    mapped_total.bricks_scanned = outcome.result.bricks_scanned;
    mapped_total.bricks_pruned = outcome.result.bricks_pruned;
    mapped_total.bricks_rle_skipped = outcome.result.bricks_rle_skipped;
    outcome.result = std::move(mapped_total);
  }

  outcome.latency = env.Latency(frame, modeled);
  if (deadline_budget > 0 && outcome.latency > deadline_budget) {
    // The merged answer arrived after the client's deadline: it is
    // discarded, not returned late.
    cancel.RequestCancel();
    outcome.status = Status::DeadlineExceeded(
        "attempt completed after the remaining deadline budget of " +
        FormatDuration(deadline_budget));
    outcome.latency = deadline_budget;
    outcome.result = QueryResult(query.aggregations.size());
  }
  return outcome;
}

}  // namespace scalewall::cubrick
