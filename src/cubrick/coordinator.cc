#include "cubrick/coordinator.h"

#include <algorithm>
#include <functional>
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

DistributedOutcome ExecuteDistributed(const ExecutionPlan& plan,
                                      ExecContext& ectx) {
  RegionContext& ctx = *ectx.region;
  Rng& rng = *ectx.rng;
  const Query& query = plan.query;
  const cluster::ServerId coordinator = plan.coordinator;
  const SimDuration deadline_budget = ectx.deadline_budget;
  obs::TraceContext trace = ectx.trace;

  // Sim-time anchor for every child span: the engine runs at one frozen
  // instant, so span boundaries are computed from the same arithmetic
  // that produces the attempt's latency.
  const SimTime t0 =
      ectx.dispatch_time >= 0
          ? ectx.dispatch_time
          : (ctx.simulation != nullptr ? ctx.simulation->now() : 0);
  DistributedOutcome outcome;
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
  CubrickServer* coord_server =
      ctx.directory != nullptr ? ctx.directory->Lookup(coordinator) : nullptr;
  if (coord_server == nullptr || !ctx.cluster->Contains(coordinator) ||
      !ctx.cluster->Get(coordinator).IsServing()) {
    outcome.status = Status::Unavailable("coordinator unavailable");
    return outcome;
  }

  // Dim freshness epochs (one per join, join order) from the
  // coordinator's resident replicas — every replica carries the same
  // deployment-stamped value, so the coordinator's copy speaks for the
  // region. 0 when a replica is missing here (the leaves then fail with
  // the precise error on the replicated path). Broadcast additionally
  // snapshots the replicas to ship with the subqueries. `base` carries
  // everything every chunk request shares; the partition hosts join it
  // once resolved.
  wire::TreeMergeEnvelope base;
  for (const Join& join : query.joins) {
    const ReplicatedTable* replica =
        coord_server->GetReplicatedTable(join.dimension_table);
    outcome.dim_epochs.push_back(replica != nullptr ? replica->epoch() : 0);
    if (strategy == JoinStrategy::kBroadcast) {
      if (replica == nullptr) {
        outcome.status = Status::Unavailable(
            "broadcast join: dimension table " + join.dimension_table +
            " not resident on the coordinator");
        return outcome;
      }
      base.dims.push_back(*replica);
    }
  }

  // Resolve all partition hosts through the coordinator's local SMC view.
  sm::SmClient client(ctx.discovery, ctx.cluster, coordinator);
  // Partition p's assignment, which retry penalties key on; its
  // execution host (re-resolved after retries) is base.servers[p].
  std::vector<cluster::ServerId> assigned;
  std::set<cluster::ServerId> distinct;
  for (uint32_t p = 0; p < table->num_partitions; ++p) {
    auto shard = ctx.catalog->ShardForPartition(query.table, p);
    if (!shard.ok()) {
      outcome.status = shard.status();
      return outcome;
    }
    auto server = client.ResolveServing(ctx.service, *shard);
    if (!server.ok() && ctx.policy.enabled()) {
      // The local discovery view can be seconds stale (Figure 4c); before
      // giving up on the region, re-resolve against the authoritative
      // root, which already knows a just-published failover replica.
      server = client.ResolveServingFresh(ctx.service, *shard);
    }
    if (!server.ok()) {
      // Partition unavailable in this region: fail so the proxy retries
      // against a different region.
      outcome.status = Status::Unavailable(
          "partition " + PartitionName(query.table, p) +
          " unavailable in region " + std::to_string(ctx.region) + ": " +
          server.status().message());
      outcome.latency = ctx.network_model.SampleHop(rng);
      return outcome;
    }
    assigned.push_back(*server);
    base.partitions.push_back(p);
    base.servers.push_back(*server);
    distinct.insert(*server);
  }
  outcome.fanout = static_cast<int>(distinct.size());

  // Merge topology: the plan pins it. A tree with a single partial is
  // meaningless, so it degrades to flat.
  const size_t num_leaves = assigned.size();
  const bool tree = plan.merge_fanin >= 2 && num_leaves > 1;
  const int fanin = plan.merge_fanin;
  outcome.strategy = strategy;
  outcome.merge_fanin = tree ? fanin : 0;
  outcome.tree_depth =
      tree ? TreeDepth(static_cast<int>(num_leaves), fanin) : 0;
  // The executed plan's shape, for profiles.
  TracePlan(trace, t0, strategy, tree ? fanin : 0,
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

  const SubqueryPolicy& policy = ctx.policy;
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
  // Converts a failure surfacing at `spent` into the status the client
  // actually observes: past the deadline the caller has already hung up,
  // so the attempt reports kDeadlineExceeded capped at the budget.
  auto deadline_capped = [&](SimDuration spent, Status status) {
    if (deadline_budget > 0 && spent >= deadline_budget) {
      cancel.RequestCancel();
      outcome.status = Status::DeadlineExceeded(
          "attempt exceeded remaining deadline budget of " +
          FormatDuration(deadline_budget));
      outcome.latency = deadline_budget;
    } else {
      outcome.status = std::move(status);
      outcome.latency = spent;
    }
  };

  // Per-host transient failure draws: each participating server
  // independently fails the request with probability p (Figures 1-2).
  // Instead of failing the whole in-region attempt on the first bad
  // draw, the coordinator retries the host's subqueries with exponential
  // backoff — re-resolved below through the authoritative SmClient view,
  // so a shard that failed over mid-query lands on its new replica.
  // Retries push the effective per-host failure probability down from p
  // to p^(1+retries), which directly moves the Figure 1/2 wall outward.
  std::map<cluster::ServerId, SimDuration> host_penalty;
  std::set<cluster::ServerId> reresolve;
  for (cluster::ServerId server : distinct) {
    SimDuration penalty = 0;
    int tries = 0;
    while (ctx.failure_model.Fails(rng)) {
      // The failure surfaces roughly when the subquery would have
      // completed (or timed out).
      const SimDuration failed_at = penalty;
      penalty += ctx.network_model.SampleHop(rng) +
                 ctx.latency_model.Sample(rng);
      if (tries >= policy.max_subquery_retries) {
        obs::TraceContext fspan = trace.Child(
            "failure s" + std::to_string(server), t0 + failed_at);
        fspan.Annotate("server", std::to_string(server));
        fspan.End(t0 + penalty);
        deadline_capped(penalty,
                        Status::Unavailable(
                            "server " + std::to_string(server) +
                            " failed during query execution"));
        outcome.failed_server = server;
        return outcome;
      }
      penalty += policy.retry_backoff << tries;
      // Span covering the failed draw plus the backoff before the retry
      // re-dispatches against the re-resolved replica.
      obs::TraceContext rspan = trace.Child(
          "retry s" + std::to_string(server) + " t" + std::to_string(tries),
          t0 + failed_at);
      rspan.Annotate("server", std::to_string(server));
      rspan.End(t0 + penalty);
      ++tries;
      ++outcome.subquery_retries;
      reresolve.insert(server);
      if (deadline_budget > 0 && penalty >= deadline_budget) {
        cancel.RequestCancel();
        outcome.status = Status::DeadlineExceeded(
            "subquery retries exhausted the remaining deadline budget of " +
            FormatDuration(deadline_budget));
        outcome.latency = deadline_budget;
        outcome.failed_server = server;
        return outcome;
      }
    }
    if (penalty > 0) host_penalty[server] = penalty;
  }

  // Assignments are resolved before dispatch: tree chunks ship them to
  // their aggregators pre-resolved (so a divergent discovery view cannot
  // split the tree), so any retry-driven re-resolution against the
  // authoritative view happens here, for flat and tree plans alike.
  for (uint32_t p = 0; p < num_leaves; ++p) {
    if (reresolve.count(assigned[p]) == 0) continue;
    auto shard = ctx.catalog->ShardForPartition(query.table, p);
    if (!shard.ok()) continue;
    auto fresh = client.ResolveServingFresh(ctx.service, *shard);
    if (fresh.ok()) base.servers[p] = *fresh;
  }

  // Subqueries still outstanding at the hedge quantile of the latency
  // model get a duplicate dispatch; the first completion wins, taming
  // the max-over-N tail that drives Figure 5.
  const SimDuration hedge_delay =
      policy.hedge_quantile > 0.0
          ? ctx.latency_model.Quantile(policy.hedge_quantile)
          : 0;
  // Per-partial merge cost (planner.h): the term that makes the flat
  // coordinator fan-in a wall. 0 (the default) reproduces the seed
  // timing exactly.
  const SimDuration per_partial = ctx.planner.merge_cost_per_partial;
  std::vector<int> fhops(num_leaves, 0);

  // Subquery span, opened before dispatch so the server's partition (and
  // morsel) spans nest under it; its extent is fixed once the modeled
  // chain latency is known.
  auto open_subquery = [&](const obs::TraceContext& parent, size_t i) {
    obs::TraceContext sspan =
        parent.Child("subquery p" + std::to_string(i), t0);
    sspan.Annotate("server", std::to_string(base.servers[i]));
    return sspan;
  };
  // Modeled latency of one leaf subquery (in parallel in simulated time
  // with its siblings): hop from its parent (plus any migration
  // forwarding hops), scan-queue wait and service draw, hedged per
  // policy, plus the host's retry penalty.
  auto model_leaf = [&](size_t i, cluster::ServerId parent_host,
                        const obs::TraceContext& sspan) -> SimDuration {
    const cluster::ServerId host = base.servers[i];
    SimDuration hop = host == parent_host
                          ? 0
                          : ctx.network_model.SampleHop(rng);
    for (int h = 0; h < fhops[i]; ++h) {
      hop += ctx.network_model.SampleHop(rng);
    }
    SimDuration service = ctx.latency_model.Sample(rng);
    // Charge the scan against the host's virtual scan queue: under
    // overload all slots are busy and the subquery waits for one, which
    // is exactly how real backends degrade — and the backlog this builds
    // is the overload signal the proxy's admission control sheds on.
    // A no-op (0 wait) when the server's virtual_scan_slots is 0.
    CubrickServer* server = ctx.directory->Lookup(host);
    const SimDuration scan_wait =
        server != nullptr ? server->EnqueueScan(t0 + hop, service) : 0;
    {
      // The modeled scan (slot wait + service draw) as a "scan" span:
      // the server's partition span is instantaneous in the simulator
      // (the draw happens here, after it returned), so this span is
      // what carries the subquery's scan time into profiles.
      obs::TraceContext scspan = sspan.Child(
          "scan p" + std::to_string(i), t0 + hop);
      if (scan_wait > 0) {
        scspan.Annotate("slot_wait", std::to_string(scan_wait));
      }
      scspan.End(t0 + hop + scan_wait + service);
    }
    SimDuration chain = hop + scan_wait + service;
    if (hedge_delay > 0 && chain > hedge_delay) {
      ++outcome.hedges_fired;
      // The hedge goes to a duplicate replica, not back into this host's
      // scan queue — it is left uncharged in the overload model.
      SimDuration hedged = hedge_delay + ctx.network_model.SampleHop(rng) +
                           ctx.latency_model.Sample(rng);
      obs::TraceContext hspan = sspan.Child("hedge", t0 + hedge_delay);
      hspan.Annotate("won", hedged < chain ? "true" : "false");
      hspan.End(t0 + hedged);
      if (hedged < chain) {
        ++outcome.hedge_wins;
        chain = hedged;
      }
    }
    auto it = host_penalty.find(assigned[i]);
    if (it != host_penalty.end()) chain += it->second;
    if (hop > 0) {
      // The modeled wire time (parent -> host hop plus any forwarding
      // hops) as a "net" child, so profiles can split subquery wall time
      // into net vs scan.
      obs::TraceContext nspan = sspan.Child(
          "net s" + std::to_string(host), t0);
      nspan.End(t0 + hop);
    }
    sspan.End(t0 + chain);
    // The RTT histogram records the modeled chain latency, which is only
    // known now — after hedging and retry penalties resolved — not at
    // Call time.
    ctx.transport->RecordModeledRtt(static_cast<double>(chain) / 1000.0);
    return chain;
  };
  // A subtree's modeled latency: interior nodes charge their own merge
  // (overhead + children * per_partial) plus one forwarding hop toward
  // their parent.
  std::function<SimDuration(size_t, size_t, cluster::ServerId,
                            const obs::TraceContext&)>
      model_subtree = [&](size_t lo, size_t hi,
                          cluster::ServerId parent_host,
                          const obs::TraceContext& parent_span)
      -> SimDuration {
    if (hi - lo == 1) {
      return model_leaf(lo, parent_host, open_subquery(parent_span, lo));
    }
    const cluster::ServerId agg = base.servers[lo];
    // NOT the exact string "merge": profiles fold exact-"merge" spans
    // into the coordinator merge share, and a subtree merge is
    // precisely the work the tree moved OFF the coordinator.
    obs::TraceContext tspan = parent_span.Child(
        "tree merge p" + std::to_string(lo) + "-p" + std::to_string(hi - 1),
        t0);
    tspan.Annotate("server", std::to_string(agg));
    const size_t chunk = static_cast<size_t>(
        TreeChunkSize(static_cast<int>(hi - lo), fanin));
    SimDuration slowest_child = 0;
    size_t num_chunks = 0;
    for (size_t clo = lo; clo < hi; clo += chunk) {
      const size_t chi = std::min(clo + chunk, hi);
      slowest_child =
          std::max(slowest_child, model_subtree(clo, chi, agg, tspan));
      ++num_chunks;
    }
    SimDuration chain = slowest_child + ctx.merge_overhead +
                        static_cast<SimDuration>(num_chunks) * per_partial;
    if (agg != parent_host) {
      const SimDuration hop = ctx.network_model.SampleHop(rng);
      obs::TraceContext nspan =
          tspan.Child("net s" + std::to_string(agg), t0 + chain);
      nspan.End(t0 + chain + hop);
      chain += hop;
    }
    tspan.End(t0 + chain);
    return chain;
  };

  // Fan the top-level chunks out and fold them in ascending chunk order:
  // a flat plan's chunks are single subqueries; a tree plan's
  // multi-partition chunks travel as one kTreeMergeRequest to their
  // aggregator (the host of the chunk's first partition), which
  // executes/forwards and folds its subtree in ascending partition
  // order. Each chunk is modeled as it folds. The attempt's latency is
  // the slowest chunk chain plus the coordinator's own (chunk-wide)
  // merge.
  base.fanin = fanin;
  base.cache_policy = ectx.cache_policy;
  base.remaining_budget = deadline_budget;
  base.pool_path = ectx.pool_path;
  net::CallOptions call;
  call.sideband.cancel = &cancel;
  call.sideband.trace = trace;
  call.sideband.trace_time = t0;

  std::vector<obs::TraceContext> sspans(num_leaves);
  SimDuration slowest = 0;
  size_t top_chunks = 0;
  ChunkHooks hooks;
  hooks.trace = [&](size_t lo, size_t hi, net::CallSideband* sideband,
                    std::string*) {
    if (hi - lo == 1) sideband->trace = sspans[lo] = open_subquery(trace, lo);
  };
  hooks.fold = [&](size_t lo, size_t hi, Result<wire::TreeMergeResult> reply,
                   std::string_view) -> Status {
    if (!reply.ok()) {
      outcome.latency =
          ctx.network_model.SampleHop(rng) + ctx.latency_model.Sample(rng);
      // A leaf's subquery span records the failure (a subtree has none).
      sspans[lo].Annotate("status",
                          std::string(StatusCodeName(reply.status().code())));
      sspans[lo].End(t0 + outcome.latency);
      outcome.failed_server = base.servers[lo];
      return reply.status();
    }
    for (size_t i = lo; i < hi; ++i) {
      outcome.partition_epochs[i] = reply->epochs[i - lo];
      fhops[i] = reply->forward_hops[i - lo];
    }
    outcome.result.Merge(reply->result);
    const SimDuration chain =
        hi - lo == 1 ? model_leaf(lo, coordinator, sspans[lo])
                     : model_subtree(lo, hi, coordinator, trace);
    slowest = std::max(slowest, chain);
    ++top_chunks;
    return Status::Ok();
  };
  outcome.status =
      FanOutChunks(ctx.transport, base, 0, num_leaves, call, hooks);
  if (!outcome.status.ok()) return outcome;
  const SimDuration root_merge =
      ctx.merge_overhead + static_cast<SimDuration>(top_chunks) * per_partial;
  outcome.latency = slowest + root_merge;
  if (root_merge > 0) {
    // The modeled coordinator-side merge, anchored where the slowest
    // chunk chain completed — the same "merge" vocabulary the node path
    // records, so BuildQueryProfile folds both identically.
    obs::TraceContext mspan = trace.Child("merge", t0 + slowest);
    mspan.End(t0 + slowest + root_merge);
  }

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
    const std::map<uint32_t, QueryResult> buckets = BucketShuffleGroups(
        outcome.result, query.joins.size(), num_buckets,
        query.aggregations.size());
    const int64_t rows_scanned = outcome.result.rows_scanned;
    const int64_t bricks_scanned = outcome.result.bricks_scanned;
    const int64_t bricks_pruned = outcome.result.bricks_pruned;
    const int64_t bricks_rle_skipped = outcome.result.bricks_rle_skipped;
    QueryResult mapped_total(query.aggregations.size());
    const SimTime t_fan = t0 + outcome.latency;
    SimDuration stage2_max = 0;
    for (const auto& [b, bucket] : buckets) {
      const cluster::ServerId map_server = hosts_sorted[b % num_hosts];
      auto mapped = CallShuffleMap(*ctx.transport, map_server, query, bucket,
                                   trace, t_fan);
      if (!mapped.ok()) {
        outcome.status = mapped.status();
        outcome.failed_server = map_server;
        outcome.latency += ctx.network_model.SampleHop(rng) +
                           ctx.latency_model.Sample(rng);
        return outcome;
      }
      // One modeled round-trip + per-group mapping cost per bucket; the
      // buckets run in parallel in simulated time.
      obs::TraceContext bspan =
          trace.Child("shuffle b" + std::to_string(b), t_fan);
      bspan.Annotate("server", std::to_string(map_server));
      const SimDuration hop = map_server == coordinator
                                  ? 0
                                  : ctx.network_model.SampleHop(rng);
      const SimDuration chain =
          hop + ctx.merge_overhead +
          static_cast<SimDuration>(bucket.num_groups()) * per_partial;
      if (hop > 0) {
        obs::TraceContext nspan =
            bspan.Child("net s" + std::to_string(map_server), t_fan);
        nspan.End(t_fan + hop);
      }
      bspan.End(t_fan + chain);
      stage2_max = std::max(stage2_max, chain);
      mapped_total.Merge(*mapped);
    }
    const SimDuration final_merge =
        ctx.merge_overhead +
        static_cast<SimDuration>(buckets.size()) * per_partial;
    outcome.latency += stage2_max + final_merge;
    if (final_merge > 0) {
      obs::TraceContext mspan = trace.Child("merge", t_fan + stage2_max);
      mspan.End(t_fan + stage2_max + final_merge);
    }
    mapped_total.rows_scanned = rows_scanned;
    mapped_total.bricks_scanned = bricks_scanned;
    mapped_total.bricks_pruned = bricks_pruned;
    mapped_total.bricks_rle_skipped = bricks_rle_skipped;
    outcome.result = std::move(mapped_total);
  }

  if (deadline_budget > 0 && outcome.latency > deadline_budget) {
    // The merged answer arrived after the client's deadline: it is
    // discarded, not returned late.
    cancel.RequestCancel();
    outcome.status = Status::DeadlineExceeded(
        "attempt completed after the remaining deadline budget of " +
        FormatDuration(deadline_budget));
    outcome.latency = deadline_budget;
    outcome.result = QueryResult(query.aggregations.size());
    return outcome;
  }
  outcome.status = Status::Ok();
  return outcome;
}

}  // namespace scalewall::cubrick
