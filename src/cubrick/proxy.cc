#include "cubrick/proxy.h"

#include <algorithm>

#include "common/logging.h"
#include "cubrick/net_service.h"
#include "sm/sm_client.h"

namespace scalewall::cubrick {

std::string_view CoordinatorStrategyName(CoordinatorStrategy strategy) {
  switch (strategy) {
    case CoordinatorStrategy::kPartitionZero:
      return "partition_zero";
    case CoordinatorStrategy::kForwardFromZero:
      return "forward_from_zero";
    case CoordinatorStrategy::kLookupThenRandom:
      return "lookup_then_random";
    case CoordinatorStrategy::kCachedRandom:
      return "cached_random";
  }
  return "?";
}

namespace {

// Approximate bytes of a materialized row set — the presentation half
// of a merged-cache entry's cost.
size_t ApproxRowsBytes(const std::vector<ResultRow>& rows) {
  size_t bytes = 0;
  for (const ResultRow& row : rows) {
    bytes += 48 + row.key.size() * sizeof(uint32_t) +
             row.values.size() * sizeof(double);
  }
  return bytes;
}

// Deadline resolution order: per-request override, then the query's own
// deadline, then the proxy default (0 = unlimited).
SimDuration EffectiveDeadline(const QueryRequest& request,
                              const ProxyOptions& options) {
  if (request.deadline > 0) return request.deadline;
  if (request.query.deadline > 0) return request.query.deadline;
  return options.default_deadline;
}

}  // namespace

CubrickProxy::Stats::Stats(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  submitted = registry->GetCounter("scalewall_proxy_queries_total",
                                   {{"result", "submitted"}});
  succeeded = registry->GetCounter("scalewall_proxy_queries_total",
                                   {{"result", "succeeded"}});
  failed = registry->GetCounter("scalewall_proxy_queries_total",
                                {{"result", "failed"}});
  rejected = registry->GetCounter("scalewall_proxy_queries_total",
                                  {{"result", "rejected"}});
  retried = registry->GetCounter("scalewall_proxy_retried_queries_total");
  cross_region_retries =
      registry->GetCounter("scalewall_proxy_cross_region_retries_total");
  blacklist_hits = registry->GetCounter("scalewall_proxy_blacklist_hits_total");
  extra_hops = registry->GetCounter("scalewall_proxy_extra_hops_total");
  extra_roundtrips =
      registry->GetCounter("scalewall_proxy_extra_roundtrips_total");
  subquery_retries =
      registry->GetCounter("scalewall_proxy_subquery_retries_total");
  hedges_fired = registry->GetCounter("scalewall_proxy_hedges_total",
                                      {{"result", "fired"}});
  hedge_wins = registry->GetCounter("scalewall_proxy_hedges_total",
                                    {{"result", "won"}});
  deadline_exceeded =
      registry->GetCounter("scalewall_proxy_deadline_exceeded_total");
  cache_hits = registry->GetCounter("scalewall_proxy_cache_total",
                                    {{"result", "validated_hit"}});
  cache_misses = registry->GetCounter("scalewall_proxy_cache_total",
                                      {{"result", "miss"}});
  cache_validation_failures = registry->GetCounter(
      "scalewall_proxy_cache_total", {{"result", "validation_failure"}});
  cache_stale_serves = registry->GetCounter("scalewall_proxy_cache_total",
                                            {{"result", "stale_serve"}});
  plan_replicated = registry->GetCounter("scalewall_plan_total",
                                         {{"strategy", "replicated"}});
  plan_broadcast = registry->GetCounter("scalewall_plan_total",
                                        {{"strategy", "broadcast"}});
  plan_shuffle =
      registry->GetCounter("scalewall_plan_total", {{"strategy", "shuffle"}});
  tree_merge_queries =
      registry->GetCounter("scalewall_tree_merge_queries_total");
  attempt_latency_ms = registry->GetHistogram(
      "scalewall_proxy_attempt_latency_ms", {}, /*min_value=*/0.001);
  query_latency_ms = registry->GetHistogram("scalewall_proxy_query_latency_ms",
                                            {}, /*min_value=*/0.001);
}

CubrickProxy::CubrickProxy(sim::Simulation* simulation,
                           cluster::Cluster* cluster, Catalog* catalog,
                           ProxyOptions options)
    : simulation_(simulation),
      cluster_(cluster),
      catalog_(catalog),
      options_(options),
      rng_(simulation->rng().Fork(/*stream=*/0x9C0A7)),
      stats_(options_.metrics) {
  if (options_.merged_cache_bytes > 0) {
    merged_cache_ =
        std::make_unique<MergedResultCache>(options_.merged_cache_bytes);
  }
  if (options_.enable_admission) {
    if (options_.admission.metrics == nullptr) {
      options_.admission.metrics = options_.metrics;
    }
    admission_ =
        std::make_unique<admit::AdmissionController>(options_.admission);
  }
}

MergedResultCache::Snapshot CubrickProxy::MergedCacheSnapshot() const {
  if (merged_cache_ == nullptr) return {};
  return merged_cache_->snapshot();
}

void CubrickProxy::CountCoordinatorPick(cluster::ServerId server) {
  auto it = stats_.coordinator_picks.find(server);
  if (it == stats_.coordinator_picks.end()) {
    obs::Counter picks;
    if (options_.metrics != nullptr) {
      picks = options_.metrics->GetCounter("scalewall_proxy_coordinator_picks",
                                           {{"server", std::to_string(server)}});
    }
    it = stats_.coordinator_picks.emplace(server, picks).first;
  }
  ++it->second;
}

void CubrickProxy::AddRegion(RegionContext* context) {
  regions_.push_back(context);
}

uint32_t CubrickProxy::CachedPartitions(const std::string& table) const {
  auto it = partition_cache_.find(table);
  return it == partition_cache_.end() ? 0 : it->second;
}

bool CubrickProxy::RegionAvailable(const RegionContext& ctx) const {
  std::vector<cluster::ServerId> all =
      cluster_->ServersInRegion(ctx.region);
  if (all.empty()) return false;
  // Draining servers still answer in-flight traffic but the region is
  // being taken out of rotation ("entire regions might be down or
  // drained"), so only fully healthy servers count as available here.
  int healthy = 0;
  for (cluster::ServerId id : all) {
    if (cluster_->Get(id).health == cluster::ServerHealth::kHealthy) {
      ++healthy;
    }
  }
  return static_cast<double>(healthy) / static_cast<double>(all.size()) >=
         options_.min_region_availability;
}

double CubrickProxy::BackendOverload(cluster::RegionId preferred_region) {
  if (options_.overload_sample_servers <= 0 || regions_.empty()) return 0.0;
  const SimTime now = simulation_->now();
  OverloadSample& sample = overload_samples_[preferred_region];
  if (sample.valid && now - sample.at < options_.overload_refresh) {
    return sample.score;
  }
  // The preferred region's context (fall back to the first registered
  // one — the shed decision needs *a* backend signal, not a perfect
  // one).
  RegionContext* ctx = regions_.front();
  for (RegionContext* candidate : regions_) {
    if (candidate->region == preferred_region) {
      ctx = candidate;
      break;
    }
  }
  // Deterministic subset: the first N servers of the region in fleet
  // order. Sampling draws no randomness, so polling the signal never
  // perturbs query execution.
  double total = 0.0;
  int polled = 0;
  for (cluster::ServerId id : cluster_->ServersInRegion(ctx->region)) {
    if (polled >= options_.overload_sample_servers) break;
    CubrickServer* server =
        ctx->directory != nullptr ? ctx->directory->Lookup(id) : nullptr;
    if (server == nullptr) continue;
    total += server->CurrentOverload(now).score;
    ++polled;
  }
  sample.valid = true;
  sample.at = now;
  sample.score = polled > 0 ? total / polled : 0.0;
  return sample.score;
}

bool CubrickProxy::Blacklisted(cluster::ServerId server) const {
  auto it = blacklist_.find(server);
  return it != blacklist_.end() && it->second > simulation_->now();
}

void CubrickProxy::RecordFailure(cluster::ServerId server) {
  // Blacklist only on a failure streak: one transient error is not a
  // dead host, but several within a window very likely is.
  SimTime now = simulation_->now();
  auto& [count, since] = failures_[server];
  if (count == 0 || now - since > options_.blacklist_duration) {
    // First failure, or the previous streak aged out: (re)arm the window.
    count = 1;
    since = now;
  } else if (++count >= options_.blacklist_threshold) {
    blacklist_[server] = now + options_.blacklist_duration;
    // Drop the streak entirely so the next failure after the blacklist
    // expires starts a *fresh* window instead of comparing against the
    // old streak's stale `since`.
    failures_.erase(server);
  }
}

void CubrickProxy::SweepExpired() {
  SimTime now = simulation_->now();
  if (now - last_sweep_ < options_.blacklist_duration) return;
  last_sweep_ = now;
  std::erase_if(blacklist_,
                [now](const auto& entry) { return entry.second <= now; });
  std::erase_if(failures_, [this, now](const auto& entry) {
    return now - entry.second.second > options_.blacklist_duration;
  });
}

Result<cluster::ServerId> CubrickProxy::PickCoordinator(
    RegionContext& ctx, const Query& query, SimDuration& extra_latency) {
  auto table = catalog_->GetTable(query.table);
  if (!table.ok()) return table.status();
  uint32_t actual = table->num_partitions;

  // The proxy resolves coordinators through its own local SMC proxy view
  // (the proxy is itself a fleet service).
  sm::SmClient client(ctx.discovery, ctx.cluster, /*viewer=*/0);

  auto resolve = [&](uint32_t partition) -> Result<cluster::ServerId> {
    auto shard = catalog_->ShardForPartition(query.table, partition);
    if (!shard.ok()) return shard.status();
    return client.ResolveServing(ctx.service, *shard);
  };

  uint32_t partition = 0;
  switch (options_.strategy) {
    case CoordinatorStrategy::kPartitionZero:
      partition = 0;
      break;
    case CoordinatorStrategy::kForwardFromZero: {
      // Reach partition 0's host first, then it forwards the connection
      // to a random partition: one extra network hop, "particularly bad
      // when retrieving large buffers".
      auto zero = resolve(0);
      if (!zero.ok()) return zero.status();
      extra_latency += ctx.network_model.SampleHop(rng_);
      ++stats_.extra_hops;
      partition = static_cast<uint32_t>(rng_.NextBounded(actual));
      break;
    }
    case CoordinatorStrategy::kLookupThenRandom:
      // One extra metadata roundtrip to learn the partition count before
      // the query can start.
      extra_latency +=
          ctx.network_model.SampleHop(rng_) + ctx.network_model.SampleHop(rng_);
      ++stats_.extra_roundtrips;
      partition = static_cast<uint32_t>(rng_.NextBounded(actual));
      break;
    case CoordinatorStrategy::kCachedRandom: {
      uint32_t cached = CachedPartitions(query.table);
      if (cached == 0) {
        // Cold cache: fall back to a lookup once.
        extra_latency += ctx.network_model.SampleHop(rng_) +
                         ctx.network_model.SampleHop(rng_);
        ++stats_.extra_roundtrips;
        cached = actual;
        partition_cache_[query.table] = cached;
      }
      partition = static_cast<uint32_t>(rng_.NextBounded(cached));
      if (partition >= actual) {
        // Stale cache after a shrink repartition; partition 0 always
        // exists.
        partition = 0;
      }
      break;
    }
  }

  // Avoid blacklisted coordinators by re-rolling a few times.
  for (int attempt = 0; attempt < 4; ++attempt) {
    auto server = resolve(partition);
    if (server.ok() && !Blacklisted(*server)) {
      CountCoordinatorPick(*server);
      return server;
    }
    if (server.ok()) ++stats_.blacklist_hits;
    if (options_.strategy == CoordinatorStrategy::kPartitionZero) {
      // Strategy 1 has no alternative coordinator.
      if (server.ok()) {
        CountCoordinatorPick(*server);
        return server;  // use it even though blacklisted
      }
      return server.status();
    }
    partition = static_cast<uint32_t>(rng_.NextBounded(actual));
  }
  return Status::Unavailable("no eligible coordinator in region " +
                             std::to_string(ctx.region));
}

std::vector<QueryTrace> CubrickProxy::RecentTraces(size_t limit) const {
  // Newest first; copies only the requested window instead of the whole
  // ring buffer.
  size_t n = traces_.size();
  if (limit > 0 && limit < n) n = limit;
  std::vector<QueryTrace> out;
  out.reserve(n);
  for (auto it = traces_.rbegin(); it != traces_.rend() && out.size() < n;
       ++it) {
    out.push_back(*it);
  }
  return out;
}

QueryOutcome CubrickProxy::Submit(const QueryRequest& request) {
  const Query& query = request.query;
  const SimTime start = simulation_->now();
  obs::TraceContext root;
  // profile=true forces the trace on even when tracing was opted out —
  // the profile is derived from the span tree (same rule as ProxyCore).
  if (options_.trace_sink != nullptr && (request.tracing || request.profile)) {
    root = options_.trace_sink->StartTrace("query " + query.table, start);
    root.Annotate("pool", admit::NormalizePoolPath(request.claim.pool_path));
    const SimDuration budget = EffectiveDeadline(request, options_);
    if (budget > 0) root.Annotate("deadline", std::to_string(budget));
  }
  ++stats_.submitted;
  SweepExpired();

  // Admission pipeline: every submission passes the front door before
  // any cache lookup or region work. A rejection costs no network hops
  // and no backend work — that is the point of shedding at the proxy.
  QueryOutcome outcome;
  bool execute = true;
  uint64_t ticket = 0;
  SimDuration queue_wait = 0;
  // Query-level cancellation token: admission min-share preemption
  // flips it (via the ticket) and the execution layers chain their
  // per-attempt tokens to it. Created only when admission is on — the
  // unclaimed path has nothing that could preempt it.
  std::shared_ptr<exec::CancelToken> preempt_cancel;
  if (admission_ != nullptr) {
    admit::RequestInfo info;
    info.now = start;
    info.pool_path = request.claim.pool_path;
    info.priority = request.claim.priority;
    info.weight_hint = request.claim.weight_hint;
    info.deadline = EffectiveDeadline(request, options_);
    info.backend_overload = BackendOverload(request.preferred_region);
    const admit::Decision decision = admission_->Admit(info);
    if (!decision.admitted) {
      ++stats_.rejected;
      std::string message =
          "admission control: " +
          std::string(admit::RejectReasonName(decision.reason));
      if (decision.retry_after > 0) {
        message += "; retry after " + FormatDuration(decision.retry_after);
      }
      outcome.status = Status::ResourceExhausted(message);
      outcome.retry_after = decision.retry_after;
      if (root.active()) {
        root.Annotate("admission",
                      std::string(admit::RejectReasonName(decision.reason)));
      }
      execute = false;
    } else {
      ticket = decision.ticket;
      queue_wait = decision.queue_wait;
      preempt_cancel = std::make_shared<exec::CancelToken>();
      admission_->AttachCancel(ticket, preempt_cancel);
      if (queue_wait > 0 && root.active()) {
        // The virtual wait for a concurrency slot, visible in the trace
        // as a span between submission and the first attempt.
        obs::TraceContext qspan = root.Child("admission queue", start);
        qspan.Annotate("predicted_service",
                       FormatDuration(decision.predicted_service));
        qspan.End(start + queue_wait);
      }
    }
  }
  if (execute) {
    outcome = SubmitInternal(request, start, root, queue_wait,
                             preempt_cancel.get());
    outcome.queue_wait = queue_wait;
    if (admission_ != nullptr) {
      // Feed the estimator the service time net of the admission wait
      // (waiting for a slot is not backend work), and re-time this
      // query's reservation to when it actually completes.
      admission_->OnComplete(ticket, outcome.latency - queue_wait);
    }
  }
  if (root.active()) {
    root.Annotate("status", std::string(StatusCodeName(outcome.status.code())));
    root.Annotate("attempts", std::to_string(outcome.attempts));
    root.Annotate("fanout", std::to_string(outcome.fanout));
    root.End(start + outcome.latency);
    outcome.trace_id = root.trace;
  }
  if (options_.trace_capacity > 0) {
    QueryTrace trace;
    trace.time = simulation_->now();
    trace.table = query.table;
    trace.region = outcome.region;
    trace.attempts = outcome.attempts;
    trace.status = outcome.status.code();
    trace.latency = outcome.latency;
    trace.fanout = outcome.fanout;
    trace.AccumulateReliability(outcome);
    trace.served_stale = outcome.served_stale;
    trace.deadline = EffectiveDeadline(request, options_);
    trace.trace_id = root.trace;
    trace.pool = admit::NormalizePoolPath(request.claim.pool_path);
    trace.priority = request.claim.priority;
    trace.queue_wait = queue_wait;
    // Cap *before* pushing so the deque never exceeds trace_capacity,
    // even transiently (and shrinks promptly if the cap is lowered).
    while (traces_.size() >= options_.trace_capacity) traces_.pop_front();
    traces_.push_back(std::move(trace));
  }
  return outcome;
}

bool CubrickProxy::TryServeValidated(const QueryRequest& request,
                                     const std::string& fingerprint,
                                     const obs::TraceContext& root,
                                     QueryOutcome& outcome) {
  MergedCacheEntry entry;
  if (!merged_cache_->Get(fingerprint, &entry)) {
    ++stats_.cache_misses;
    return false;
  }
  // Validation needs the cached region's live view: its epoch vector is
  // only comparable against the same region's copy.
  RegionContext* ctx = nullptr;
  for (RegionContext* candidate : regions_) {
    if (candidate->region == entry.region) {
      ctx = candidate;
      break;
    }
  }
  if (ctx == nullptr || !RegionAvailable(*ctx)) {
    ++stats_.cache_validation_failures;
    return false;
  }
  // One metadata roundtrip (proxy -> region -> proxy) instead of the
  // full fan-out: this is where repeated queries breach the wall — two
  // network hops against a service-latency-dominated execution.
  const SimDuration check_latency =
      ctx->network_model.SampleHop(rng_) + ctx->network_model.SampleHop(rng_);
  outcome.latency += check_latency;
  // The probe is a metadata roundtrip to the region's epoch endpoint.
  // Joined dim tables ride the same probe: their epochs sit after the
  // partition epochs in the entry's vector, so a dim update invalidates
  // exactly like a partition ingest does.
  std::vector<std::string> dim_tables;
  for (const Join& join : request.query.joins) {
    dim_tables.push_back(join.dimension_table);
  }
  auto epochs = CallEpochs(*ctx->transport, ctx->region, request.query.table,
                           dim_tables);
  ctx->transport->RecordModeledRtt(ToMillis(check_latency));
  if (!epochs.ok() || *epochs != entry.epochs) {
    // Data moved or changed under the entry; the probe's cost is paid
    // and the query falls through to a full execution (which refreshes
    // the entry on success).
    ++stats_.cache_validation_failures;
    return false;
  }
  outcome.status = Status::Ok();
  outcome.result = std::move(entry.result);
  outcome.rows = std::move(entry.rows);
  outcome.region = entry.region;
  outcome.fanout = entry.fanout;
  outcome.num_partitions = entry.num_partitions;
  outcome.cache_hits = 1;
  ++stats_.cache_hits;
  ++stats_.succeeded;
  stats_.query_latency_ms.Add(ToMillis(outcome.latency));
  if (root.active()) root.Annotate("cache", "validated_hit");
  return true;
}

bool CubrickProxy::TryServeStale(const QueryRequest& request,
                                 const std::string& fingerprint,
                                 const obs::TraceContext& root,
                                 QueryOutcome& outcome) {
  (void)request;
  MergedCacheEntry entry;
  if (!merged_cache_->Get(fingerprint, &entry)) return false;
  // Every region failed but the client asked for graceful degradation:
  // serve the last known answer, *clearly flagged* — the one path where
  // a result may lag the data, and only ever on explicit request.
  outcome.status = Status::Ok();
  outcome.result = std::move(entry.result);
  outcome.rows = std::move(entry.rows);
  outcome.region = entry.region;
  outcome.fanout = entry.fanout;
  outcome.num_partitions = entry.num_partitions;
  outcome.served_stale = true;
  outcome.cache_stale_serves = 1;
  ++stats_.cache_stale_serves;
  ++stats_.succeeded;
  stats_.query_latency_ms.Add(ToMillis(outcome.latency));
  if (root.active()) root.Annotate("cache", "stale_serve");
  return true;
}

QueryOutcome CubrickProxy::SubmitInternal(const QueryRequest& request,
                                          SimTime start,
                                          const obs::TraceContext& root,
                                          SimDuration queue_wait,
                                          const exec::CancelToken* cancel) {
  const Query& query = request.query;
  const cluster::RegionId preferred_region = request.preferred_region;
  // The claim's pool rides every execution hop so servers charge scan
  // work back to it.
  const std::string claim_pool =
      admit::NormalizePoolPath(request.claim.pool_path);
  QueryOutcome outcome;
  // The admission queue wait is part of the client-observed latency and
  // of the deadline budget: a query that waited 300ms for a slot has
  // 300ms less to execute in.
  outcome.latency = queue_wait;
  if (regions_.empty()) {
    outcome.status = Status::FailedPrecondition("proxy has no regions");
    return outcome;
  }

  // Merged-result cache. Join queries participate too: dimension tables
  // carry deployment-stamped content epochs, appended after the
  // partition epochs in every entry's validation vector, so a dim
  // update invalidates exactly like a partition ingest (DESIGN.md §15
  // lifts the old joins-never-cached carve-out). When only the
  // server-side caches exist the fingerprint stays empty and servers
  // canonicalize for themselves.
  const bool merged_cacheable =
      merged_cache_ != nullptr &&
      request.cache_policy != cache::CachePolicy::kBypass;
  std::string fingerprint;
  if (merged_cacheable) fingerprint = CanonicalQueryFingerprint(query);
  if (merged_cacheable &&
      request.cache_policy != cache::CachePolicy::kRefresh &&
      TryServeValidated(request, fingerprint, root, outcome)) {
    return outcome;
  }

  // Order regions by proximity: the preferred region first, then the
  // rest; skip unavailable regions.
  std::vector<RegionContext*> order;
  for (RegionContext* ctx : regions_) {
    if (ctx->region == preferred_region) order.push_back(ctx);
  }
  for (RegionContext* ctx : regions_) {
    if (ctx->region != preferred_region) order.push_back(ctx);
  }

  // The end-to-end deadline budget this query runs under (0 = none):
  // every hop and attempt decrements it, so retries and hedges can never
  // run past the SLA the client was promised.
  const SimDuration deadline = EffectiveDeadline(request, options_);

  // Regions are cycled (not visited at most once) until the attempt
  // budget runs out: with two regions and max_attempts = 3, the third
  // attempt returns to the preferred region — a transient in-region
  // failure is retried in-region instead of being forfeited.
  Status last_error = Status::Unavailable("no region available");
  size_t cursor = 0;
  while (outcome.attempts < options_.max_attempts) {
    RegionContext* ctx = nullptr;
    for (size_t i = 0; i < order.size(); ++i) {
      RegionContext* candidate = order[(cursor + i) % order.size()];
      if (RegionAvailable(*candidate)) {
        ctx = candidate;
        cursor = (cursor + i + 1) % order.size();
        break;
      }
    }
    if (ctx == nullptr) break;  // no region currently available
    if (deadline > 0 && outcome.latency >= deadline) {
      last_error = Status::DeadlineExceeded(
          "deadline budget of " + FormatDuration(deadline) +
          " exhausted after " + std::to_string(outcome.attempts) +
          " attempts");
      break;
    }
    ++outcome.attempts;
    outcome.region = ctx->region;
    // Span for this attempt, anchored at the sim-time the attempt begins
    // (submission time plus everything earlier attempts already burned).
    const SimTime attempt_start = start + outcome.latency;
    obs::TraceContext aspan =
        root.Child("attempt " + std::to_string(outcome.attempts),
                   attempt_start);
    aspan.Annotate("region", std::to_string(ctx->region));
    // Client -> proxy -> coordinator network legs.
    SimDuration attempt_latency = ctx->network_model.SampleHop(rng_) +
                                  ctx->network_model.SampleHop(rng_);
    auto coordinator = PickCoordinator(*ctx, query, attempt_latency);
    if (!coordinator.ok()) {
      outcome.latency += attempt_latency;
      last_error = coordinator.status();
      aspan.Annotate("status",
                     std::string(StatusCodeName(last_error.code())));
      aspan.End(attempt_start + attempt_latency);
      if (!coordinator.status().IsRetryable()) break;
      continue;
    }
    aspan.Annotate("coordinator", std::to_string(*coordinator));
    {
      // All pre-dispatch wire time — the client -> proxy -> coordinator
      // legs plus any metadata-resolution hops PickCoordinator charged —
      // as a "net" span so profiles can attribute it.
      obs::TraceContext nspan = aspan.Child("net hops", attempt_start);
      nspan.End(attempt_start + attempt_latency);
    }
    // The coordinator gets whatever budget remains after the time already
    // burned by earlier attempts and this attempt's network legs.
    SimDuration remaining = 0;
    if (deadline > 0) {
      remaining = deadline - outcome.latency - attempt_latency;
      if (remaining <= 0) {
        outcome.latency = deadline;
        last_error = Status::DeadlineExceeded(
            "deadline budget of " + FormatDuration(deadline) +
            " exhausted before dispatch");
        aspan.Annotate("status",
                       std::string(StatusCodeName(last_error.code())));
        aspan.End(start + deadline);
        break;
      }
    }
    // The whole coordinated attempt is a wire call to the coordinator's
    // node endpoint (the proxy's RNG rides the in-process side-band, so
    // draws stay in proxy order) and the plan hints travel in the
    // envelope — the coordinator plans for itself.
    DistributedOutcome attempt = CallCoordinate(
        *ctx->transport, *coordinator, query, remaining, request.cache_policy,
        fingerprint.empty() ? nullptr : &fingerprint,
        attempt_start + attempt_latency, rng_, aspan, request.join_strategy,
        request.merge_fanin, &claim_pool, cancel);
    switch (attempt.strategy) {
      case JoinStrategy::kBroadcast:
        ++stats_.plan_broadcast;
        break;
      case JoinStrategy::kShuffle:
        ++stats_.plan_shuffle;
        break;
      default:
        ++stats_.plan_replicated;
        break;
    }
    if (attempt.merge_fanin >= 2) ++stats_.tree_merge_queries;
    outcome.latency += attempt_latency + attempt.latency;
    ctx->transport->RecordModeledRtt(
        ToMillis(attempt_latency + attempt.latency));
    aspan.Annotate("status",
                   std::string(StatusCodeName(attempt.status.code())));
    aspan.End(attempt_start + attempt_latency + attempt.latency);
    outcome.AccumulateReliability(attempt);
    stats_.AccumulateReliability(attempt);
    stats_.attempt_latency_ms.Add(ToMillis(attempt_latency + attempt.latency));
    if (attempt.status.ok()) {
      // "the number of partitions per table is always included as part of
      // query results metadata, and updates the proxy's cache" — the
      // metadata travels with *results*, so only successful attempts
      // refresh the cache (a failed attempt has no results to carry it).
      if (attempt.num_partitions > 0) {
        partition_cache_[query.table] = attempt.num_partitions;
      }
      ++stats_.succeeded;
      if (outcome.attempts > 1) {
        ++stats_.retried;
        stats_.cross_region_retries += outcome.attempts - 1;
      }
      outcome.status = Status::Ok();
      outcome.result = std::move(attempt.result);
      outcome.rows = MaterializeRows(outcome.result, query);
      outcome.fanout = attempt.fanout;
      outcome.num_partitions = attempt.num_partitions;
      outcome.join_strategy = attempt.strategy;
      outcome.merge_fanin = attempt.merge_fanin;
      outcome.tree_depth = attempt.tree_depth;
      if (merged_cacheable) {
        // Refresh the merged cache with this answer and the epoch
        // vector it was computed against — partition epochs plus one
        // dim epoch per join (kRefresh lands here too).
        MergedCacheEntry entry;
        entry.region = ctx->region;
        entry.epochs = std::move(attempt.partition_epochs);
        entry.epochs.insert(entry.epochs.end(), attempt.dim_epochs.begin(),
                            attempt.dim_epochs.end());
        entry.result = outcome.result;
        entry.rows = outcome.rows;
        entry.fanout = outcome.fanout;
        entry.num_partitions = outcome.num_partitions;
        merged_cache_->Put(fingerprint, std::move(entry),
                           ApproxResultBytes(outcome.result) +
                               ApproxRowsBytes(outcome.rows) +
                               fingerprint.size());
      }
      stats_.query_latency_ms.Add(ToMillis(outcome.latency));
      return outcome;
    }
    last_error = attempt.status;
    if (attempt.failed_server != cluster::kInvalidServer) {
      RecordFailure(attempt.failed_server);
    }
    if (attempt.status.code() == StatusCode::kDeadlineExceeded) {
      // The budget is spent; further attempts would only answer late.
      outcome.latency = deadline > 0 ? deadline : outcome.latency;
      break;
    }
    if (!attempt.status.IsRetryable()) break;
  }
  // Every region failed (or none was available). Under kAllowStale a
  // previously cached merged result is the graceful-degradation answer.
  if (merged_cacheable &&
      request.cache_policy == cache::CachePolicy::kAllowStale &&
      TryServeStale(request, fingerprint, root, outcome)) {
    return outcome;
  }
  ++stats_.failed;
  if (last_error.code() == StatusCode::kDeadlineExceeded) {
    ++stats_.deadline_exceeded;
  }
  outcome.status = last_error;
  return outcome;
}

}  // namespace scalewall::cubrick
