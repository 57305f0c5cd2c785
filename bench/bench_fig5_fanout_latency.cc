// Figure 5: "Query latency for varying fan-out levels" — the paper's
// fan-out experiment: "the same simple query was executed every 500ms for
// about one week in a production cluster, over tables with varying
// fan-out levels (resulting in more than 1M queries per table) ...
// showing how, in practice, higher fan-out queries are more susceptible
// to non-deterministic sources of tail latencies" (y-axis on a log
// scale).
//
// We recreate the experiment on the simulated fleet: one table per
// fan-out level (1, 4, 8, 16, 32, 64 partitions), the same probe query
// fired every 500 ms of simulated time, per-subquery latencies drawn from
// a lognormal body + Pareto tail and per-host transient failures at
// p=0.01%. The shape to reproduce: medians nearly flat across fan-out,
// tail percentiles (p99/p99.9/max) growing strongly with fan-out, success
// ratio dropping with fan-out.
//
// A second pass runs the identical probe with the subquery reliability
// layer enabled (tied-request hedging at the p95 of the latency body +
// 2 in-region subquery retries): hedging collapses the max-over-N tail
// because a single Pareto hiccup no longer decides the query's latency.
//
// With --cache, a third pass repeats the probe with epoch-invalidated
// result caching on: the repeated probe is exactly the dashboard
// workload the merged cache targets, so after the first execution every
// probe is a validated hit costing two network hops instead of a
// fan-out of service-latency draws — latency decouples from fan-out
// entirely.
//
// With --plan, a planner pass (DESIGN.md §15) adds the join-strategy
// and tree-merge series: a bitwise differential proving every join
// strategy x merge topology reproduces the flat/replicated bytes at
// every fan-out, per-strategy join latency percentiles, and — the wall
// this PR moves — the coordinator's fan-in merge share shrinking as the
// k-ary aggregation tree deepens (the pass fails if it doesn't).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "core/deployment.h"
#include "cubrick/planner.h"
#include "obs/profile.h"
#include "workload/generators.h"

using namespace scalewall;

namespace {

const std::vector<uint32_t> kFanouts{1, 4, 8, 16, 32, 64};

struct ProbeResult {
  std::vector<Histogram> latency;
  std::vector<int64_t> failures;
  // Wall-clock (real, not simulated) seconds spent inside dep.Query()
  // across the whole probe loop — the query path only, excluding table
  // load, simulated idle time and any profile extraction by the caller.
  double query_wall_seconds = 0;
};

// Per-fan-out histograms of where each profiled query's time went
// (simulated milliseconds), folded from obs::QueryProfile.
struct BreakdownResult {
  std::vector<Histogram> queue, scan, merge, net;
};

core::DeploymentOptions BaseOptions() {
  core::DeploymentOptions options;
  options.seed = 47;
  options.topology.regions = 1;  // the paper probes one production cluster
  options.topology.racks_per_region = 10;
  options.topology.servers_per_rack = 8;  // 80 servers
  options.max_shards = 50000;
  options.per_host_failure_probability = 0.0001;
  options.proxy_options.max_attempts = 1;  // expose raw attempt behaviour
  options.heartbeat_interval = 30 * kSecond;
  options.session_timeout = 90 * kSecond;
  options.load_balancing.interval = 6 * kHour;
  // Tail latency model: ~1% of subqueries hit a Pareto-tailed hiccup.
  options.latency.median = 20 * kMillisecond;
  options.latency.sigma = 0.25;
  options.latency.tail_probability = 0.01;
  options.latency.tail_scale = 150 * kMillisecond;
  options.latency.tail_shape = 1.6;
  return options;
}

// Creates the per-fan-out tables and runs the 500 ms probe loop.
// `tracing`/`profile` set the per-request telemetry flags; with a
// non-null `breakdown`, every successful query's stitched trace is
// folded through obs::BuildQueryProfile into per-fan-out queue / scan /
// merge / net histograms (the --profile pass).
ProbeResult RunProbes(core::Deployment& dep, int probes, bool tracing = true,
                      bool profile = false,
                      BreakdownResult* breakdown = nullptr) {
  cubrick::TableSchema schema = workload::AdEventsSchema();
  for (uint32_t f : kFanouts) {
    std::string table = "fanout_" + std::to_string(f);
    Status st =
        dep.CreateTable(table, schema, core::TableOptions{.partitions = f});
    if (!st.ok()) {
      std::printf("create %s failed: %s\n", table.c_str(),
                  st.ToString().c_str());
      std::exit(1);
    }
    Rng rng(f);
    dep.LoadRows(table, workload::GenerateRows(schema, 128 * f, rng));
  }
  dep.RunFor(30 * kSecond);

  ProbeResult out;
  out.latency.assign(kFanouts.size(), Histogram(/*min_value=*/0.1));
  out.failures.assign(kFanouts.size(), 0);
  if (breakdown != nullptr) {
    breakdown->queue.assign(kFanouts.size(), Histogram(/*min_value=*/0.0001));
    breakdown->scan.assign(kFanouts.size(), Histogram(/*min_value=*/0.0001));
    breakdown->merge.assign(kFanouts.size(), Histogram(/*min_value=*/0.0001));
    breakdown->net.assign(kFanouts.size(), Histogram(/*min_value=*/0.0001));
  }
  std::vector<cubrick::Query> queries;
  for (uint32_t f : kFanouts) {
    queries.push_back(
        workload::FixedProbeQuery("fanout_" + std::to_string(f), schema));
  }
  for (int i = 0; i < probes; ++i) {
    for (size_t t = 0; t < kFanouts.size(); ++t) {
      cubrick::QueryRequest request(queries[t]);
      request.tracing = tracing;
      request.profile = profile;
      const auto wall0 = std::chrono::steady_clock::now();
      auto outcome = dep.Query(request);
      out.query_wall_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall0)
              .count();
      if (outcome.status.ok()) {
        out.latency[t].Add(ToMillis(outcome.latency));
        if (breakdown != nullptr && outcome.trace_id != 0) {
          obs::QueryProfile p = obs::BuildQueryProfile(
              dep.trace_sink().Spans(outcome.trace_id));
          breakdown->queue[t].Add(p.queue_wait_micros / 1000.0);
          breakdown->scan[t].Add(p.scan_micros / 1000.0);
          breakdown->merge[t].Add(p.merge_micros / 1000.0);
          breakdown->net[t].Add(p.net_micros / 1000.0);
        }
      } else {
        ++out.failures[t];
      }
    }
    dep.RunFor(500 * kMillisecond);
  }
  return out;
}

void PrintPercentiles(const ProbeResult& r) {
  std::printf("%8s %9s %9s %9s %9s %9s %9s %10s\n", "fanout", "p50", "p90",
              "p99", "p99.9", "max", "mean", "success");
  for (size_t t = 0; t < kFanouts.size(); ++t) {
    const Histogram& h = r.latency[t];
    double success =
        static_cast<double>(h.count()) / (h.count() + r.failures[t]);
    std::printf("%8u %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.4f%%\n",
                kFanouts[t], h.P50(), h.P90(), h.P99(), h.P999(), h.max(),
                h.mean(), success * 100);
  }
}

// Bitwise AggState comparison — the planner's byte-identity contract is
// stronger than EXPECT_DOUBLE_EQ (no tolerance at all).
bool SameResult(const cubrick::QueryResult& a, const cubrick::QueryResult& b) {
  if (a.num_groups() != b.num_groups()) return false;
  for (size_t g = 0; g < a.num_groups(); ++g) {
    const cubrick::QueryResult::Group ga = a.group(g);
    const cubrick::QueryResult::Group gb = b.group(g);
    if (!std::ranges::equal(ga.key, gb.key)) return false;
    if (ga.states.size() != gb.states.size()) return false;
    for (size_t i = 0; i < ga.states.size(); ++i) {
      const cubrick::AggState& x = ga.states[i];
      const cubrick::AggState& y = gb.states[i];
      if (std::memcmp(&x.sum, &y.sum, sizeof(double)) != 0 ||
          x.count != y.count ||
          std::memcmp(&x.min, &y.min, sizeof(double)) != 0 ||
          std::memcmp(&x.max, &y.max, sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// The --plan pass: join-strategy and tree-merge series over a fresh
// fleet whose coordinators model a real per-partial fold cost (the
// seed's merge model is a flat 1ms overhead, under which a tree could
// never pay off). Returns false on a differential mismatch or if the
// coordinator merge share fails to shrink with tree depth.
bool RunPlanPass(int probes) {
  core::DeploymentOptions options = BaseOptions();
  options.enable_query_tracing = true;  // profiles drive the share series
  // 500us per folded partial: at fan-out 64 the coordinator's flat
  // fan-in merge costs 1ms + 32ms — a wall worth moving.
  options.planner.merge_cost_per_partial = 500 * kMicrosecond;
  core::Deployment dep(options);

  cubrick::TableSchema schema = workload::AdEventsSchema();
  for (uint32_t f : kFanouts) {
    std::string table = "fanout_" + std::to_string(f);
    Status st =
        dep.CreateTable(table, schema, core::TableOptions{.partitions = f});
    if (!st.ok()) {
      std::printf("create %s failed: %s\n", table.c_str(),
                  st.ToString().c_str());
      return false;
    }
    Rng rng(f);
    dep.LoadRows(table, workload::GenerateRows(schema, 128 * f, rng));
  }
  // A replicated campaign dimension joinable from every fan-out table.
  // Keys divisible by 13 stay unmapped so the inner-join drop path is in
  // every differential below.
  Status st = dep.CreateDimensionTable(
      "campaign_dim", 4096, {cubrick::Dimension{"advertiser", 64, 8}});
  if (!st.ok()) {
    std::printf("create campaign_dim failed: %s\n", st.ToString().c_str());
    return false;
  }
  std::vector<cubrick::DimensionEntry> entries;
  for (uint32_t k = 0; k < 4096; ++k) {
    if (k % 13 == 0) continue;
    entries.push_back(cubrick::DimensionEntry{k, {k % 64}});
  }
  dep.LoadDimensionEntries("campaign_dim", entries);
  dep.RunFor(30 * kSecond);

  // The probe query joined to the dimension: group by the joined
  // advertiser attribute. GenerateRows floors every metric, so SUMs are
  // integral and tree re-association cannot perturb a single bit.
  auto join_query = [&](uint32_t f) {
    cubrick::Query q =
        workload::FixedProbeQuery("fanout_" + std::to_string(f), schema);
    q.joins = {cubrick::Join{3, "campaign_dim", 0}};  // campaign -> dim
    q.group_by_joins = {0};                           // group by advertiser
    q.aggregations.push_back(cubrick::Aggregation{0, cubrick::AggOp::kCount});
    return q;
  };
  auto run_one = [&](const cubrick::Query& q, cubrick::JoinStrategy s,
                     int fanin, bool profile = false) {
    cubrick::QueryRequest request(q);
    request.join_strategy = s;
    request.merge_fanin = fanin;
    request.profile = profile;
    return dep.Query(request);
  };

  bench::Section(
      "plan differential: join strategies x merge topologies, bitwise vs "
      "the flat/replicated seed path");
  const cubrick::JoinStrategy kStrategies[] = {
      cubrick::JoinStrategy::kReplicated, cubrick::JoinStrategy::kBroadcast,
      cubrick::JoinStrategy::kShuffle};
  const int kPinnedFanins[] = {1, 2, 8};  // 1 pins flat
  for (size_t t = 0; t < kFanouts.size(); ++t) {
    cubrick::Query q = join_query(kFanouts[t]);
    auto base = run_one(q, cubrick::JoinStrategy::kReplicated, /*fanin=*/1);
    if (!base.status.ok()) {
      std::printf("baseline join query failed at fanout %u: %s\n",
                  kFanouts[t], base.status.ToString().c_str());
      return false;
    }
    int combos = 0, max_depth = 0;
    for (cubrick::JoinStrategy s : kStrategies) {
      for (int fanin : kPinnedFanins) {
        auto outcome = run_one(q, s, fanin);
        if (!outcome.status.ok()) {
          std::printf("join query (%s, fanin %d) failed at fanout %u: %s\n",
                      std::string(cubrick::JoinStrategyName(s)).c_str(), fanin,
                      kFanouts[t],
                      outcome.status.ToString().c_str());
          return false;
        }
        max_depth = std::max(max_depth, outcome.tree_depth);
        ++combos;
        if (!SameResult(base.result, outcome.result)) {
          std::printf("FAIL: fanout %u strategy %s fanin %d diverged from "
                      "the flat/replicated bytes\n",
                      kFanouts[t], std::string(cubrick::JoinStrategyName(s)).c_str(),
                      fanin);
          return false;
        }
      }
    }
    std::printf("  fanout %2u: %d plans (max tree depth %d) bitwise "
                "identical\n",
                kFanouts[t], combos, max_depth);
    dep.RunFor(500 * kMillisecond);
  }

  bench::Section("join-strategy series: p99 latency (ms) per strategy, "
                 "flat merge pinned; auto column picks its own plan");
  std::printf("%8s %11s %11s %11s %11s  %s\n", "fanout", "replicated",
              "broadcast", "shuffle", "auto", "auto's plan");
  for (size_t t = 0; t < kFanouts.size(); ++t) {
    cubrick::Query q = join_query(kFanouts[t]);
    Histogram repl(0.1), bcast(0.1), shuf(0.1), autos(0.1);
    cubrick::JoinStrategy auto_pick = cubrick::JoinStrategy::kReplicated;
    int auto_fanin = 0, auto_depth = 0;
    for (int i = 0; i < probes; ++i) {
      auto add = [&](Histogram& h, cubrick::JoinStrategy s, int fanin) {
        auto outcome = run_one(q, s, fanin);
        if (outcome.status.ok()) h.Add(ToMillis(outcome.latency));
        return outcome;
      };
      add(repl, cubrick::JoinStrategy::kReplicated, 1);
      add(bcast, cubrick::JoinStrategy::kBroadcast, 1);
      add(shuf, cubrick::JoinStrategy::kShuffle, 1);
      auto outcome = add(autos, cubrick::JoinStrategy::kAuto, 0);
      if (outcome.status.ok()) {
        auto_pick = outcome.join_strategy;
        auto_fanin = outcome.merge_fanin;
        auto_depth = outcome.tree_depth;
      }
      dep.RunFor(500 * kMillisecond);
    }
    char plan[64];
    if (auto_fanin >= 2) {
      std::snprintf(plan, sizeof(plan), "%s/tree(fanin=%d,depth=%d)",
                    std::string(cubrick::JoinStrategyName(auto_pick)).c_str(),
                    auto_fanin,
                    auto_depth);
    } else {
      std::snprintf(plan, sizeof(plan), "%s/flat",
                    std::string(cubrick::JoinStrategyName(auto_pick)).c_str());
    }
    std::printf("%8u %11.1f %11.1f %11.1f %11.1f  %s\n", kFanouts[t],
                repl.P99(), bcast.P99(), shuf.P99(), autos.P99(), plan);
  }

  bench::Section(
      "tree-merge series at fan-out 64: coordinator fan-in merge share "
      "vs tree depth (p99, joinless probe)");
  cubrick::Query probe = workload::FixedProbeQuery("fanout_64", schema);
  const int kTreeFanins[] = {0, 16, 8, 4, 2};  // 0 = flat (seed topology)
  std::printf("%8s %6s %9s %12s %12s %12s\n", "fanin", "depth", "p99lat",
              "p99coord", "p99offload", "merge share");
  double prev_share = 2.0, flat_coord_p99 = 0, final_share = 1.0;
  bool shrinking = true;
  for (int fanin : kTreeFanins) {
    Histogram lat(0.1), coord(0.0001), offload(0.0001);
    for (int i = 0; i < probes; ++i) {
      auto outcome =
          run_one(probe, cubrick::JoinStrategy::kAuto, fanin == 0 ? 1 : fanin,
                  /*profile=*/true);
      if (outcome.status.ok() && outcome.trace_id != 0) {
        obs::QueryProfile p =
            obs::BuildQueryProfile(dep.trace_sink().Spans(outcome.trace_id));
        lat.Add(ToMillis(outcome.latency));
        coord.Add(p.merge_micros / 1000.0);
        offload.Add(p.tree_merge_micros / 1000.0);
      }
      dep.RunFor(500 * kMillisecond);
    }
    const int depth = fanin >= 2 ? cubrick::TreeDepth(64, fanin) : 0;
    // Normalized against the flat pass's coordinator fold (100%): the
    // share of the fan-in merge still done at the coordinator. The p99
    // latency column is context only — its Pareto noise dwarfs the
    // deterministic merge model.
    if (fanin == 0) flat_coord_p99 = coord.P99();
    const double share =
        flat_coord_p99 > 0 ? coord.P99() / flat_coord_p99 : 0;
    const std::string label = fanin == 0 ? "flat" : std::to_string(fanin);
    std::printf("%8s %6d %9.1f %12.3f %12.3f %11.1f%%\n", label.c_str(),
                depth, lat.P99(), coord.P99(), offload.P99(), share * 100);
    // The wall-moving claim, gated: each step down this table moves more
    // fold work off the coordinator, so its merge share must not grow.
    if (share > prev_share + 1e-9) shrinking = false;
    prev_share = share;
    final_share = share;
  }
  if (!shrinking || final_share > 0.10) {
    std::printf("FAIL: coordinator merge share did not shrink "
                "monotonically with tree depth (deepest tree at %.1f%% "
                "of flat)\n",
                final_share * 100);
    return false;
  }
  std::printf("OK: coordinator merge share shrinks monotonically as the "
              "aggregation tree deepens (deepest tree folds %.1f%% of the "
              "flat coordinator's work)\n",
              final_share * 100);
  bench::PaperNote(
      "The planner pass moves the paper's fan-in wall: flat merging binds "
      "the coordinator to O(fan-out) fold work (32ms of the p99 at "
      "fan-out 64 under the 500us/partial model), while the k-ary tree "
      "bounds coordinator folds by the fan-in — the merge share collapses "
      "as depth grows, trading a per-level network hop for it. Join "
      "strategies trade memory for latency: replicated is cheapest once "
      "dims are resident, broadcast ships the dim per query, shuffle "
      "never ships the dim at all — and every combination reproduces the "
      "seed path's bytes exactly.");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool with_cache = false;
  bool with_profile = false;
  bool with_plan = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache") == 0) with_cache = true;
    if (std::strcmp(argv[i], "--profile") == 0) with_profile = true;
    if (std::strcmp(argv[i], "--plan") == 0) with_plan = true;
  }
  bench::Header("fig5", "query latency vs table fan-out (log-scale tails)");

  // The probe loop: every 500 ms, one query per table.
  const int hours = bench::QuickMode() ? 1 : 24;
  const int probes = hours * 3600 * 2;  // every 500ms
  std::printf("probing: %d queries per fan-out level (%d simulated "
              "hours at 500ms cadence)\n",
              probes, hours);

  core::Deployment dep(BaseOptions());
  ProbeResult baseline = RunProbes(dep, probes);

  bench::Section("latency percentiles (ms) and success ratio");
  PrintPercentiles(baseline);

  bench::Section("tail amplification relative to fan-out 1");
  const Histogram& base = baseline.latency[0];
  std::printf("%8s %9s %9s %9s\n", "fanout", "p50x", "p99x", "p99.9x");
  for (size_t t = 0; t < kFanouts.size(); ++t) {
    std::printf("%8u %9.2f %9.2f %9.2f\n", kFanouts[t],
                baseline.latency[t].P50() / base.P50(),
                baseline.latency[t].P99() / base.P99(),
                baseline.latency[t].P999() / base.P999());
  }

  // Same fleet, same seed, same probe stream — but with the subquery
  // reliability layer on: hedge at the p95 of the latency body, retry
  // failed host draws up to twice in-region.
  core::DeploymentOptions hedged_options = BaseOptions();
  hedged_options.subquery_policy.hedge_quantile = 0.95;
  hedged_options.subquery_policy.max_subquery_retries = 2;
  core::Deployment hedged_dep(hedged_options);
  ProbeResult hedged = RunProbes(hedged_dep, probes);

  bench::Section(
      "with hedging (p95) + subquery retry (2): percentiles and success");
  PrintPercentiles(hedged);

  bench::Section("hedging tail reduction (baseline / hedged)");
  std::printf("%8s %9s %9s %9s %12s\n", "fanout", "p99x", "p99.9x", "maxx",
              "success(pp)");
  for (size_t t = 0; t < kFanouts.size(); ++t) {
    const Histogram& b = baseline.latency[t];
    const Histogram& h = hedged.latency[t];
    double sb = static_cast<double>(b.count()) /
                (b.count() + baseline.failures[t]);
    double sh = static_cast<double>(h.count()) /
                (h.count() + hedged.failures[t]);
    std::printf("%8u %9.2f %9.2f %9.2f %+11.4f\n", kFanouts[t],
                b.P99() / h.P99(), b.P999() / h.P999(), b.max() / h.max(),
                (sh - sb) * 100);
  }
  const cubrick::CubrickProxy::Stats& stats = hedged_dep.proxy().stats();
  std::printf("\nreliability layer: %lld hedges fired, %lld won, "
              "%lld subquery retries\n",
              static_cast<long long>(stats.hedges_fired),
              static_cast<long long>(stats.hedge_wins),
              static_cast<long long>(stats.subquery_retries));

  if (with_cache) {
    // Third pass: identical fleet and probe stream with both result
    // caches enabled (QueryRequest's default policy — every hit is
    // epoch-validated, never stale).
    core::DeploymentOptions cached_options = BaseOptions();
    cached_options.enable_result_caching = true;
    core::Deployment cached_dep(cached_options);
    ProbeResult cached = RunProbes(cached_dep, probes);

    bench::Section("with result caching: percentiles and success");
    PrintPercentiles(cached);

    bench::Section("caching speedup (uncached p50 / cached p50)");
    std::printf("%8s %9s %9s %9s\n", "fanout", "p50x", "p99x", "p99.9x");
    for (size_t t = 0; t < kFanouts.size(); ++t) {
      const Histogram& b = baseline.latency[t];
      const Histogram& c = cached.latency[t];
      std::printf("%8u %9.2f %9.2f %9.2f\n", kFanouts[t], b.P50() / c.P50(),
                  b.P99() / c.P99(), b.P999() / c.P999());
    }
    const cubrick::CubrickProxy::Stats& cstats = cached_dep.proxy().stats();
    auto merged = cached_dep.proxy().MergedCacheSnapshot();
    std::printf("\nmerged cache: %lld validated hits, %lld misses, "
                "%lld validation failures, %zu entries\n",
                static_cast<long long>(cstats.cache_hits),
                static_cast<long long>(cstats.cache_misses),
                static_cast<long long>(cstats.cache_validation_failures),
                merged.entries);
    bench::PaperNote(
        "The repeated 500ms probe is exactly the dashboard pattern the "
        "merged-result cache targets: after the first execution every "
        "probe validates its epoch vector in one metadata roundtrip (two "
        "network hops) instead of fanning out, so the cached p50 sits an "
        "order of magnitude (>=10x) below the uncached p50 and no longer "
        "grows with fan-out at all.");
  }

  if (with_profile) {
    // Fourth pass pair: the same fleet and probe stream (a) with
    // per-request telemetry fully off — the overhead baseline — and
    // (b) with the per-query profile opt-in on, folding every stitched
    // trace through obs::BuildQueryProfile into per-fan-out breakdowns.
    core::Deployment off_dep(BaseOptions());
    ProbeResult off = RunProbes(off_dep, probes, /*tracing=*/false);

    BreakdownResult breakdown;
    core::DeploymentOptions prof_options = BaseOptions();
    prof_options.enable_query_tracing = true;
    core::Deployment prof_dep(prof_options);
    ProbeResult prof = RunProbes(prof_dep, probes, /*tracing=*/true,
                                 /*profile=*/true, &breakdown);

    bench::Section(
        "profiled probe: where p99 time goes per fan-out (ms; queue and "
        "merge bound the critical path, scan and net sum work across "
        "subqueries)");
    std::printf("%8s %9s %9s %9s %9s %9s\n", "fanout", "p99total",
                "p99queue", "p99scan", "p99merge", "p99net");
    for (size_t t = 0; t < kFanouts.size(); ++t) {
      std::printf("%8u %9.1f %9.3f %9.1f %9.3f %9.1f\n", kFanouts[t],
                  prof.latency[t].P99(), breakdown.queue[t].P99(),
                  breakdown.scan[t].P99(), breakdown.merge[t].P99(),
                  breakdown.net[t].P99());
    }

    bench::Section("profile overhead vs tracing-off baseline");
    // Profiling must never perturb the latency the bench reports: span
    // recording draws no RNG and schedules no sim events, so the
    // profiled pass's percentiles must sit within 2% of the
    // tracing-off baseline at every fan-out (they are byte-identical
    // in practice — the 2% bound is the regression alarm).
    double worst = 0;
    std::printf("%8s %11s %11s %9s\n", "fanout", "off-p99", "prof-p99",
                "delta");
    for (size_t t = 0; t < kFanouts.size(); ++t) {
      const double base_p50 = off.latency[t].P50();
      const double base_p99 = off.latency[t].P99();
      const double d50 =
          base_p50 > 0 ? std::abs(prof.latency[t].P50() - base_p50) / base_p50
                       : 0;
      const double d99 =
          base_p99 > 0 ? std::abs(prof.latency[t].P99() - base_p99) / base_p99
                       : 0;
      worst = std::max({worst, d50, d99});
      std::printf("%8u %11.2f %11.2f %8.3f%%\n", kFanouts[t], base_p99,
                  prof.latency[t].P99(), d99 * 100);
    }
    const int total = static_cast<int>(kFanouts.size()) * probes;
    // Wall-clock context for the absolute cost of recording: a
    // simulated query does almost no real compute (its scan is a model
    // draw), so the per-query recording cost below is an absolute
    // floor, not a realistic relative overhead — against the >=20ms
    // service times these queries model it is well under 2%.
    std::printf("\nquery-path wall clock: tracing-off %.3fs, profiled "
                "%.3fs — span recording costs %.1f us/query of real time "
                "(%.3f%% of the modeled 20ms median service draw)\n",
                off.query_wall_seconds, prof.query_wall_seconds,
                (prof.query_wall_seconds - off.query_wall_seconds) / total *
                    1e6,
                (prof.query_wall_seconds - off.query_wall_seconds) / total *
                    1e6 / 20000.0 * 100);
    if (worst >= 0.02) {
      std::printf("FAIL: profile overhead %.3f%% >= 2%% — profiling "
                  "perturbed the reported latency distribution\n",
                  worst * 100);
      return 1;
    }
    std::printf("OK: profile overhead %.3f%% < 2%% at every fan-out\n",
                worst * 100);
    bench::PaperNote(
        "The stitched profiles explain fig5's tail: at fan-out 1 the p99 "
        "is one bad service draw, while at fan-out 64 the p99 query's "
        "summed scan/net work grows ~64x yet its wall latency grows far "
        "less — until a single Pareto hiccup in the max-over-64 decides "
        "it. Queue and merge stay flat, so the tail lives entirely in "
        "the scan/net max — exactly the component hedging attacks.");
  }

  if (with_plan) {
    const int plan_probes = bench::QuickMode() ? 120 : 600;
    if (!RunPlanPass(plan_probes)) return 1;
  }

  bench::PaperNote(
      "Figure 5's shape (log y-axis): p50 grows only mildly with fan-out "
      "(max over more lognormal draws), while p99/p99.9 and max grow "
      "sharply — a fan-out-64 query is an order of magnitude more exposed "
      "to tail hiccups than a fan-out-1 query — and the success ratio "
      "decays with fan-out exactly as Figures 1-2 predict. With the "
      "reliability layer on, hedged duplicates cut the p99/p99.9 tail "
      "multiplicatively (a single Pareto hiccup no longer decides the "
      "max-over-N) and subquery retries hold the success ratio near 100% "
      "at every fan-out.");
  return 0;
}
