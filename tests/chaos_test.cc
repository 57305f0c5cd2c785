// Chaos property test: random sequences of tenant and fleet operations
// against a live deployment, checking after every step that
//
//   * any query that *succeeds* returns exactly the reference result
//     (partial answers are never silently returned — the consistency
//     guarantee that distinguishes Cubrick from ignore-stragglers systems
//     like Scuba, Section II-C);
//   * after the fleet quiesces, queries succeed again and all data is
//     intact in every region.
//
// The caching variant runs the same chaos with epoch-invalidated result
// caching enabled and additionally cross-checks every successful
// non-stale-flagged answer byte-identically against a cache-bypass
// execution of the same query: the caches must be invisible to exact
// correctness under ingestion, repartitions, migrations and failovers.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "workload/generators.h"

namespace scalewall::core {
namespace {

// Exact equality of two merged results (keys and raw AggState values).
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
      if (x.sum != y.sum || x.count != y.count || x.min != y.min ||
          x.max != y.max) {
        return false;
      }
    }
  }
  return true;
}

// Switches every server of `dep` to the `path` brick-scan kernel.
void SetScanPath(Deployment& dep, exec::ScanPath path) {
  for (cluster::ServerId id : dep.cluster().AllServers()) {
    if (cubrick::CubrickServer* server = dep.Lookup(id)) {
      server->SetScanPathForTesting(path);
    }
  }
}

void RunChaos(uint64_t seed, bool caching) {
  DeploymentOptions options;
  options.seed = seed;
  options.topology.regions = 3;
  options.topology.racks_per_region = 3;
  options.topology.servers_per_rack = 4;  // 36 servers
  options.max_shards = 10000;
  options.per_host_failure_probability = 0.0;  // failures come from ops
  options.enable_failure_injector = true;
  options.failure_injector.enable_drains = false;
  options.failure_injector.mean_time_between_failures = 100000 * kDay;
  // Repairs must fit inside the final quiesce window: with enough killed
  // servers a region can transiently have fewer healthy hosts than a
  // table has partitions, which correctly blocks placement until repairs
  // return capacity.
  options.failure_injector.mean_repair_time = 1 * kHour;
  options.enable_result_caching = caching;
  Deployment dep(options);

  cubrick::TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
  Rng rng(seed * 7919 + 1);

  // A replicated dimension table mapping dim1 codes (0..63) to one of 4
  // groups; join queries run alongside plain ones throughout the chaos.
  ASSERT_TRUE(dep.CreateDimensionTable("groups", 64,
                                       {cubrick::Dimension{"bucket", 4, 1}})
                  .ok());
  std::vector<cubrick::DimensionEntry> entries;
  for (uint32_t k = 0; k < 64; ++k) {
    entries.push_back(cubrick::DimensionEntry{k, {k % 4}});
  }
  ASSERT_TRUE(dep.LoadDimensionEntries("groups", entries).ok());

  // Reference model: per table, total row count and metric sum.
  struct Reference {
    double count = 0;
    double sum = 0;
  };
  std::map<std::string, Reference> reference;
  int next_table = 0;

  auto check_query = [&](const std::string& table) {
    cubrick::Query q;
    q.table = table;
    q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kCount},
                      cubrick::Aggregation{0, cubrick::AggOp::kSum}};
    // Half the probes additionally join against the replicated dimension
    // table (dim1 -> bucket); the join must never change totals (every
    // key is mapped) nor ever return partial data.
    bool joined = rng.NextBool(0.5);
    if (joined) {
      q.joins = {cubrick::Join{1, "groups", 0}};
      q.group_by_joins = {0};
    }
    cubrick::QueryRequest request(
        q, static_cast<cluster::RegionId>(rng.NextBounded(3)));
    if (caching && rng.NextBool(0.3)) {
      request.cache_policy = cache::CachePolicy::kAllowStale;
    }
    auto outcome = dep.Query(cubrick::QueryRequest(request));
    if (!outcome.status.ok()) return false;  // failing is allowed mid-chaos
    if (outcome.served_stale) {
      // The one path allowed to lag the data — and only when asked for.
      EXPECT_EQ(request.cache_policy, cache::CachePolicy::kAllowStale);
      return true;
    }
    if (caching) {
      // Every successful non-stale answer must be byte-identical to a
      // cache-bypass execution of the same query, mid-chaos included.
      cubrick::QueryRequest bypass = request;
      bypass.cache_policy = cache::CachePolicy::kBypass;
      auto uncached = dep.Query(cubrick::QueryRequest(bypass));
      if (uncached.status.ok()) {
        EXPECT_TRUE(SameResult(outcome.result, uncached.result))
            << "cached answer diverged from re-execution for " << table;
      }
    }
    // Half the probes additionally re-run with every server on the
    // interpreted scan oracle (cache bypassed so it really scans): the
    // vectorized default must stay byte-identical mid-chaos — across
    // compression states, repartitions, failovers and joins.
    if (rng.NextBool(0.5)) {
      cubrick::QueryRequest oracle = request;
      oracle.cache_policy = cache::CachePolicy::kBypass;
      SetScanPath(dep, exec::ScanPath::kInterpreted);
      auto interpreted = dep.Query(cubrick::QueryRequest(oracle));
      SetScanPath(dep, exec::ScanPath::kVectorized);
      if (interpreted.status.ok()) {
        EXPECT_TRUE(SameResult(outcome.result, interpreted.result))
            << "vectorized answer diverged from the interpreted oracle for "
            << table << (joined ? " (joined)" : "");
      }
    }
    const Reference& ref = reference.at(table);
    if (ref.count == 0) {
      EXPECT_EQ(outcome.result.num_groups(), 0u) << table;
      return true;
    }
    double count = 0, sum = 0;
    for (const auto& [key, states] : outcome.result.groups()) {
      count += states[0].Finalize(cubrick::AggOp::kCount);
      sum += states[1].Finalize(cubrick::AggOp::kSum);
    }
    EXPECT_DOUBLE_EQ(count, ref.count)
        << "partial or stale answer for " << table
        << (joined ? " (joined)" : "");
    EXPECT_DOUBLE_EQ(sum, ref.sum)
        << "partial or stale answer for " << table
        << (joined ? " (joined)" : "");
    return true;
  };

  const int kOps = 120;
  for (int op = 0; op < kOps; ++op) {
    switch (rng.NextBounded(10)) {
      case 0: {  // create a tenant
        if (reference.size() >= 8) break;
        std::string name = "chaos_" + std::to_string(next_table++);
        if (dep.CreateTable(name, schema).ok()) {
          reference[name] = Reference{};
        }
        break;
      }
      case 1:
      case 2: {  // load rows into a random tenant
        if (reference.empty()) break;
        auto it = reference.begin();
        std::advance(it, rng.NextBounded(reference.size()));
        auto rows = workload::GenerateRows(
            schema, 200 + rng.NextBounded(800), rng);
        if (dep.LoadRows(it->first, rows).ok()) {
          for (const auto& row : rows) {
            it->second.count += 1;
            it->second.sum += row.metrics[0];
          }
        }
        break;
      }
      case 3: {  // kill a random server (regions 0-1 only)
        // Replication factor 3 (one copy per region) survives any two
        // concurrent regional failures; losing all three owners of a
        // partition inside one repair window is genuine, accepted data
        // loss (production re-ingests from upstream). The paper's
        // disaster model (Section IV-D) likewise assumes at least one
        // healthy region — so hardware chaos here spares region 2.
        auto servers = dep.cluster().AllServers();
        cluster::ServerId victim = servers[rng.NextBounded(servers.size())];
        if (dep.cluster().Get(victim).region != 2 &&
            dep.cluster().Get(victim).health ==
                cluster::ServerHealth::kHealthy) {
          dep.failure_injector()->FailServer(victim);
        }
        break;
      }
      case 4: {  // drain a random server for maintenance
        auto servers = dep.cluster().AllServers();
        cluster::ServerId victim = servers[rng.NextBounded(servers.size())];
        if (dep.cluster().Get(victim).health ==
            cluster::ServerHealth::kHealthy) {
          dep.cluster().SetHealth(victim, cluster::ServerHealth::kDraining);
          // Automation returns it later.
          SimDuration hold = (1 + rng.NextBounded(30)) * kMinute;
          dep.simulation().ScheduleAfter(hold, [&dep, victim] {
            if (dep.cluster().Get(victim).health ==
                cluster::ServerHealth::kDraining) {
              dep.cluster().SetHealth(victim,
                                      cluster::ServerHealth::kHealthy);
            }
          });
        }
        break;
      }
      case 6: {  // resize the fleet: add servers or decommission one
        if (rng.NextBool(0.5)) {
          dep.AddServers(static_cast<cluster::RegionId>(rng.NextBounded(3)),
                         1 + static_cast<int>(rng.NextBounded(2)));
        } else {
          auto servers = dep.cluster().AllServers();
          cluster::ServerId victim =
              servers[rng.NextBounded(servers.size())];
          // Keep regions comfortably above the 8-partition floor.
          if (dep.cluster()
                  .ServersInRegion(dep.cluster().Get(victim).region)
                  .size() > 10) {
            dep.DecommissionServer(victim);
          }
        }
        break;
      }
      case 5: {  // repartition a quiesced tenant
        if (reference.empty()) break;
        auto it = reference.begin();
        std::advance(it, rng.NextBounded(reference.size()));
        auto info = dep.catalog().GetTable(it->first);
        if (info.ok() && info->num_partitions <= 16) {
          dep.Repartition(it->first, info->num_partitions * 2);
        }
        break;
      }
      default: {  // let time pass
        dep.RunFor((1 + rng.NextBounded(120)) * kSecond);
        break;
      }
    }
    // Probe a random existing tenant after every operation.
    if (!reference.empty()) {
      auto it = reference.begin();
      std::advance(it, rng.NextBounded(reference.size()));
      check_query(it->first);
    }
  }

  // Quiesce: repairs complete, failovers finish, discovery propagates.
  dep.RunFor(6 * kHour);
  for (const auto& [table, ref] : reference) {
    bool ok = false;
    // All three regions must answer, each with the exact totals.
    for (cluster::RegionId region = 0; region < 3; ++region) {
      cubrick::Query q;
      q.table = table;
      q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kCount},
                        cubrick::Aggregation{0, cubrick::AggOp::kSum}};
      auto outcome = dep.Query(cubrick::QueryRequest(q, region));
      ASSERT_TRUE(outcome.status.ok())
          << table << " in region " << region << ": " << outcome.status;
      if (ref.count > 0) {
        EXPECT_DOUBLE_EQ(
            *outcome.result.Value({}, 0, cubrick::AggOp::kCount), ref.count)
            << table << " via region " << region;
      }
      ok = true;
    }
    EXPECT_TRUE(ok);
  }
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosTest, RandomOperationsPreserveConsistency) {
  RunChaos(GetParam(), /*caching=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15, 16));

// Same chaos, with both result caches on and byte-identical
// cross-checks against bypass executions after every probe.
class ChaosCacheTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosCacheTest, CachingPreservesExactCorrectness) {
  RunChaos(GetParam(), /*caching=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosCacheTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Overload chaos: a hot tenant floods an admission-controlled
// deployment at many times its fair rate while servers fail and repair
// underneath. Admission may shed at the door, but it must never starve
// what it admits: every outcome — served, shed, or failed — returns
// within a bounded time, and the well-behaved tenants keep getting real
// goodput through both the flood and the failures.
TEST(ChaosOverloadTest, AdmittedQueriesAreNeverStarved) {
  DeploymentOptions options;
  options.seed = 17;
  options.topology.regions = 1;
  options.topology.racks_per_region = 4;
  options.topology.servers_per_rack = 4;  // 16 servers
  options.default_partitions = 8;
  options.repartition_threshold_rows = 1u << 30;
  options.per_host_failure_probability = 0.0;  // failures are injected
  options.enable_failure_injector = true;
  options.failure_injector.enable_drains = false;
  options.failure_injector.mean_time_between_failures = 100000 * kDay;
  options.failure_injector.mean_repair_time = 5 * kSecond;
  options.latency.median = 60 * kMillisecond;
  options.latency.sigma = 0.3;
  options.scheduler.virtual_scan_slots = 6;
  // The nested knobs, not the scheduler convenience mirror: this test
  // pins a non-default concurrency budget, which always wins this way.
  options.proxy_options.enable_admission = true;
  options.proxy_options.admission.max_concurrency = 10;
  options.proxy_options.admission.max_queued = 14;
  // Interactive traffic carries a deadline; it both engages the
  // deadline-aware admission path and bounds how long execution may
  // retry through the injected failures.
  options.proxy_options.default_deadline = 2 * kSecond;
  Deployment dep(options);

  cubrick::TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
  ASSERT_TRUE(dep.CreateTable("events", schema).ok());
  Rng rng(4242);
  ASSERT_TRUE(
      dep.LoadRows("events", workload::GenerateRows(schema, 4000, rng)).ok());
  dep.RunFor(10 * kSecond);  // discovery/LB settle

  // One flood tenant at ~10x the rate of each of two normal tenants,
  // all with equal weights: without fair queueing the flood would own
  // every slot.
  std::vector<workload::TenantLoadSpec> tenants(3);
  tenants[0].pool = "flood";
  tenants[0].rate = 60.0;
  tenants[1].pool = "norm1";
  tenants[1].rate = 6.0;
  tenants[2].pool = "norm2";
  tenants[2].rate = 6.0;
  const SimDuration horizon = 12 * kSecond;
  auto arrivals = workload::GenerateOpenLoopArrivals(tenants, horizon, rng);

  // Kill a couple of healthy servers mid-flood; the repair pipeline
  // brings them back before the end of the run.
  auto servers = dep.cluster().AllServers();
  dep.simulation().ScheduleAfter(3 * kSecond, [&dep, servers] {
    dep.failure_injector()->FailServer(servers[2]);
  });
  dep.simulation().ScheduleAfter(6 * kSecond, [&dep, servers] {
    dep.failure_injector()->FailServer(servers[7]);
  });

  // No outcome may take longer than the admission queue-wait cap plus a
  // generous allowance for retried execution during failovers.
  const SimDuration starvation_bound = 6 * kSecond;
  std::vector<int64_t> served(tenants.size(), 0);
  std::vector<int64_t> rejected(tenants.size(), 0);
  const SimTime epoch = dep.now();
  for (const auto& arrival : arrivals) {
    const SimTime due = epoch + arrival.at;
    if (due > dep.now()) dep.RunFor(due - dep.now());
    cubrick::Query q;
    q.table = "events";
    q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kSum},
                      cubrick::Aggregation{0, cubrick::AggOp::kCount}};
    cubrick::QueryRequest request(q);
    request.claim.pool_path = tenants[arrival.tenant_index].pool;
    auto outcome = dep.Query(request);
    EXPECT_LE(outcome.latency, starvation_bound)
        << "outcome for " << request.claim.pool_path << " at t=" << arrival.at;
    if (outcome.status.ok()) {
      ++served[arrival.tenant_index];
    } else if (outcome.status.code() == StatusCode::kResourceExhausted) {
      ++rejected[arrival.tenant_index];
      // Shedding happens at the proxy door, before any backend work.
      EXPECT_EQ(outcome.latency, 0) << "rejection did backend work";
    }
  }

  // The flood is shed, not served; the normal tenants ride through both
  // the flood and the host failures with most of their queries served.
  EXPECT_GT(rejected[0], 0);
  for (size_t t = 1; t < tenants.size(); ++t) {
    const int64_t submitted = served[t] + rejected[t];
    EXPECT_GT(submitted, 0);
    EXPECT_GE(served[t], submitted / 2)
        << tenants[t].pool << " starved: served " << served[t] << " of "
        << submitted;
  }
  // Fair queueing kept the flood from owning the backend: the normal
  // tenants' served fraction must beat the flood's.
  const double flood_frac =
      static_cast<double>(served[0]) /
      static_cast<double>(served[0] + rejected[0]);
  for (size_t t = 1; t < tenants.size(); ++t) {
    const double frac =
        static_cast<double>(served[t]) /
        static_cast<double>(served[t] + rejected[t] + 1);
    EXPECT_GT(frac, flood_frac) << tenants[t].pool;
  }
}

}  // namespace
}  // namespace scalewall::core
