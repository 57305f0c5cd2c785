// sim_mixed: core::Deployment on the sim transport, driven through its
// public API (QuerySql, LoadRows, RunFor) by a seeded single-threaded
// script. Every count the deployment keeps repeats exactly for a given
// seed and --seconds, because the script's length depends on nothing
// else; only the wall-clock timings vary.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/metrics.h"
#include "cubrick/planner.h"
#include "cubrick/sql.h"
#include "harness.h"
#include "node/dataset.h"
#include "querygen.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = scalewall::core;
namespace cubrick = scalewall::cubrick;
namespace node = scalewall::node;
using scalewall::kSecond;
using scalewall::Status;

constexpr uint64_t kInitialRows = 320'000;  // 40k per partition of 8
constexpr uint64_t kIngestRows = 1'500;     // per ingest batch
// One set-up takes about 0.1 s; the median of this many steadies it.
constexpr int kSetups = 25;
// Windows per second of --seconds. The script length is fixed by the
// seconds argument alone so every count repeats exactly; on a 4-core
// x86 host one window takes about 0.1 s.
constexpr double kWindowsPerSecond = 8.0;
// Every kVerifyEvery-th query is re-executed with CachePolicy::kBypass
// outside the clocks and its rows compared bit for bit.
constexpr int kVerifyEvery = 20;
const char* kDashboardPool = "dash/interactive";
const char* kAdhocPool = "adhoc/explore";

core::DeploymentOptions SimOptions(uint64_t seed) {
  core::DeploymentOptions o;
  o.seed = seed;
  o.topology.regions = 2;
  o.topology.racks_per_region = 2;
  o.topology.servers_per_rack = 4;
  o.max_shards = 5000;
  o.transport = core::TransportMode::kSim;
  // No injected host failures: every operation of the script succeeds,
  // so the error ratio measures the system rather than the dice.
  o.per_host_failure_probability = 0.0;
  // Budgets below the distinct-result working set: the Zipf head of the
  // dashboards stays cached, the tail and the ad-hoc queries evict.
  o.enable_result_caching = true;
  o.result_cache_bytes = 256u << 10;
  o.merged_cache_bytes = 128u << 10;
  o.scheduler.enable_admission = true;
  o.scheduler.pools[kDashboardPool].weight = 3.0;
  o.scheduler.pools[kAdhocPool].weight = 1.0;
  return o;
}

// Sums every registry series named `name` whose labels contain `label`
// (e.g. result="hit"), across servers.
double SumSeries(const std::string& text, const std::string& name,
                 const std::string& label) {
  double total = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size(), name) != 0) continue;
    if (line.size() > name.size() && line[name.size()] != '{' &&
        line[name.size()] != ' ') {
      continue;
    }
    const size_t close = line.find('}');
    if (!label.empty() &&
        (close == std::string::npos || line.find(label) > close)) {
      continue;
    }
    total += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return total;
}

// Counters the sim_mixed per-layer metrics are deltas of.
struct Counts {
  double proxy_hits = 0, proxy_misses = 0, proxy_invalid = 0;
  double server_hits = 0, server_misses = 0, server_invalid = 0;
  double evictions = 0, admitted = 0, rejected = 0;
  double frames = 0, bytes = 0, net_failures = 0, repartitions = 0;
};

Counts ReadCounts(core::Deployment& dep) {
  const std::string text = core::ExportMetricsText(dep);
  Counts c;
  c.proxy_hits = SumSeries(text, "scalewall_proxy_cache_total",
                           "result=\"validated_hit\"");
  c.proxy_misses =
      SumSeries(text, "scalewall_proxy_cache_total", "result=\"miss\"");
  c.proxy_invalid = SumSeries(text, "scalewall_proxy_cache_total",
                              "result=\"validation_failure\"");
  c.server_hits =
      SumSeries(text, "scalewall_server_result_cache_total", "result=\"hit\"");
  c.server_misses =
      SumSeries(text, "scalewall_server_result_cache_total", "result=\"miss\"");
  c.server_invalid = SumSeries(text, "scalewall_server_result_cache_total",
                               "result=\"invalidated\"");
  c.evictions =
      SumSeries(text, "scalewall_server_result_cache_evictions_total", "") +
      static_cast<double>(dep.proxy().MergedCacheSnapshot().evictions);
  c.admitted =
      SumSeries(text, "scalewall_admit_requests_total", "result=\"admitted\"");
  c.rejected =
      SumSeries(text, "scalewall_admit_requests_total", "result=\"rejected\"");
  const scalewall::net::TransportStats& net = dep.sim_network()->stats();
  c.frames = static_cast<double>(net.frames_out.value());
  c.bytes = static_cast<double>(net.bytes_out.value());
  c.net_failures = static_cast<double>(net.errors.value() +
                                       net.timeouts.value() +
                                       net.handler_errors.value());
  c.repartitions = static_cast<double>(dep.repartitions());
  return c;
}

Status SetUp(uint64_t seed, const std::vector<cubrick::Row>& rows,
             std::unique_ptr<core::Deployment>* dep) {
  *dep = std::make_unique<core::Deployment>(SimOptions(seed));
  SCALEWALL_RETURN_IF_ERROR(
      (*dep)->CreateTable(node::DatasetTable(), node::DatasetSchema()));
  SCALEWALL_RETURN_IF_ERROR((*dep)->LoadRows(node::DatasetTable(), rows));
  (*dep)->RunFor(30 * kSecond);  // settle: heartbeats, first LB cycles
  return Status::Ok();
}

}  // namespace

RunResult RunSimMixed(const RunOptions& options) {
  node::DatasetOptions initial;
  initial.seed = options.seed;
  initial.num_rows = kInitialRows;
  const std::vector<cubrick::Row> rows = node::GenerateRows(initial);

  // The first deployment is measured; the remaining set-ups run after
  // the windows (and the peak-RSS read) and only time set-up.
  std::vector<double> setup_s;
  auto set_up = [&](std::unique_ptr<core::Deployment>* dep) {
    const double start = NowMicros();
    SCALEWALL_RETURN_IF_ERROR(SetUp(options.seed, rows, dep));
    setup_s.push_back((NowMicros() - start) / 1e6);
    return Status::Ok();
  };
  std::unique_ptr<core::Deployment> measured;
  Status status = set_up(&measured);
  if (!status.ok()) return FailedRun("set-up", status);
  core::Deployment& dep = *measured;

  const int windows = std::max(
      4, static_cast<int>(std::ceil(options.seconds * kWindowsPerSecond)));
  const SimScript script = MakeSimScript(options.seed, windows);
  // Ingest batches are generated before the clocks start.
  std::map<uint64_t, std::vector<cubrick::Row>> batches;
  for (const SimOp& op : script.ops) {
    if (op.kind != SimOp::Kind::kIngest) continue;
    node::DatasetOptions batch;
    batch.seed = op.arg;
    batch.num_rows = kIngestRows;
    batches[op.arg] = node::GenerateRows(batch);
  }

  auto request_for = [](const SimOp& op, bool traced = false) {
    cubrick::QueryRequest request;
    request.tracing = traced;
    const bool dashboard = op.kind == SimOp::Kind::kDashboard;
    request.claim.pool_path = dashboard ? kDashboardPool : kAdhocPool;
    request.claim.priority =
        dashboard ? scalewall::admit::Priority::kInteractive
                  : scalewall::admit::Priority::kBatch;
    return request;
  };
  auto sql_for = [&](const SimOp& op) -> const std::string& {
    return op.kind == SimOp::Kind::kDashboard ? script.dashboards[op.arg]
                                              : script.adhoc[op.arg];
  };

  // Warm-up outside the script: each dashboard once, so the first
  // window does not pay every cold miss. Counted like any query.
  for (size_t i = 0; i < script.dashboards.size(); ++i) {
    SimOp op{SimOp::Kind::kDashboard, i};
    auto outcome = dep.QuerySql(sql_for(op), request_for(op));
    if (!outcome.status.ok()) return FailedRun("warm-up", outcome.status);
  }

  RunResult result;
  const Counts before = ReadCounts(dep);
  std::vector<Window> timed;
  std::vector<double> hit_us, miss_us, load_us_per_krow, ingest_rate,
      run_for_us;
  // Query count and busy time (query + its clock advance) per class.
  struct Busy {
    double queries = 0, us = 0;
    void Add(double op_us) {
      ++queries;
      us += op_us;
    }
    double Qps() const { return queries / (us / 1e6); }
  } plain_busy, traced_busy;
  int64_t query_index = 0;
  size_t op_index = 0;
  scalewall::obs::Counter proxy_hits = dep.metrics().GetCounter(
      "scalewall_proxy_cache_total", {{"result", "validated_hit"}});
  for (int w = 0; w < windows; ++w) {
    PinToCpu(static_cast<size_t>(w));
    Window window;
    double cpu_start = ProcessCpuMicros();
    for (; op_index < script.ops.size(); ++op_index) {
      const SimOp& op = script.ops[op_index];
      if (op.kind == SimOp::Kind::kIngest) {
        const std::vector<cubrick::Row>& batch = batches[op.arg];
        const double start = NowMicros();
        Status status = dep.LoadRows(node::DatasetTable(), batch);
        const double took = NowMicros() - start;
        window.wall_us += took;
        if (!status.ok()) return FailedRun("ingest", status);
        const double rows = static_cast<double>(batch.size());
        ingest_rate.push_back(rows / (took / 1e6));
        load_us_per_krow.push_back(took / (rows / 1e3));
        continue;
      }
      if (op.kind == SimOp::Kind::kRunFor) {
        const double start = NowMicros();
        dep.RunFor(10 * kSecond);
        const double took = NowMicros() - start;
        window.wall_us += took;
        run_for_us.push_back(took);
        ++op_index;
        break;  // a RunFor closes the window
      }
      // Traced runs alternate untraced queries and queries with the
      // proxy's tracing on, so both halves see the same mix; an untraced
      // query is also classified as a validated merged-cache hit or a
      // miss.
      const bool traced = options.trace && result.attempted % 2 == 1;
      const bool classify = options.trace && !traced;
      const int64_t hits0 = classify ? proxy_hits.value() : 0;
      const double start = NowMicros();
      cubrick::QueryOutcome outcome =
          dep.QuerySql(sql_for(op), request_for(op, traced));
      const double took = NowMicros() - start;
      window.latency_us.push_back(took);
      ++result.attempted;
      if (classify) {
        (proxy_hits.value() > hits0 ? hit_us : miss_us).push_back(took);
      }
      // Closed loop in simulated time: the next query is issued when
      // this one's modelled latency has elapsed, which is also what
      // releases its admission reservation.
      dep.RunFor(std::max<scalewall::SimDuration>(outcome.latency,
                                                  scalewall::kMillisecond));
      const double op_us = NowMicros() - start;
      window.wall_us += op_us;
      (traced ? traced_busy : plain_busy).Add(op_us);
      if (!outcome.status.ok()) {
        ++result.failed;
        std::fprintf(stderr, "query failed: %s\n",
                     outcome.status.ToString().c_str());
        continue;
      }
      ++window.completed;
      if (query_index++ % kVerifyEvery != 0) continue;
      // Verification is off the clocks: pause CPU accounting around it.
      window.cpu_us += ProcessCpuMicros() - cpu_start;
      cubrick::QueryRequest bypass = request_for(op);
      bypass.cache_policy = scalewall::cache::CachePolicy::kBypass;
      cubrick::QueryOutcome truth = dep.QuerySql(sql_for(op), bypass);
      if (!truth.status.ok() || !SameRows(truth.rows, outcome.rows)) {
        ++result.failed;
        --window.completed;
        result.correct = false;
        std::fprintf(stderr, "mismatch against kBypass: %s\n",
                     sql_for(op).c_str());
      }
      cpu_start = ProcessCpuMicros();
    }
    window.cpu_us += ProcessCpuMicros() - cpu_start;
    timed.push_back(std::move(window));
  }
  const Counts after = ReadCounts(dep);
  const double rss_mb = PeakRssMb();
  for (int i = 1; i < kSetups && !options.trace; ++i) {
    PinToCpu(static_cast<size_t>(i));
    std::unique_ptr<core::Deployment> extra;
    status = set_up(&extra);
    if (!status.ok()) return FailedRun("set-up", status);
  }

  const double completed =
      static_cast<double>(result.attempted - result.failed);
  if (!options.trace) {
    // A window's wall and CPU time include its ingest batch and RunFor.
    AddWindowMetrics(timed,
                     std::to_string(script.queries / windows) +
                         " queries + 1 ingest + 1 RunFor, 1 outstanding",
                     &result);
    result.Add("success_ratio",
               completed / static_cast<double>(
                               std::max<int64_t>(1, result.attempted)),
               "ratio",
               RatioDetail(completed, static_cast<double>(result.attempted)));
    result.Add("setup_s", Median(setup_s), "s",
               "median of " + std::to_string(setup_s.size()) + " set-ups");
    result.Add("rss_mb", rss_mb, "MiB",
               "peak resident set through one set-up and the windows");
    result.Add("ingest_rows_per_s", Median(ingest_rate), "rows/s",
               "median over " + std::to_string(ingest_rate.size()) +
                   " batches of " + std::to_string(kIngestRows) +
                   " rows / wall s inside Deployment::LoadRows");
    return result;
  }

  const double nq = static_cast<double>(std::max<int64_t>(1, result.attempted));
  result.Add("net.frames_per_query", (after.frames - before.frames) / nq,
             "count",
             RatioDetail(after.frames - before.frames, nq) +
                 " sim-transport frames / queries");
  result.Add("net.bytes_per_query", (after.bytes - before.bytes) / nq, "bytes",
             RatioDetail(after.bytes - before.bytes, nq));
  result.Add("net.failed_calls", after.net_failures - before.net_failures,
             "count", "sim-transport errors + timeouts + handler errors");

  // Pure-function replays on the script's SQL: parse, then plan against
  // region 0 with one of its servers as coordinator.
  std::vector<double> parse_us, planner_us;
  const cubrick::RegionContext& region = dep.region_context(0);
  const scalewall::cluster::ServerId coordinator =
      dep.cluster().ServersInRegion(0).front();
  std::vector<std::string> replay_sql = script.dashboards;
  for (size_t i = 0; i < script.adhoc.size() && i < 64; ++i) {
    replay_sql.push_back(script.adhoc[i]);
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& sql : replay_sql) {
      double t = NowMicros();
      auto query = cubrick::ParseQuery(sql, node::DatasetSchema());
      parse_us.push_back(NowMicros() - t);
      if (!query.ok()) return FailedRun("replay parse", query.status());
      t = NowMicros();
      cubrick::ExecutionPlan plan =
          cubrick::BuildExecutionPlan(region, *query, coordinator);
      planner_us.push_back(NowMicros() - t);
      (void)plan;
    }
  }
  result.Add("cubrick.sql_parse_us", Median(parse_us), "us",
             SampleDetail(0.5, parse_us.size()));
  result.Add("cubrick.planner_us", Median(planner_us), "us",
             SampleDetail(0.5, planner_us.size()));

  result.Add("core.query_hit_us", Median(hit_us), "us",
             SampleDetail(0.5, hit_us.size()) + " validated merged-cache hits");
  result.Add("core.query_miss_us", Median(miss_us), "us",
             SampleDetail(0.5, miss_us.size()) + " misses");
  result.Add("core.load_rows_us_per_krow", Median(load_us_per_krow), "us",
             SampleDetail(0.5, load_us_per_krow.size()) +
                 " ingest batches of " + std::to_string(kIngestRows) +
                 " rows");
  result.Add("core.repartitions", after.repartitions - before.repartitions,
             "count", "repartitions during the script");

  const double ph = after.proxy_hits - before.proxy_hits;
  const double pbase = ph + (after.proxy_misses - before.proxy_misses) +
                       (after.proxy_invalid - before.proxy_invalid);
  result.Add("cache.proxy_hit_ratio", ph / std::max(1.0, pbase), "ratio",
             RatioDetail(ph, pbase) +
                 " validated hits / (hits + misses + validation failures)");
  const double sh = after.server_hits - before.server_hits;
  const double sbase = sh + (after.server_misses - before.server_misses);
  result.Add("cache.server_hit_ratio", sh / std::max(1.0, sbase), "ratio",
             RatioDetail(sh, sbase) + " partial-cache hits / lookups");
  result.Add("cache.evictions", after.evictions - before.evictions, "count",
             "proxy merged-cache + server partial-cache evictions");
  const double inval = (after.server_invalid - before.server_invalid) +
                       (after.proxy_invalid - before.proxy_invalid);
  result.Add("cache.invalidations", inval, "count",
             "server epoch invalidations + proxy validation failures");
  result.Add("admit.admitted", after.admitted - before.admitted, "count",
             RatioDetail(after.admitted - before.admitted, nq) +
                 " admitted / script queries (verification re-runs included)");
  result.Add("admit.rejected", after.rejected - before.rejected, "count",
             "admission rejections");
  result.Add("sim.run_for_us", Median(run_for_us), "us",
             SampleDetail(0.5, run_for_us.size()) +
                 " wall us per RunFor(10 simulated s)");
  result.Add("obs.trace_overhead_frac",
             1.0 - traced_busy.Qps() / plain_busy.Qps(), "ratio",
             "1 - traced/untraced QPS over alternating queries with "
             "QueryRequest::tracing on/off: " +
                 RatioDetail(traced_busy.Qps(), plain_busy.Qps()));
  return result;
}

}  // namespace perfbench
