// End-to-end tests for distributed query tracing and the unified
// metrics export: a proxied query must produce the full span tree
// (proxy attempt -> coordinator subquery -> server partition -> morsel),
// retries and hedges must appear as spans with correct parentage, and
// both exports must be byte-identical across same-seed runs even with
// morsel spans recorded concurrently by exec-pool workers.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/metrics.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace scalewall::core {
namespace {

cubrick::Query CountQuery(const std::string& table) {
  cubrick::Query q;
  q.table = table;
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kCount},
                    cubrick::Aggregation{0, cubrick::AggOp::kSum}};
  return q;
}

DeploymentOptions TracedOptions(uint64_t seed) {
  DeploymentOptions options;
  options.seed = seed;
  options.topology.regions = 1;
  options.topology.racks_per_region = 2;
  options.topology.servers_per_rack = 5;  // 10 servers
  options.max_shards = 5000;
  options.per_host_failure_probability = 0.0;
  options.enable_query_tracing = true;
  // Morsel-parallel scans so the deepest span layer is recorded from
  // pool workers (the interesting case for determinism).
  options.server_options.scan_workers = 2;
  options.server_options.morsel_rows = 64;
  return options;
}

// Walks `span` to the root, returning the names along the way
// (self first, root last).
std::vector<std::string> AncestryNames(
    const std::vector<obs::SpanRecord>& spans, const obs::SpanRecord& span) {
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  std::vector<std::string> names;
  const obs::SpanRecord* cur = &span;
  while (true) {
    names.push_back(cur->name);
    if (cur->parent == 0) break;
    auto it = by_id.find(cur->parent);
    if (it == by_id.end()) break;
    cur = it->second;
  }
  return names;
}

bool AnyStartsWith(const std::vector<std::string>& names,
                   const std::string& prefix) {
  for (const auto& n : names) {
    if (n.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(QueryTracingTest, SingleQueryProducesFullDepthSpanTree) {
  Deployment dep(TracedOptions(/*seed=*/31));
  cubrick::TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
  ASSERT_TRUE(dep.CreateTable("t", schema).ok());
  Rng rng(99);
  ASSERT_TRUE(dep.LoadRows("t", workload::GenerateRows(schema, 4000, rng)).ok());
  dep.RunFor(15 * kSecond);

  auto outcome = dep.Query(cubrick::QueryRequest(CountQuery("t")));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;

  obs::TraceSink& sink = dep.trace_sink();
  uint64_t trace_id = sink.LastTraceId();
  ASSERT_NE(trace_id, 0u);
  std::vector<obs::SpanRecord> spans = sink.Spans(trace_id);
  ASSERT_GT(spans.size(), 4u);

  // Root is the query span, closed at the query's end with its status.
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].name, "query t");
  EXPECT_EQ(spans[0].end - spans[0].start, outcome.latency);
  bool has_status = false;
  for (const auto& [k, v] : spans[0].tags) {
    if (k == "status" && v == "OK") has_status = true;
  }
  EXPECT_TRUE(has_status);

  // The deepest layer must be present and hang off the full chain:
  // morsel -> partition -> subquery -> attempt -> query.
  bool full_depth = false;
  for (const auto& span : spans) {
    if (span.name.rfind("morsel ", 0) != 0) continue;
    std::vector<std::string> chain = AncestryNames(spans, span);
    if (AnyStartsWith(chain, "partition ") &&
        AnyStartsWith(chain, "subquery p") &&
        AnyStartsWith(chain, "attempt ") && AnyStartsWith(chain, "query ")) {
      full_depth = true;
      break;
    }
  }
  EXPECT_TRUE(full_depth) << sink.ExportTextTree(trace_id);

  // Every span closes within the query window (sim-time stamps only).
  for (const auto& span : spans) {
    EXPECT_GE(span.start, spans[0].start);
    EXPECT_LE(span.end, spans[0].end);
    EXPECT_LE(span.start, span.end);
  }

  // The proxy-side query log links to the trace.
  auto traces = dep.proxy().RecentTraces(1);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].trace_id, trace_id);
}

TEST(QueryTracingTest, RetryAndHedgeSpansHaveCorrectParentage) {
  DeploymentOptions options = TracedOptions(/*seed=*/7);
  options.topology.racks_per_region = 4;  // 20 servers
  options.per_host_failure_probability = 0.01;
  options.subquery_policy.max_subquery_retries = 2;
  options.subquery_policy.hedge_quantile = 0.9;
  options.trace_options.max_traces = 256;
  Deployment dep(options);
  cubrick::TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
  ASSERT_TRUE(
      dep.CreateTable("t", schema, TableOptions{.partitions = 16}).ok());
  Rng rng(3);
  ASSERT_TRUE(dep.LoadRows("t", workload::GenerateRows(schema, 2000, rng)).ok());
  dep.RunFor(60 * kSecond);

  for (int i = 0; i < 80; ++i) {
    dep.Query(cubrick::QueryRequest(CountQuery("t")));
    dep.RunFor(200 * kMillisecond);
  }
  // The reliability layer did fire (fan-out 16 at p=0.01 per host).
  EXPECT_GT(dep.proxy().stats().subquery_retries, 0);
  EXPECT_GT(dep.proxy().stats().hedges_fired, 0);

  obs::TraceSink& sink = dep.trace_sink();
  bool saw_retry = false, saw_hedge = false;
  for (uint64_t trace_id : sink.TraceIds()) {
    std::vector<obs::SpanRecord> spans = sink.Spans(trace_id);
    std::map<uint64_t, const obs::SpanRecord*> by_id;
    for (const auto& s : spans) by_id[s.id] = &s;
    for (const auto& span : spans) {
      if (span.name.rfind("retry s", 0) == 0) {
        saw_retry = true;
        // Retry draws happen while the attempt fans out: parent is the
        // attempt span.
        ASSERT_NE(by_id.count(span.parent), 0u);
        EXPECT_EQ(by_id[span.parent]->name.rfind("attempt ", 0), 0u);
      } else if (span.name == "hedge") {
        saw_hedge = true;
        // A hedge duplicates one subquery: parent is that subquery span.
        ASSERT_NE(by_id.count(span.parent), 0u);
        EXPECT_EQ(by_id[span.parent]->name.rfind("subquery p", 0), 0u);
        bool has_won = false;
        for (const auto& [k, v] : span.tags) {
          if (k == "won") has_won = (v == "true" || v == "false");
        }
        EXPECT_TRUE(has_won);
      }
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_hedge);
}

TEST(QueryTracingTest, ExportsAreByteIdenticalAcrossSameSeedRuns) {
  auto run = [] {
    Deployment dep(TracedOptions(/*seed=*/17));
    cubrick::TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
    EXPECT_TRUE(dep.CreateTable("t", schema).ok());
    Rng rng(5);
    EXPECT_TRUE(
        dep.LoadRows("t", workload::GenerateRows(schema, 3000, rng)).ok());
    dep.RunFor(15 * kSecond);
    for (int i = 0; i < 5; ++i) {
      dep.Query(cubrick::QueryRequest(CountQuery("t")));
      dep.RunFor(100 * kMillisecond);
    }
    std::string all;
    for (uint64_t trace_id : dep.trace_sink().TraceIds()) {
      all += dep.trace_sink().ExportChromeTrace(trace_id);
      all += dep.trace_sink().ExportTextTree(trace_id);
    }
    return all;
  };
  std::string first = run();
  std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(QueryTracingTest, RecentTracesReturnsNewestFirstCapped) {
  Deployment dep(TracedOptions(/*seed=*/23));
  cubrick::TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
  ASSERT_TRUE(dep.CreateTable("t", schema).ok());
  Rng rng(5);
  ASSERT_TRUE(dep.LoadRows("t", workload::GenerateRows(schema, 500, rng)).ok());
  dep.RunFor(15 * kSecond);
  for (int i = 0; i < 4; ++i) dep.Query(cubrick::QueryRequest(CountQuery("t")));

  auto all = dep.proxy().RecentTraces();
  ASSERT_EQ(all.size(), 4u);
  // Newest first: trace ids are assigned sequentially per query.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i - 1].trace_id, all[i].trace_id);
  }
  auto two = dep.proxy().RecentTraces(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].trace_id, all[0].trace_id);
  EXPECT_EQ(two[1].trace_id, all[1].trace_id);
  // A limit beyond the log size returns everything.
  EXPECT_EQ(dep.proxy().RecentTraces(64).size(), 4u);
}

TEST(QueryTracingTest, MetricsExportCoversAllLayersAndIsStable) {
  auto run = [] {
    // Serial scans: exec-pool gauges (scheduling-dependent) stay out of
    // the registry, so the whole export is a pure function of the seed.
    DeploymentOptions options = TracedOptions(/*seed=*/41);
    options.server_options.scan_workers = 0;
    Deployment dep(options);
    cubrick::TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
    EXPECT_TRUE(dep.CreateTable("t", schema).ok());
    Rng rng(7);
    EXPECT_TRUE(
        dep.LoadRows("t", workload::GenerateRows(schema, 2000, rng)).ok());
    dep.RunFor(15 * kSecond);
    dep.Query(cubrick::QueryRequest(CountQuery("t")));
    return ExportMetricsText(dep);
  };
  std::string text = run();

  // Pre-registry lines survive.
  EXPECT_NE(text.find("scalewall_fleet_servers{state=\"healthy\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_catalog_tables 1"), std::string::npos);
  EXPECT_NE(text.find("scalewall_sm_assigned_shards{region=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_engine_partial_queries_total"),
            std::string::npos);
  // Registry-rendered series from every migrated layer.
  EXPECT_NE(text.find("scalewall_proxy_queries_total{result=\"submitted\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_proxy_queries_total{result=\"succeeded\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_proxy_query_latency_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_proxy_query_latency_ms_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_sm_placements_total{region=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_server_partial_queries_total{server=\""),
            std::string::npos);
  EXPECT_NE(
      text.find("scalewall_exec_morsels_total{result=\"executed\",server=\""),
      std::string::npos);

  // Same seed, same operations => byte-identical export.
  EXPECT_EQ(text, run());
}

TEST(QueryTracingTest, ExecPoolCountersExportedWhenPoolPresent) {
  Deployment dep(TracedOptions(/*seed=*/43));  // scan_workers = 2
  cubrick::TableSchema schema = workload::MakeSchema(2, 64, 8, 1);
  ASSERT_TRUE(dep.CreateTable("t", schema).ok());
  Rng rng(7);
  ASSERT_TRUE(dep.LoadRows("t", workload::GenerateRows(schema, 4000, rng)).ok());
  dep.RunFor(15 * kSecond);
  ASSERT_TRUE(dep.Query(cubrick::QueryRequest(CountQuery("t"))).status.ok());

  std::string text = ExportMetricsText(dep);
  EXPECT_NE(text.find("scalewall_exec_pool_tasks_submitted_total{server=\""),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_exec_pool_tasks_executed_total{server=\""),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_exec_pool_queue_depth{server=\""),
            std::string::npos);
  EXPECT_NE(text.find("scalewall_exec_pool_steals_total{server=\""),
            std::string::npos);
}

}  // namespace
}  // namespace scalewall::core
