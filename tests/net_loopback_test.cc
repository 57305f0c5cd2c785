// End-to-end transport byte-identity.
//
// 1. A Deployment runs every hop over the sim transport's wire codecs.
//    A fixed-seed scenario (flat plans, merged-cache validation hops and
//    k-ary tree plans) must reproduce a recorded digest of every query
//    outcome — status, row bits, latency, attempts, fan-out and
//    reliability activity — with rows matching the single-process
//    oracle, transport metrics accumulating and "net " spans joining the
//    query traces.
// 2. A real-socket cluster (in-process epoll loops: one ProxyNode + two
//    ServerNodes on loopback) fanning out the deterministic dataset's
//    query must return rows bit-identical to the same-seed sim-transport
//    Deployment run — the epoll and sim backends carry the same frames.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "core/deployment.h"
#include "cubrick/sql.h"
#include "net/epoll_transport.h"
#include "node/dataset.h"
#include "node/node.h"

namespace scalewall {
namespace {

using core::Deployment;
using core::DeploymentOptions;
using core::TransportMode;

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Bit-level equality: doubles compared as IEEE-754 patterns, so +0/-0
// and every last mantissa bit count.
void ExpectRowsBitIdentical(const std::vector<cubrick::ResultRow>& a,
                            const std::vector<cubrick::ResultRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "row " << i;
    ASSERT_EQ(a[i].values.size(), b[i].values.size()) << "row " << i;
    for (size_t v = 0; v < a[i].values.size(); ++v) {
      EXPECT_EQ(Bits(a[i].values[v]), Bits(b[i].values[v]))
          << "row " << i << " value " << v;
    }
  }
}

// Same keys; values equal up to float reassociation. A tree plan folds
// each subtree on its aggregator before the root folds the subtrees, so
// non-integral sums may differ from the flat fold in the last bits.
void ExpectRowsNear(const std::vector<cubrick::ResultRow>& want,
                    const std::vector<cubrick::ResultRow>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].key, got[i].key) << "row " << i;
    ASSERT_EQ(want[i].values.size(), got[i].values.size()) << "row " << i;
    for (size_t v = 0; v < want[i].values.size(); ++v) {
      EXPECT_NEAR(want[i].values[v], got[i].values[v],
                  1e-9 * std::abs(want[i].values[v]))
          << "row " << i << " value " << v;
    }
  }
}

DeploymentOptions BaseOptions(uint64_t seed, TransportMode transport) {
  DeploymentOptions options;
  options.seed = seed;
  options.topology.regions = 2;
  options.topology.racks_per_region = 2;
  options.topology.servers_per_rack = 4;  // 8 servers per region
  options.max_shards = 5000;
  options.transport = transport;
  options.subquery_policy.max_subquery_retries = 2;
  options.subquery_policy.hedge_quantile = 0.99;
  options.per_host_failure_probability = 0.001;
  options.enable_result_caching = true;
  return options;
}

std::vector<cubrick::Query> TestQueries(const cubrick::TableSchema& schema) {
  std::vector<cubrick::Query> queries;
  const char* sqls[] = {
      "SELECT SUM(spend), COUNT(clicks) FROM ads",
      "SELECT region, SUM(spend) FROM ads GROUP BY region "
      "ORDER BY SUM(spend) DESC LIMIT 4",
      "SELECT day, region, AVG(spend), MAX(clicks) FROM ads "
      "WHERE day BETWEEN 5 AND 20 AND region < 6 GROUP BY day, region "
      "ORDER BY AVG(spend) DESC LIMIT 10",
      "SELECT product, MIN(spend), SUM(clicks) FROM ads "
      "WHERE product IN (3, 17, 40, 63) GROUP BY product",
  };
  for (const char* sql : sqls) {
    auto query = cubrick::ParseQuery(sql, schema);
    EXPECT_TRUE(query.ok()) << sql << ": " << query.status().ToString();
    if (query.ok()) queries.push_back(*query);
  }
  return queries;
}

// Runs the full scenario (load, time, queries) on one deployment.
struct ScenarioRun {
  std::vector<cubrick::Query> queries;  // one per outcome
  std::vector<cubrick::QueryOutcome> outcomes;
};

ScenarioRun RunScenario(Deployment& dep, bool tracing) {
  ScenarioRun run;
  const node::DatasetOptions dataset;  // the node dataset, reused as-is
  EXPECT_TRUE(dep.CreateTable(node::DatasetTable(), node::DatasetSchema()).ok());
  EXPECT_TRUE(
      dep.LoadRows(node::DatasetTable(), node::GenerateRows(dataset)).ok());
  dep.RunFor(30 * kSecond);
  const std::vector<cubrick::Query> queries =
      TestQueries(node::DatasetSchema());
  auto submit = [&](const cubrick::Query& query,
                    const cubrick::QueryRequest& request) {
    run.queries.push_back(query);
    run.outcomes.push_back(dep.Query(request));
  };
  for (const cubrick::Query& query : queries) {
    cubrick::QueryRequest request(query);
    request.tracing = tracing;
    submit(query, request);
    // Repeat once: exercises the merged-cache epoch-validation hop
    // (CallEpochs).
    submit(query, request);
  }
  // Every query again as a binary merge tree (kTreeMergeRequest hops).
  // The merged cache is bypassed: its fingerprint ignores the topology,
  // so a cached flat answer would otherwise stand in for the tree.
  for (const cubrick::Query& query : queries) {
    cubrick::QueryRequest request(query);
    request.tracing = tracing;
    request.merge_fanin = 2;
    request.cache_policy = cache::CachePolicy::kBypass;
    submit(query, request);
  }
  return run;
}

// FNV-1a over every outcome field the sim path must keep bit-stable.
uint64_t OutcomeDigest(const std::vector<cubrick::QueryOutcome>& outcomes) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const cubrick::QueryOutcome& o : outcomes) {
    mix(static_cast<uint64_t>(o.status.code()));
    mix(o.rows.size());
    for (const cubrick::ResultRow& row : o.rows) {
      mix(row.key.size());
      for (uint32_t k : row.key) mix(k);
      mix(row.values.size());
      for (double v : row.values) mix(Bits(v));
    }
    mix(static_cast<uint64_t>(o.latency));
    mix(static_cast<uint64_t>(o.attempts));
    mix(static_cast<uint64_t>(o.fanout));
    mix(static_cast<uint64_t>(o.subquery_retries));
    mix(static_cast<uint64_t>(o.hedges_fired));
    mix(static_cast<uint64_t>(o.hedge_wins));
    mix(static_cast<uint64_t>(o.cache_hits));
  }
  return h;
}

TEST(TransportLoopbackTest, SimDeploymentMatchesGoldenOutcomes) {
  // Recorded from this scenario when the sim transport was still checked
  // against a direct-call path outcome by outcome: status, latency,
  // attempts, fan-out and reliability counters all equal, and row bits
  // too except on the tree half, where that path folded every leaf at the
  // coordinator in flat order. The sim path keeps those numbers.
  constexpr uint64_t kGoldenDigest = 0x088c7d01628cb95dull;
  Deployment dep(BaseOptions(1234, TransportMode::kSim));
  ASSERT_NE(nullptr, dep.sim_network());

  ScenarioRun run = RunScenario(dep, /*tracing=*/false);
  ASSERT_EQ(run.outcomes.size(), 12u);
  const node::DatasetOptions dataset;
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    const cubrick::QueryOutcome& outcome = run.outcomes[i];
    ASSERT_TRUE(outcome.status.ok()) << "query " << i << ": "
                                     << outcome.status;
    auto oracle = node::ExecuteLocal(dataset, run.queries[i]);
    ASSERT_TRUE(oracle.ok());
    if (i < 8) {
      ExpectRowsBitIdentical(*oracle, outcome.rows);
    } else {
      // The tree half really ran as trees; the digest pins its bits.
      EXPECT_EQ(2, outcome.merge_fanin) << "query " << i;
      ExpectRowsNear(*oracle, outcome.rows);
    }
  }
  EXPECT_EQ(kGoldenDigest, OutcomeDigest(run.outcomes))
      << std::hex << "digest 0x" << OutcomeDigest(run.outcomes);

  // The run really crossed the transport: frames in both directions,
  // bytes counted, and modeled RTT samples recorded.
  const net::TransportStats& stats = dep.sim_network()->stats();
  EXPECT_GT(stats.frames_out.value(), 0);
  EXPECT_GT(stats.frames_in.value(), 0);
  EXPECT_GT(stats.bytes_out.value(), 0);
  EXPECT_GT(stats.rtt_ms.count(), 0);
}

TEST(TransportLoopbackTest, SimTransportRecordsNetSpansInQueryTraces) {
  DeploymentOptions options = BaseOptions(77, TransportMode::kSim);
  options.enable_query_tracing = true;
  Deployment dep(options);
  ScenarioRun run = RunScenario(dep, /*tracing=*/true);
  for (const auto& outcome : run.outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  }

  obs::TraceSink& sink = dep.trace_sink();
  ASSERT_NE(sink.LastTraceId(), 0u);
  // At least one trace must contain a transport span tagged with the
  // sim backend, nested inside the query tree. (The proxy/coordinator
  // also record *modeled* "net hops"/"net sK" spans without a backend
  // tag — those only need to join the tree.)
  bool found_transport_span = false;
  for (uint64_t t : sink.TraceIds()) {
    for (const obs::SpanRecord& span : sink.Spans(t)) {
      if (span.name.rfind("net ", 0) != 0) continue;
      EXPECT_NE(0u, span.parent) << "net span must join the query tree";
      for (const auto& [key, value] : span.tags) {
        if (key == "backend" && value == "sim") found_transport_span = true;
      }
    }
  }
  EXPECT_TRUE(found_transport_span);
}

TEST(TransportLoopbackTest, EpollClusterMatchesSimDeploymentByteForByte) {
  // Real sockets: two server nodes + one proxy node on loopback.
  node::NodeOptions server0;
  server0.server_id = 0;
  server0.num_servers = 2;
  node::ServerNode s0(server0);
  ASSERT_TRUE(s0.Start().ok());

  node::NodeOptions server1;
  server1.server_id = 1;
  server1.num_servers = 2;
  node::ServerNode s1(server1);
  ASSERT_TRUE(s1.Start().ok());

  node::NodeOptions proxy_options;
  proxy_options.num_servers = 2;
  std::map<std::string, std::string> peers = {
      {"s0", "127.0.0.1:" + std::to_string(s0.port())},
      {"s1", "127.0.0.1:" + std::to_string(s1.port())},
  };
  node::ProxyNode proxy(proxy_options, peers);
  ASSERT_TRUE(proxy.Start().ok());

  net::EpollTransport client;
  ASSERT_TRUE(client.Start());
  client.MapPeer("proxy", "127.0.0.1:" + std::to_string(proxy.port()));

  // Sim side: a deployment loaded with the very same dataset (the
  // sim-transport run of the same seed).
  DeploymentOptions dep_options = BaseOptions(9, TransportMode::kSim);
  dep_options.per_host_failure_probability = 0.0;
  Deployment dep(dep_options);
  const node::DatasetOptions dataset;
  ASSERT_TRUE(
      dep.CreateTable(node::DatasetTable(), node::DatasetSchema()).ok());
  ASSERT_TRUE(
      dep.LoadRows(node::DatasetTable(), node::GenerateRows(dataset)).ok());
  dep.RunFor(30 * kSecond);

  for (const cubrick::Query& query : TestQueries(node::DatasetSchema())) {
    cubrick::QueryRequest request(query);
    auto socket_rows = node::SubmitClientQuery(client, "proxy", request);
    ASSERT_TRUE(socket_rows.ok()) << socket_rows.status().ToString();
    EXPECT_EQ(2, socket_rows->fanout);

    auto sim_outcome = dep.Query(request);
    ASSERT_TRUE(sim_outcome.status.ok()) << sim_outcome.status;
    ExpectRowsBitIdentical(sim_outcome.rows, socket_rows->rows);

    // And both match the single-process oracle.
    auto oracle = node::ExecuteLocal(dataset, query);
    ASSERT_TRUE(oracle.ok());
    ExpectRowsBitIdentical(*oracle, socket_rows->rows);
  }

  // Metrics present on the socket side too.
  EXPECT_GT(client.stats().frames_out.value(), 0);
  EXPECT_GT(client.stats().rtt_ms.count(), 0);
  EXPECT_GT(proxy.transport().stats().accepts.value(), 0);
  EXPECT_GT(s0.transport().stats().frames_in.value(), 0);
  EXPECT_GT(s1.transport().stats().frames_in.value(), 0);

  client.Stop();
  proxy.Stop();
  s0.Stop();
  s1.Stop();
}

TEST(TransportLoopbackTest, WireDeadlinePropagatesRemainingBudget) {
  // A client deadline must reach the servers as remaining budget: a
  // server-side subquery that would exceed it fails the query with
  // kDeadlineExceeded at the proxy (converted at serialization time,
  // enforced by the per-call timeout).
  node::NodeOptions server0;
  server0.server_id = 0;
  server0.num_servers = 1;
  node::ServerNode s0(server0);
  ASSERT_TRUE(s0.Start().ok());

  node::NodeOptions proxy_options;
  proxy_options.num_servers = 1;
  node::ProxyNode proxy(
      proxy_options,
      {{"s0", "127.0.0.1:" + std::to_string(s0.port())}});
  ASSERT_TRUE(proxy.Start().ok());

  net::EpollTransport client;
  ASSERT_TRUE(client.Start());
  client.MapPeer("proxy", "127.0.0.1:" + std::to_string(proxy.port()));

  auto query = cubrick::ParseQuery("SELECT SUM(spend) FROM ads",
                                   node::DatasetSchema());
  ASSERT_TRUE(query.ok());
  cubrick::QueryRequest request(*query);
  request.deadline = 1;  // 1 microsecond: nothing real completes in time
  auto rows = node::SubmitClientQuery(client, "proxy", request);
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(StatusCode::kDeadlineExceeded, rows.status().code());

  client.Stop();
  proxy.Stop();
  s0.Stop();
}

}  // namespace
}  // namespace scalewall
