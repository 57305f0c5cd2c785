// Node plan matrix: every join strategy (replicated, broadcast, shuffle)
// under every merge topology (flat, fan-in 2 tree, fan-in 4 tree),
// driven through the scalewall_node cores and checked bit-for-bit
// against the single-process oracle node::ExecuteLocal.
//
// Two halves run the same matrix:
// 1. ServerCore / ProxyCore over a SimTransport network;
// 2. in-process ServerNodes and a ProxyNode over loopback sockets.
//
// Three servers over eight partitions make the trees non-trivial: a
// fan-in 2 aggregator forwards remote leaves as subqueries AND whole
// sub-chunks as nested tree merges to its peers.
//
// Plan cases aggregate only exact states (integral sums, counts,
// min/max): tree folds re-associate float sums (DESIGN.md §15), so
// SUM(spend) is only checked on the flat path.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cubrick/sql.h"
#include "net/epoll_transport.h"
#include "net/sim_transport.h"
#include "node/dataset.h"
#include "node/node.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "sim/simulation.h"

namespace scalewall {
namespace {

constexpr uint32_t kServers = 3;

node::DatasetOptions Dataset() {
  node::DatasetOptions dataset;
  dataset.seed = 7;
  dataset.num_partitions = 8;
  dataset.num_rows = 6000;
  return dataset;
}

node::NodeOptions ServerOptions(uint32_t id) {
  node::NodeOptions options;
  options.server_id = id;
  options.num_servers = kServers;
  options.dataset = Dataset();
  return options;
}

node::NodeOptions ProxyOptions() {
  node::NodeOptions options;
  options.num_servers = kServers;
  options.dataset = Dataset();
  return options;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectRowsBitIdentical(const std::vector<cubrick::ResultRow>& want,
                            const std::vector<cubrick::ResultRow>& got,
                            const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].key, got[i].key) << label << " row " << i;
    ASSERT_EQ(want[i].values.size(), got[i].values.size())
        << label << " row " << i;
    for (size_t v = 0; v < want[i].values.size(); ++v) {
      EXPECT_EQ(Bits(want[i].values[v]), Bits(got[i].values[v]))
          << label << " row " << i << " value " << v;
    }
  }
}

cubrick::Query Parse(const std::string& sql) {
  auto query =
      cubrick::ParseQuery(sql, node::DatasetSchema(), &node::DatasetCatalog());
  EXPECT_TRUE(query.ok()) << sql << ": " << query.status().ToString();
  return query.ok() ? *query : cubrick::Query{};
}

struct PlanCase {
  std::string sql;
  cubrick::JoinStrategy strategy;
  int merge_fanin;  // 1 = pinned flat merge, >= 2 = k-ary tree
};

// Exact-state queries under every (strategy, topology) pair, plus one
// float-sum query on the flat path.
std::vector<PlanCase> Matrix() {
  const std::vector<std::string> join_sqls = {
      "SELECT product_dim.category, SUM(clicks), COUNT(clicks), "
      "MAX(spend) FROM ads JOIN product_dim ON product "
      "GROUP BY product_dim.category",
      "SELECT product_dim.category, region, MIN(spend), SUM(clicks) "
      "FROM ads JOIN product_dim ON product "
      "WHERE product_dim.category BETWEEN 1 AND 6 AND day < 20 "
      "GROUP BY product_dim.category, region",
  };
  const std::string joinless_sql =
      "SELECT day, SUM(clicks), MIN(spend), MAX(spend), COUNT(clicks) "
      "FROM ads WHERE region < 6 GROUP BY day "
      "ORDER BY SUM(clicks) DESC LIMIT 12";
  const cubrick::JoinStrategy strategies[] = {
      cubrick::JoinStrategy::kReplicated, cubrick::JoinStrategy::kBroadcast,
      cubrick::JoinStrategy::kShuffle};
  const int fanins[] = {1, 2, 4};

  std::vector<PlanCase> cases;
  for (int fanin : fanins) {
    for (const std::string& sql : join_sqls) {
      for (cubrick::JoinStrategy strategy : strategies) {
        cases.push_back({sql, strategy, fanin});
      }
    }
    cases.push_back({joinless_sql, cubrick::JoinStrategy::kAuto, fanin});
  }
  cases.push_back({"SELECT region, SUM(spend), AVG(spend) FROM ads "
                   "GROUP BY region",
                   cubrick::JoinStrategy::kAuto, 1});
  return cases;
}

std::string Label(const PlanCase& c) {
  return std::string(cubrick::JoinStrategyName(c.strategy)) +
         " fanin=" + std::to_string(c.merge_fanin) + ": " + c.sql;
}

cubrick::QueryRequest Request(const PlanCase& c) {
  cubrick::QueryRequest request(Parse(c.sql));
  request.join_strategy = c.strategy;
  request.merge_fanin = c.merge_fanin;
  return request;
}

// Runs the whole matrix through `submit` and compares each answer with
// the oracle's.
template <typename Submit>
void RunMatrix(Submit submit) {
  std::map<std::string, std::vector<cubrick::ResultRow>> oracle;
  for (const PlanCase& c : Matrix()) {
    const std::string label = Label(c);
    auto it = oracle.find(c.sql);
    if (it == oracle.end()) {
      auto rows = node::ExecuteLocal(Dataset(), Parse(c.sql));
      ASSERT_TRUE(rows.ok()) << label << ": " << rows.status().ToString();
      ASSERT_FALSE(rows->empty()) << label;
      it = oracle.emplace(c.sql, std::move(rows).value()).first;
    }
    auto got = submit(Request(c));
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    ExpectRowsBitIdentical(it->second, got->rows, label);
  }
}

// ServerCore / ProxyCore wired to named SimTransport nodes.
struct SimCluster {
  sim::Simulation sim{11};
  net::SimNetwork network{&sim};
  obs::MetricsRegistry metrics;
  std::vector<std::unique_ptr<node::ServerCore>> servers;
  std::unique_ptr<node::ProxyCore> proxy;

  SimCluster() {
    for (uint32_t s = 0; s < kServers; ++s) {
      const std::string name = "s" + std::to_string(s);
      servers.push_back(std::make_unique<node::ServerCore>(
          ServerOptions(s), &metrics, network.Node(name)));
      EXPECT_TRUE(servers.back()->LoadPartitions().ok());
      node::ServerCore* core = servers.back().get();
      network.Node(name)->SetHandler(
          [core](const net::Message& m, const net::CallSideband&) {
            return core->Handle(m);
          });
    }
    proxy = std::make_unique<node::ProxyCore>(ProxyOptions(),
                                              network.Node("proxy"), &metrics);
    network.Node("proxy")->SetHandler(
        [this](const net::Message& m, const net::CallSideband&) {
          return proxy->Handle(m);
        });
  }

  Result<cubrick::wire::ClientRowsEnvelope> Query(
      const cubrick::QueryRequest& request) {
    return node::SubmitClientQuery(*network.Node("client"), "proxy", request);
  }
};

// ServerNodes (peers mapped to each other for tree forwarding) and a
// ProxyNode on loopback sockets.
struct LoopbackCluster {
  std::vector<std::unique_ptr<node::ServerNode>> servers;
  std::unique_ptr<node::ProxyNode> proxy;
  net::EpollTransport client;

  LoopbackCluster() {
    std::map<std::string, std::string> peers;
    for (uint32_t s = 0; s < kServers; ++s) {
      servers.push_back(std::make_unique<node::ServerNode>(ServerOptions(s)));
      EXPECT_TRUE(servers.back()->Start().ok());
      peers["s" + std::to_string(s)] =
          "127.0.0.1:" + std::to_string(servers.back()->port());
    }
    for (auto& server : servers) {
      for (const auto& [name, address] : peers) {
        server->transport().MapPeer(name, address);
      }
    }
    proxy = std::make_unique<node::ProxyNode>(ProxyOptions(), peers);
    EXPECT_TRUE(proxy->Start().ok());
    EXPECT_TRUE(client.Start());
    client.MapPeer("proxy", "127.0.0.1:" + std::to_string(proxy->port()));
  }

  ~LoopbackCluster() {
    client.Stop();
    proxy->Stop();
    for (auto& server : servers) server->Stop();
  }

  Result<cubrick::wire::ClientRowsEnvelope> Query(
      const cubrick::QueryRequest& request) {
    return node::SubmitClientQuery(client, "proxy", request);
  }
};

TEST(NodePlanMatrixTest, SimTransportMatchesOracle) {
  SimCluster cluster;
  RunMatrix([&](const cubrick::QueryRequest& request) {
    return cluster.Query(request);
  });
}

TEST(NodePlanMatrixTest, LoopbackSocketsMatchOracle) {
  LoopbackCluster cluster;
  RunMatrix([&](const cubrick::QueryRequest& request) {
    return cluster.Query(request);
  });
}

TEST(NodePlanMatrixTest, ProfiledSocketQueryReportsMeasuredScanTime) {
  LoopbackCluster cluster;
  cubrick::QueryRequest request(
      Parse("SELECT day, region, SUM(spend), COUNT(clicks) FROM ads "
            "GROUP BY day, region"));
  request.profile = true;
  auto rows = cluster.Query(request);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  obs::TraceSink& sink = cluster.proxy->core().trace_sink();
  ASSERT_NE(0u, sink.LastTraceId());
  const obs::QueryProfile profile =
      obs::BuildQueryProfile(sink.Spans(sink.LastTraceId()));
  EXPECT_EQ(Dataset().num_partitions, profile.subqueries.size());
  EXPECT_GT(profile.rows_scanned, 0);
  // The servers' partition spans carry wall-clock scan durations.
  EXPECT_GT(profile.scan_micros, 0);
}

TEST(NodePlanMatrixTest, TracedTreePlanShipsEveryPartitionSpan) {
  // Tree hops ship span batches, forwarded leaves and nested subtrees
  // included: the stitched tree holds every partition's span, is the
  // same on both transports, and its profile counts the same work as
  // the flat plan's.
  cubrick::QueryRequest request(
      Parse("SELECT day, SUM(clicks), COUNT(clicks) FROM ads "
            "WHERE region < 6 GROUP BY day"));
  request.profile = true;
  request.merge_fanin = 1;
  SimCluster sim_cluster;
  ASSERT_TRUE(sim_cluster.Query(request).ok());
  obs::TraceSink& flat_sink = sim_cluster.proxy->trace_sink();
  const obs::QueryProfile flat =
      obs::BuildQueryProfile(flat_sink.Spans(flat_sink.LastTraceId()));

  request.merge_fanin = 2;
  ASSERT_TRUE(sim_cluster.Query(request).ok());
  obs::TraceSink& sim_sink = sim_cluster.proxy->trace_sink();
  LoopbackCluster socket_cluster;
  ASSERT_TRUE(socket_cluster.Query(request).ok());
  obs::TraceSink& socket_sink = socket_cluster.proxy->core().trace_sink();

  const std::string sim_tree =
      sim_sink.ExportCanonicalTree(sim_sink.LastTraceId());
  EXPECT_EQ(sim_tree,
            socket_sink.ExportCanonicalTree(socket_sink.LastTraceId()));
  EXPECT_NE(std::string::npos, sim_tree.find("tree merge p0-p3"));
  for (const obs::TraceSink* sink : {&sim_sink, &socket_sink}) {
    const obs::QueryProfile tree =
        obs::BuildQueryProfile(sink->Spans(sink->LastTraceId()));
    EXPECT_EQ(Dataset().num_partitions, tree.subqueries.size());
    EXPECT_EQ(flat.rows_scanned, tree.rows_scanned);
    EXPECT_EQ(flat.bricks_scanned, tree.bricks_scanned);
    EXPECT_EQ("tree", tree.merge_topology);
  }
}

}  // namespace
}  // namespace scalewall
