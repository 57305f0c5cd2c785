// The cross-process telemetry plane, end to end.
//
// 1. Trace stitching is transport-invariant: the SAME ServerCore /
//    ProxyCore protocol logic runs once over a SimTransport network and
//    once over a real epoll loopback cluster, and the same-seed query
//    must export a byte-identical canonical trace tree and canonical
//    QueryProfile from both — the wire span batches carry exactly what
//    the in-process path records.
// 2. The HTTP admin plane: /metrics, /healthz and /traces (and the
//    proxy's /slowlog) served from the node's own event loop, checked
//    with a raw HTTP/1.0 client.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cubrick/sql.h"
#include "net/sim_transport.h"
#include "node/dataset.h"
#include "node/node.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "sim/simulation.h"

namespace scalewall {
namespace {

cubrick::Query TestQuery() {
  auto query = cubrick::ParseQuery(
      "SELECT region, SUM(spend), MAX(clicks) FROM ads "
      "WHERE day BETWEEN 2 AND 25 GROUP BY region "
      "ORDER BY SUM(spend) DESC LIMIT 5",
      node::DatasetSchema());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return *query;
}

// The sim half of the differential: cores wired to named SimTransport
// nodes, client query injected through the client node's own Call.
struct SimCluster {
  sim::Simulation sim{42};
  net::SimNetwork network{&sim};
  obs::MetricsRegistry metrics;
  node::ServerCore s0;
  node::ServerCore s1;
  node::ProxyCore proxy;

  static node::NodeOptions ServerOptions(uint32_t id) {
    node::NodeOptions options;
    options.server_id = id;
    options.num_servers = 2;
    return options;
  }
  static node::NodeOptions ProxyOptions() {
    node::NodeOptions options;
    options.num_servers = 2;
    return options;
  }

  SimCluster()
      : s0(ServerOptions(0), &metrics),
        s1(ServerOptions(1), &metrics),
        proxy(ProxyOptions(), network.Node("proxy"), &metrics) {
    EXPECT_TRUE(s0.LoadPartitions().ok());
    EXPECT_TRUE(s1.LoadPartitions().ok());
    network.Node("s0")->SetHandler(
        [this](const net::Message& m, const net::CallSideband&) {
          return s0.Handle(m);
        });
    network.Node("s1")->SetHandler(
        [this](const net::Message& m, const net::CallSideband&) {
          return s1.Handle(m);
        });
    network.Node("proxy")->SetHandler(
        [this](const net::Message& m, const net::CallSideband&) {
          return proxy.Handle(m);
        });
  }

  Result<cubrick::wire::ClientRowsEnvelope> Query(
      const cubrick::QueryRequest& request) {
    return node::SubmitClientQuery(*network.Node("client"), "proxy", request);
  }
};

// The real-socket half: one ProxyNode + two ServerNodes on loopback.
struct EpollCluster {
  obs::MetricsRegistry metrics;
  node::ServerNode s0;
  node::ServerNode s1;
  node::ProxyNode* proxy = nullptr;
  std::unique_ptr<node::ProxyNode> proxy_storage;
  net::EpollTransport client;

  explicit EpollCluster(node::NodeOptions proxy_options = {})
      : s0(SimCluster::ServerOptions(0)), s1(SimCluster::ServerOptions(1)) {
    EXPECT_TRUE(s0.Start().ok());
    EXPECT_TRUE(s1.Start().ok());
    proxy_options.num_servers = 2;
    std::map<std::string, std::string> peers = {
        {"s0", "127.0.0.1:" + std::to_string(s0.port())},
        {"s1", "127.0.0.1:" + std::to_string(s1.port())},
    };
    proxy_storage = std::make_unique<node::ProxyNode>(proxy_options, peers,
                                                      &metrics);
    proxy = proxy_storage.get();
    EXPECT_TRUE(proxy->Start().ok());
    EXPECT_TRUE(client.Start());
    client.MapPeer("proxy", "127.0.0.1:" + std::to_string(proxy->port()));
  }

  ~EpollCluster() {
    client.Stop();
    if (proxy != nullptr) proxy->Stop();
    s0.Stop();
    s1.Stop();
  }

  Result<cubrick::wire::ClientRowsEnvelope> Query(
      const cubrick::QueryRequest& request) {
    return node::SubmitClientQuery(client, "proxy", request);
  }
};

TEST(NodeTelemetryTest, StitchedTraceIsByteIdenticalAcrossTransports) {
  cubrick::QueryRequest request(TestQuery());
  request.profile = true;

  SimCluster sim_cluster;
  auto sim_rows = sim_cluster.Query(request);
  ASSERT_TRUE(sim_rows.ok()) << sim_rows.status().ToString();

  EpollCluster epoll_cluster;
  auto socket_rows = epoll_cluster.Query(request);
  ASSERT_TRUE(socket_rows.ok()) << socket_rows.status().ToString();

  // Same rows (the existing loopback suite covers this in depth).
  ASSERT_EQ(sim_rows->rows.size(), socket_rows->rows.size());

  // One stitched trace per side...
  obs::TraceSink& sim_sink = sim_cluster.proxy.trace_sink();
  obs::TraceSink& socket_sink = epoll_cluster.proxy->core().trace_sink();
  const uint64_t sim_trace = sim_sink.LastTraceId();
  const uint64_t socket_trace = socket_sink.LastTraceId();
  ASSERT_NE(0u, sim_trace);
  ASSERT_NE(0u, socket_trace);

  // ...containing the REMOTE partition spans grafted under the proxy's
  // subquery spans: the stitch really crossed the process boundary.
  const std::string sim_tree = sim_sink.ExportCanonicalTree(sim_trace);
  EXPECT_NE(std::string::npos, sim_tree.find("partition ads/p0"));
  EXPECT_NE(std::string::npos, sim_tree.find("partition ads/p7"));
  EXPECT_NE(std::string::npos, sim_tree.find("subquery p3"));
  EXPECT_NE(std::string::npos, sim_tree.find("merge"));

  // The headline property: byte-identical canonical exports.
  EXPECT_EQ(sim_tree, socket_sink.ExportCanonicalTree(socket_trace));

  // And byte-identical canonical profiles derived from them.
  obs::QueryProfile sim_profile =
      obs::BuildQueryProfile(sim_sink.Spans(sim_trace));
  obs::QueryProfile socket_profile =
      obs::BuildQueryProfile(socket_sink.Spans(socket_trace));
  const std::string canonical = sim_profile.CanonicalText();
  EXPECT_EQ(canonical, socket_profile.CanonicalText());
  EXPECT_EQ(8u, sim_profile.subqueries.size());
  EXPECT_GT(sim_profile.rows_scanned, 0);
  EXPECT_GT(sim_profile.bricks_scanned, 0);
  EXPECT_EQ(2, sim_profile.fanout);

  // The client-visible profile text embeds the same canonical body.
  EXPECT_EQ(0u, sim_rows->profile_text.find(canonical));
  EXPECT_EQ(0u, socket_rows->profile_text.find(canonical));
  EXPECT_FALSE(socket_rows->trace_text.empty());
}

TEST(NodeTelemetryTest, ProfileOptInGatesClientPayload) {
  EpollCluster cluster;
  cubrick::QueryRequest request(TestQuery());
  request.tracing = false;

  // Untraced, unprofiled: no payload, no retained trace.
  auto plain = cluster.Query(request);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_TRUE(plain->profile_text.empty());
  EXPECT_TRUE(plain->trace_text.empty());
  EXPECT_EQ(0u, cluster.proxy->core().trace_sink().LastTraceId());

  // profile=true alone forces the trace on for this query.
  request.profile = true;
  auto profiled = cluster.Query(request);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_FALSE(profiled->profile_text.empty());
  EXPECT_NE(std::string::npos, profiled->profile_text.find("query=ads"));
  EXPECT_NE(std::string::npos, profiled->trace_text.find("query ads"));
  // Rows are identical with and without profiling.
  ASSERT_EQ(plain->rows.size(), profiled->rows.size());
}

// Minimal HTTP/1.0 GET against 127.0.0.1:<port>; returns the full
// response (status line, headers, body) or "" on connect failure.
std::string HttpGet(int port, const std::string& path) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string Body(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(NodeTelemetryTest, AdminEndpointsServeMetricsHealthAndTraces) {
  node::NodeOptions proxy_options;
  proxy_options.slow_log.latency_threshold_micros = 1;  // capture everything
  EpollCluster cluster(proxy_options);
  ASSERT_TRUE(cluster.proxy->StartAdmin("127.0.0.1:0").ok());
  ASSERT_TRUE(cluster.s0.StartAdmin("127.0.0.1:0").ok());
  const int proxy_admin = cluster.proxy->admin_port();
  const int server_admin = cluster.s0.admin_port();
  ASSERT_GT(proxy_admin, 0);
  ASSERT_GT(server_admin, 0);

  cubrick::QueryRequest request(TestQuery());
  request.profile = true;
  ASSERT_TRUE(cluster.Query(request).ok());

  // /healthz names the role.
  std::string health = HttpGet(proxy_admin, "/healthz");
  EXPECT_NE(std::string::npos, health.find("HTTP/1.0 200"));
  EXPECT_NE(std::string::npos, health.find("ok role=proxy"));
  EXPECT_NE(std::string::npos,
            HttpGet(server_admin, "/healthz").find("ok role=server"));

  // /metrics: Prometheus exposition with typed series and histogram
  // buckets, counters advanced by the query we just ran.
  std::string metrics = HttpGet(proxy_admin, "/metrics");
  EXPECT_NE(std::string::npos, metrics.find("HTTP/1.0 200"));
  EXPECT_NE(std::string::npos,
            metrics.find("# TYPE scalewall_node_queries_total counter"));
  EXPECT_NE(std::string::npos, metrics.find("scalewall_node_queries_total 1"));
  EXPECT_NE(std::string::npos,
            metrics.find("scalewall_node_query_latency_ms_bucket{le="));
  EXPECT_NE(
      std::string::npos,
      metrics.find("scalewall_net_frames_total{backend=\"epoll\",dir=\"out\"}"));

  // /traces on the proxy holds the stitched tree (remote partition
  // spans included); servers retain nothing.
  std::string traces = Body(HttpGet(proxy_admin, "/traces"));
  EXPECT_NE(std::string::npos, traces.find("retained traces: 1"));
  EXPECT_NE(std::string::npos, traces.find("query ads"));
  EXPECT_NE(std::string::npos, traces.find("partition ads/p0"));
  EXPECT_NE(std::string::npos,
            Body(HttpGet(server_admin, "/traces")).find("no retained traces"));

  // /slowlog captured the query (threshold 1us) as a rendered profile.
  std::string slowlog = Body(HttpGet(proxy_admin, "/slowlog"));
  EXPECT_NE(std::string::npos, slowlog.find("captured_total=1"));
  EXPECT_NE(std::string::npos, slowlog.find("profile query=ads"));
  // The server role has no slow-query ring.
  EXPECT_NE(std::string::npos,
            HttpGet(server_admin, "/slowlog").find("HTTP/1.0 404"));

  // Unknown paths 404 and list what exists; non-GET methods are 400.
  std::string missing = HttpGet(proxy_admin, "/nope");
  EXPECT_NE(std::string::npos, missing.find("HTTP/1.0 404"));
  EXPECT_NE(std::string::npos, missing.find("/metrics"));

  // Repeated scrapes keep working (one connection per request).
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(std::string::npos,
              HttpGet(proxy_admin, "/healthz").find("HTTP/1.0 200"));
  }
}

TEST(NodeTelemetryTest, MalformedTelemetryBlockDropsButQuerySucceeds) {
  // A server that answers subqueries with a corrupted span batch: the
  // proxy must count the decode error, drop the batch, and still return
  // correct rows with the proxy-side spans intact.
  sim::Simulation sim(7);
  net::SimNetwork network(&sim);
  obs::MetricsRegistry metrics;

  node::ServerCore s0(SimCluster::ServerOptions(0), &metrics);
  node::ServerCore s1(SimCluster::ServerOptions(1), &metrics);
  ASSERT_TRUE(s0.LoadPartitions().ok());
  ASSERT_TRUE(s1.LoadPartitions().ok());
  auto corrupting = [](node::ServerCore* core) {
    return [core](const net::Message& m,
                  const net::CallSideband&) -> Result<net::Message> {
      auto response = core->Handle(m);
      if (response.ok() &&
          response->type == net::FrameType::kSubqueryResponse) {
        // Re-encode with a garbage telemetry block (bad version byte).
        std::string telemetry;
        auto partial =
            cubrick::wire::DecodeSubqueryResponse(response->payload,
                                                  &telemetry);
        if (partial.ok() && !telemetry.empty()) {
          telemetry[0] = static_cast<char>(0xEE);
          response->payload =
              cubrick::wire::EncodeSubqueryResponse(*partial, telemetry);
        }
      }
      return response;
    };
  };
  network.Node("s0")->SetHandler(corrupting(&s0));
  network.Node("s1")->SetHandler(corrupting(&s1));

  node::ProxyCore proxy(SimCluster::ProxyOptions(), network.Node("proxy"),
                        &metrics);
  network.Node("proxy")->SetHandler(
      [&proxy](const net::Message& m, const net::CallSideband&) {
        return proxy.Handle(m);
      });

  cubrick::QueryRequest request(TestQuery());
  request.profile = true;
  auto rows = node::SubmitClientQuery(*network.Node("client"), "proxy",
                                      request);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_FALSE(rows->rows.empty());

  // The proxy's own spans survive; the remote partitions do not.
  const std::string tree =
      proxy.trace_sink().ExportCanonicalTree(proxy.trace_sink().LastTraceId());
  EXPECT_NE(std::string::npos, tree.find("subquery p0"));
  EXPECT_EQ(std::string::npos, tree.find("partition ads/p0"));

  // Every dropped batch was counted, labeled with its failure kind.
  const std::string exported = metrics.ExportPrometheus();
  EXPECT_NE(
      std::string::npos,
      exported.find("scalewall_net_decode_errors_total{kind=\"version\"} 8"));
}

TEST(NodeTelemetryTest, FailedTracedQueryClosesItsTrace) {
  // One server fails every call: the query fails, and its trace still
  // closes — the root span carries the failure's status code and an
  // end, the failed chunk's span records the status, and the
  // slow-query ring sees the query like any other.
  sim::Simulation sim(5);
  net::SimNetwork network(&sim);
  node::ServerCore s0(SimCluster::ServerOptions(0));
  ASSERT_TRUE(s0.LoadPartitions().ok());
  network.Node("s0")->SetHandler(
      [&s0](const net::Message& m, const net::CallSideband&) {
        return s0.Handle(m);
      });
  network.Node("s1")->SetHandler(
      [](const net::Message&,
         const net::CallSideband&) -> Result<net::Message> {
        return Status::Unavailable("s1 is down");
      });
  node::NodeOptions proxy_options = SimCluster::ProxyOptions();
  proxy_options.slow_log.latency_threshold_micros = 1;
  node::ProxyCore proxy(proxy_options, network.Node("proxy"));
  network.Node("proxy")->SetHandler(
      [&proxy](const net::Message& m, const net::CallSideband&) {
        return proxy.Handle(m);
      });

  cubrick::QueryRequest request(TestQuery());
  request.profile = true;
  auto rows = node::SubmitClientQuery(*network.Node("client"), "proxy",
                                      request);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(StatusCode::kUnavailable, rows.status().code());

  obs::TraceSink& sink = proxy.trace_sink();
  const uint64_t trace = sink.LastTraceId();
  ASSERT_NE(0u, trace);
  const std::string tree = sink.ExportCanonicalTree(trace);
  EXPECT_EQ(0u, tree.find("query ads status=UNAVAILABLE")) << tree;
  EXPECT_NE(std::string::npos,
            tree.find("subquery p1 server=s1 status=UNAVAILABLE"))
      << tree;

  const std::vector<obs::QueryProfile> slow = proxy.slow_log().Snapshot();
  ASSERT_EQ(1u, slow.size());
  EXPECT_EQ(trace, slow[0].trace_id);
  EXPECT_EQ("UNAVAILABLE", slow[0].status);
  EXPECT_GT(slow[0].latency_micros, 0);
}

}  // namespace
}  // namespace scalewall
