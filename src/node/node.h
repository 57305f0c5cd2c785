// scalewall_node roles: deployable processes speaking scalewall::net.
//
// A local cluster is one ProxyNode plus N ServerNodes, each a real
// process (or an in-process instance in tests) with an EpollTransport:
//
//   client --kClientQuery--> proxy --kSubqueryRequest--> server[p % N]
//
// A server is a cubrick::CubrickServer hosting the partitions the
// deterministic dataset assigns it, answering every frame through
// cubrick::MakeServerNodeHandler — the handlers a sim Deployment's
// servers answer, so the node keeps no copy of the server protocol.
// The proxy runs cubrick::ExecuteDistributed — the coordinator a sim
// Deployment runs — with static placement and the wall clock, over the
// request's plan (DESIGN.md §15): a join strategy against the replicated
// "product_dim" table and a flat or k-ary tree merge topology. Because
// the coordinator, scan, merge and materialization code is shared with
// the sim engine and the wire codecs are lossless, the rows are
// byte-identical to an oracle run and to a sim-transport Deployment over
// the same seed wherever the aggregation states are exact.
//
// The protocol logic lives in transport-agnostic cores (ServerCore,
// ProxyCore) that speak only net::Transport: the deployable nodes wrap
// them around an EpollTransport, and tests run the *same* cores over a
// SimTransport to assert that a real-socket run and a sim run of one
// query produce byte-identical canonical trace trees and profiles.
//
// Telemetry plane: when a client query opts into tracing/profiling, the
// proxy records a root span, sends a trace-context block on every
// subquery and tree-merge hop, and each server returns its spans as a
// wire span batch which the proxy grafts (TraceSink::Graft) under the
// issuing span — one stitched trace tree per query, however many
// processes did the work. From it the proxy derives an obs::QueryProfile,
// feeds the slow-query ring, and (on request.profile) ships the rendered
// profile and tree to the client.

#ifndef SCALEWALL_NODE_NODE_H_
#define SCALEWALL_NODE_NODE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "admit/fair_share_tree.h"
#include "cubrick/catalog.h"
#include "cubrick/coordinator.h"
#include "cubrick/planner.h"
#include "cubrick/request.h"
#include "cubrick/server.h"
#include "cubrick/wire.h"
#include "net/epoll_transport.h"
#include "net/http_admin.h"
#include "net/telemetry.h"
#include "node/dataset.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace scalewall::node {

struct NodeOptions {
  std::string listen = "127.0.0.1:0";  // port 0 picks a free port
  uint32_t server_id = 0;              // ServerNode: which server this is
  uint32_t num_servers = 1;            // cluster size (partition placement)
  DatasetOptions dataset;
  net::EpollTransportOptions transport;
  // Peer name -> address ("s0" -> "ip:port"). The proxy needs every
  // server; servers need their peers too once tree aggregation is in
  // play (an aggregator forwards remote leaves of its subtree as
  // subqueries). Empty on a server = tree-merge requests whose subtree
  // spans other servers fail with kFailedPrecondition.
  std::map<std::string, std::string> peer_addresses;
  // Proxy slow-query ring (obs::SlowQueryLog). Default thresholds are
  // zero = capture nothing automatically; scalewall_node sets a latency
  // threshold via --slow-query-micros.
  obs::SlowQueryLogOptions slow_log;
};

// Transport-agnostic server role: a cubrick::CubrickServer hosting the
// partitions `ServerForPartition` assigns to `server_id` and the
// "product_dim" replica, answering frames through
// cubrick::MakeServerNodeHandler — the very handlers a sim Deployment's
// servers run (kSubqueryRequest, kTreeMergeRequest, kShuffleMapRequest;
// kEpochRequest and kCoordinateRequest need a region and answer
// kFailedPrecondition here). The server is built without a simulation,
// so it runs on the wall clock: the partition spans it ships back for a
// traced request carry measured scan time. `transport` (optional)
// forwards the remote leaves of tree merges to peer servers.
class ServerCore {
 public:
  explicit ServerCore(NodeOptions options,
                      obs::MetricsRegistry* metrics = nullptr,
                      net::Transport* transport = nullptr);

  // Builds the hosted partitions. Must precede Handle.
  Status LoadPartitions();

  Result<net::Message> Handle(const net::Message& request);

  size_t num_partitions_hosted() const {
    return server_.num_partitions_hosted();
  }

 private:
  NodeOptions options_;
  cubrick::Catalog catalog_;  // "ads" at dataset.num_partitions + dim
  cubrick::CubrickServer server_;
  cubrick::RegionContext region_;  // only `transport`: leaf forwarding
  net::TelemetryDecodeCounters decode_errors_;
  net::Handler handler_;
};

// Transport-agnostic proxy role: accepts kClientQuery, builds the
// request's plan by hand (no cost model: kAuto resolves to kReplicated)
// and runs it through cubrick::ExecuteDistributed in a wall-clock
// environment over `transport` (peers "s0".."s<N-1>"), then materializes
// the merged result. `transport` must outlive the core.
class ProxyCore {
 public:
  ProxyCore(NodeOptions options, net::Transport* transport,
            obs::MetricsRegistry* metrics = nullptr);
  ~ProxyCore();

  Result<net::Message> Handle(const net::Message& request);

  // The proxy's root sink: one stitched trace per traced client query.
  obs::TraceSink& trace_sink() { return sink_; }
  const obs::TraceSink& trace_sink() const { return sink_; }
  obs::SlowQueryLog& slow_log() { return slow_log_; }
  // Per-pool accounting of the claims client queries ride in on
  // (ResourceClaim.pool_path). The node proxy runs no admission — the
  // tree only charges running counts and wall latency per pool, for the
  // /pools admin endpoint.
  const admit::FairShareTree& pool_tree() const { return pool_tree_; }

 private:
  class WallEnv;

  cubrick::Catalog catalog_;  // "ads" at dataset.num_partitions + dim
  cubrick::RegionContext region_;  // `catalog` and `transport` only
  obs::TraceSink sink_;
  obs::SlowQueryLog slow_log_;
  admit::FairShareTree pool_tree_;
  net::TelemetryDecodeCounters decode_errors_;
  std::unique_ptr<WallEnv> env_;  // shared by concurrent Handle calls
  obs::Counter queries_;
  obs::HistogramMetric query_latency_ms_;
};

// Deployable server process: ServerCore behind an EpollTransport.
class ServerNode {
 public:
  explicit ServerNode(NodeOptions options,
                      obs::MetricsRegistry* metrics = nullptr);
  ~ServerNode();

  Status Start();
  void Stop();

  // Serves /metrics, /healthz and /traces on `address`, multiplexed on
  // the transport's event loop. Call after Start.
  Status StartAdmin(const std::string& address);
  int admin_port() const;

  int port() const { return transport_.listen_port(); }
  net::EpollTransport& transport() { return transport_; }
  size_t num_partitions_hosted() const {
    return core_.num_partitions_hosted();
  }

 private:
  obs::MetricsRegistry* metrics_;
  std::string listen_;
  std::map<std::string, std::string> peer_addresses_;
  ServerCore core_;
  net::EpollTransport transport_;
  std::unique_ptr<net::HttpAdminServer> admin_;
};

// Deployable proxy process: ProxyCore behind an EpollTransport.
// Handlers run on worker threads so the blocking fan-out calls never
// stall the proxy's own event loop.
class ProxyNode {
 public:
  ProxyNode(NodeOptions options,
            std::map<std::string, std::string> peer_addresses,
            obs::MetricsRegistry* metrics = nullptr);
  ~ProxyNode();

  Status Start();
  void Stop();

  // Serves /metrics, /healthz, /traces, /slowlog and /pools on
  // `address`.
  Status StartAdmin(const std::string& address);
  int admin_port() const;

  int port() const { return transport_.listen_port(); }
  net::EpollTransport& transport() { return transport_; }
  ProxyCore& core() { return core_; }

 private:
  obs::MetricsRegistry* metrics_;
  std::string listen_;
  std::map<std::string, std::string> peer_addresses_;
  net::EpollTransport transport_;
  ProxyCore core_;
  std::unique_ptr<net::HttpAdminServer> admin_;
};

// Client side: submits `request` to the proxy at peer `proxy` (a mapped
// name or "ip:port") and returns the materialized rows envelope.
Result<cubrick::wire::ClientRowsEnvelope> SubmitClientQuery(
    net::Transport& transport, const std::string& proxy,
    const cubrick::QueryRequest& request);

}  // namespace scalewall::node

#endif  // SCALEWALL_NODE_NODE_H_
