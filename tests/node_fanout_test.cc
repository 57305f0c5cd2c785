// Chunk fan-out over loopback sockets: what cubrick::FanOutChunks
// promises beyond the ascending fold that node_plan_matrix_test checks.
//
// 1. A tree aggregator has its remote leaves in flight at once (after
//    its own first leaf): a peer that holds each request until a second
//    one arrives sees two.
// 2. An early failure ends the query while other replies are still on
//    the way, for flat and tree plans: the proxy returns the failure,
//    the late replies land on state their completions own (this suite
//    runs under ASan and TSan), and the next query is answered.
//
// Servers here are ServerCores on their own EpollTransports behind a
// gate, the handler wrapper through which each test delays, fails or
// counts requests without touching the core.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cubrick/sql.h"
#include "cubrick/wire.h"
#include "net/epoll_transport.h"
#include "node/dataset.h"
#include "node/node.h"

namespace scalewall {
namespace {

using namespace std::chrono_literals;

node::DatasetOptions Dataset(uint32_t num_partitions) {
  node::DatasetOptions dataset;
  dataset.seed = 7;
  dataset.num_partitions = num_partitions;
  dataset.num_rows = 3000;
  return dataset;
}

node::NodeOptions Options(uint32_t server_id, uint32_t num_servers,
                          uint32_t num_partitions) {
  node::NodeOptions options;
  options.server_id = server_id;
  options.num_servers = num_servers;
  options.dataset = Dataset(num_partitions);
  return options;
}

cubrick::Query Parse(const std::string& sql) {
  auto query =
      cubrick::ParseQuery(sql, node::DatasetSchema(), &node::DatasetCatalog());
  EXPECT_TRUE(query.ok()) << sql << ": " << query.status().ToString();
  return query.ok() ? *query : cubrick::Query{};
}

// Integral sums, counts and min/max: exact under any fold association.
const char kSql[] =
    "SELECT day, SUM(clicks), COUNT(clicks), MAX(spend) FROM ads "
    "GROUP BY day";

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectMatchesOracle(const node::DatasetOptions& dataset,
                         const cubrick::Query& query,
                         const std::vector<cubrick::ResultRow>& got) {
  auto want = node::ExecuteLocal(dataset, query);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->size(), got.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ((*want)[i].key, got[i].key) << "row " << i;
    ASSERT_EQ((*want)[i].values.size(), got[i].values.size()) << "row " << i;
    for (size_t v = 0; v < got[i].values.size(); ++v) {
      EXPECT_EQ(Bits((*want)[i].values[v]), Bits(got[i].values[v]))
          << "row " << i << " value " << v;
    }
  }
}

// Runs a request through the core, or instead of it.
using Gate = std::function<Result<net::Message>(const net::Message& request,
                                                node::ServerCore& core)>;

Result<net::Message> Pass(const net::Message& request,
                          node::ServerCore& core) {
  return core.Handle(request);
}

// A ServerCore on its own loopback EpollTransport, answering through
// `gate`. Four handler threads, as a ServerNode has.
class GatedServer {
 public:
  GatedServer(node::NodeOptions options, Gate gate)
      : core_(std::move(options), nullptr, &transport_),
        transport_(nullptr, [] {
          net::EpollTransportOptions t;
          t.handler_threads = 4;
          return t;
        }()) {
    EXPECT_TRUE(core_.LoadPartitions().ok());
    transport_.SetHandler(
        [this, gate = std::move(gate)](const net::Message& request,
                                       const net::CallSideband&) {
          return gate(request, core_);
        });
    EXPECT_TRUE(transport_.Start());
    EXPECT_TRUE(transport_.Listen("127.0.0.1:0").ok());
  }
  ~GatedServer() { transport_.Stop(); }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(transport_.listen_port());
  }
  net::EpollTransport& transport() { return transport_; }

 private:
  node::ServerCore core_;
  net::EpollTransport transport_;
};

// Counts a gate's concurrently running requests. Each request waits
// until a second one has arrived, or about a second, before it runs:
// requests sent one at a time see a peak of 1, overlapping ones 2.
struct OverlapProbe {
  std::mutex mu;
  std::condition_variable arrived_cv;
  int arrived = 0;
  int running = 0;
  int peak = 0;

  Result<net::Message> Run(const net::Message& request,
                           node::ServerCore& core) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      ++running;
      peak = std::max(peak, running);
      arrived_cv.notify_all();
      arrived_cv.wait_for(lock, 1s, [this] { return arrived >= 2; });
    }
    Result<net::Message> response = core.Handle(request);
    std::lock_guard<std::mutex> lock(mu);
    --running;
    return response;
  }
};

TEST(NodeFanOutTest, AggregatorForwardsRemoteLeavesConcurrently) {
  // Two servers, four partitions, p -> server p % 2. One fan-in 4 tree
  // merge over all four leaves at s0: leaves 0 and 2 run locally,
  // leaves 1 and 3 are forwarded to the probed peer s1.
  constexpr uint32_t kPartitions = 4;
  OverlapProbe probe;
  GatedServer peer(Options(1, 2, kPartitions),
                   [&probe](const net::Message& request,
                            node::ServerCore& core) {
                     return probe.Run(request, core);
                   });
  GatedServer aggregator(Options(0, 2, kPartitions), Pass);
  aggregator.transport().MapPeer("s1", peer.address());
  net::EpollTransport client;
  ASSERT_TRUE(client.Start());
  client.MapPeer("s0", aggregator.address());

  cubrick::wire::TreeMergeEnvelope envelope;
  envelope.query = Parse(kSql);
  for (uint32_t p = 0; p < kPartitions; ++p) {
    envelope.partitions.push_back(p);
    envelope.servers.push_back(node::ServerForPartition(p, 2));
  }
  ASSERT_EQ((std::vector<uint32_t>{0, 1, 0, 1}), envelope.servers);
  envelope.fanin = 4;
  auto response = client.Call(
      "s0", net::Message{net::FrameType::kTreeMergeRequest,
                         cubrick::wire::EncodeTreeMergeRequest(envelope)});
  client.Stop();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(net::FrameType::kTreeMergeResponse, response->type);
  auto merged = cubrick::wire::DecodeTreeMergeResponse(response->payload);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectMatchesOracle(Dataset(kPartitions), envelope.query,
                      cubrick::MaterializeRows(merged->result, envelope.query));

  std::lock_guard<std::mutex> lock(probe.mu);
  EXPECT_EQ(2, probe.arrived);
  EXPECT_GE(probe.peak, 2) << "the aggregator forwarded its remote leaves "
                              "one at a time";
}

// Three servers over twelve partitions (p -> server p % 3): s0 answers,
// s1 fails every request after 50 ms while `fail_` is set, and s2
// answers every request 500 ms late.
class FailFastCluster {
 public:
  static constexpr uint32_t kServers = 3;
  static constexpr uint32_t kPartitions = 12;

  FailFastCluster() {
    std::map<std::string, std::string> peers;
    for (uint32_t s = 0; s < kServers; ++s) {
      Gate gate = Pass;
      if (s == 1) {
        gate = [this](const net::Message& request, node::ServerCore& core) {
          if (fail_.load()) {
            // Late enough that every chunk has been sent, long before
            // s2 answers.
            std::this_thread::sleep_for(50ms);
            return Result<net::Message>(
                Status::Unavailable("injected fast failure"));
          }
          return core.Handle(request);
        };
      } else if (s == 2) {
        gate = [this](const net::Message& request, node::ServerCore& core) {
          ++late_running_;
          std::this_thread::sleep_for(500ms);
          Result<net::Message> response = core.Handle(request);
          --late_running_;
          return response;
        };
      }
      servers_.push_back(std::make_unique<GatedServer>(
          Options(s, kServers, kPartitions), std::move(gate)));
      peers["s" + std::to_string(s)] = servers_.back()->address();
    }
    for (auto& server : servers_) {
      for (const auto& [name, address] : peers) {
        server->transport().MapPeer(name, address);
      }
    }
    proxy_ = std::make_unique<node::ProxyNode>(
        Options(0, kServers, kPartitions), peers);
    EXPECT_TRUE(proxy_->Start().ok());
    EXPECT_TRUE(client_.Start());
    client_.MapPeer("proxy", "127.0.0.1:" + std::to_string(proxy_->port()));
  }

  ~FailFastCluster() {
    client_.Stop();
    proxy_->Stop();
    servers_.clear();
  }

  Result<cubrick::wire::ClientRowsEnvelope> Query(int merge_fanin) {
    cubrick::QueryRequest request(Parse(kSql));
    request.merge_fanin = merge_fanin;
    return node::SubmitClientQuery(client_, "proxy", request);
  }

  // Fails once at s1, lets every late reply land, then asks again with
  // s1 healthy.
  void FailThenRecover(int merge_fanin) {
    auto failed = Query(merge_fanin);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(StatusCode::kUnavailable, failed.status().code())
        << failed.status().ToString();
    // s2 was still holding replies when the failure came back.
    EXPECT_GT(late_running_.load(), 0);
    for (int i = 0; i < 200 && late_running_.load() > 0; ++i) {
      std::this_thread::sleep_for(10ms);
    }
    ASSERT_EQ(0, late_running_.load());
    std::this_thread::sleep_for(50ms);  // the replies' last hop

    fail_.store(false);
    auto answered = Query(merge_fanin);
    ASSERT_TRUE(answered.ok()) << answered.status().ToString();
    ExpectMatchesOracle(Dataset(kPartitions), Parse(kSql), answered->rows);
  }

 private:
  std::atomic<bool> fail_{true};
  std::atomic<int> late_running_{0};
  std::vector<std::unique_ptr<GatedServer>> servers_;
  std::unique_ptr<node::ProxyNode> proxy_;
  net::EpollTransport client_;
};

TEST(NodeFanOutTest, FlatPlanReturnsEarlyFailureWhileRepliesAreLate) {
  // Chunk 0 (s0) folds, chunk 1 (s1) fails; s2's chunks are in flight.
  FailFastCluster cluster;
  cluster.FailThenRecover(/*merge_fanin=*/1);
}

TEST(NodeFanOutTest, TreePlanReturnsEarlyFailureWhileRepliesAreLate) {
  // Fan-in 4: four 3-leaf chunks, each aggregated at s0, which forwards
  // one leaf to s1 (fails) and one to s2 (late) — the aggregators fail
  // while s2's leaves are in flight, and so does the proxy.
  FailFastCluster cluster;
  cluster.FailThenRecover(/*merge_fanin=*/4);
}

}  // namespace
}  // namespace scalewall
