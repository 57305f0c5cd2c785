// Hostile frames against the node cores: every net::FrameType, carrying
// random bytes, every truncation of a well-formed payload, and
// bit-flipped copies of it, sent straight to ServerCore::Handle and
// ProxyCore::Handle. Every call must come back as a Result — a response
// or a Status — without crashing and within a bounded time. Seeded, so
// a failure reproduces exactly.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "cubrick/sql.h"
#include "cubrick/wire.h"
#include "net/sim_transport.h"
#include "net/telemetry.h"
#include "node/dataset.h"
#include "node/node.h"
#include "sim/simulation.h"

namespace scalewall {
namespace {

namespace cwire = cubrick::wire;

constexpr uint32_t kServers = 2;

node::NodeOptions Options(uint32_t server_id) {
  node::NodeOptions options;
  options.server_id = server_id;
  options.num_servers = kServers;
  options.dataset.num_partitions = 4;
  options.dataset.num_rows = 1000;
  return options;
}

const net::FrameType kAllFrameTypes[] = {
    net::FrameType::kPing,
    net::FrameType::kPong,
    net::FrameType::kSubqueryRequest,
    net::FrameType::kSubqueryResponse,
    net::FrameType::kCoordinateRequest,
    net::FrameType::kCoordinateResponse,
    net::FrameType::kEpochRequest,
    net::FrameType::kEpochResponse,
    net::FrameType::kClientQuery,
    net::FrameType::kClientRows,
    net::FrameType::kTreeMergeRequest,
    net::FrameType::kTreeMergeResponse,
    net::FrameType::kShuffleMapRequest,
    net::FrameType::kShuffleMapResponse,
    net::FrameType::kError,
    static_cast<net::FrameType>(99),  // no such frame type
};

cubrick::Query JoinQuery() {
  auto query = cubrick::ParseQuery(
      "SELECT product_dim.category, region, SUM(clicks), MAX(spend) "
      "FROM ads JOIN product_dim ON product WHERE day < 20 "
      "GROUP BY product_dim.category, region",
      node::DatasetSchema(), &node::DatasetCatalog());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return *query;
}

std::string TraceContext() {
  net::TraceContextBlock tctx;
  tctx.want_spans = true;
  tctx.trace_id = 7;
  tctx.span_id = 3;
  tctx.origin = "proxy";
  return net::EncodeTraceContext(tctx);
}

// A well-formed payload for `type`: the seed every mutation starts from.
std::string ValidPayload(net::FrameType type) {
  const cubrick::Query query = JoinQuery();
  switch (type) {
    case net::FrameType::kSubqueryRequest: {
      cwire::SubqueryEnvelope envelope;
      envelope.query = query;
      envelope.partition = 0;
      envelope.dims = {node::BuildDimTable()};
      envelope.telemetry = TraceContext();
      return cwire::EncodeSubqueryRequest(envelope);
    }
    case net::FrameType::kTreeMergeRequest: {
      cwire::TreeMergeEnvelope envelope;
      envelope.query = query;
      envelope.partitions = {0, 1, 2, 3};
      envelope.servers = {0, 1, 0, 1};
      envelope.fanin = 2;
      envelope.telemetry = TraceContext();
      return cwire::EncodeTreeMergeRequest(envelope);
    }
    case net::FrameType::kShuffleMapRequest: {
      cwire::ShuffleMapEnvelope envelope;
      envelope.query = query;
      const cubrick::Query scan = cubrick::MakeShuffleScanQuery(query);
      envelope.bucket = cubrick::QueryResult(scan.aggregations.size());
      for (uint32_t k = 0; k < 16; ++k) {
        envelope.bucket.Accumulate({k % 8, k}, 0, 1.0 + k);
        envelope.bucket.Accumulate({k % 8, k}, 1, 2.5 * k);
      }
      return cwire::EncodeShuffleMapRequest(envelope);
    }
    case net::FrameType::kCoordinateRequest: {
      cwire::CoordinateEnvelope envelope;
      envelope.query = query;
      envelope.merge_fanin = 2;
      return cwire::EncodeCoordinateRequest(envelope);
    }
    case net::FrameType::kEpochRequest: {
      cwire::EpochProbe probe;
      probe.table = node::DatasetTable();
      probe.dims = {node::DatasetDimTable()};
      return cwire::EncodeEpochRequest(probe);
    }
    case net::FrameType::kClientQuery: {
      cubrick::QueryRequest request(query);
      request.join_strategy = cubrick::JoinStrategy::kShuffle;
      request.merge_fanin = 2;
      request.profile = true;
      return cwire::EncodeClientQuery(request);
    }
    case net::FrameType::kSubqueryResponse: {
      cubrick::PartialResult partial;
      partial.result = cubrick::QueryResult(2);
      partial.result.Accumulate({1, 2}, 0, 3.0);
      return cwire::EncodeSubqueryResponse(partial, "");
    }
    default:
      return std::string(24, '\x5a');
  }
}

// The payloads one frame type is sent with: the valid seed, every
// truncation of it, bit-flipped copies and pure random bytes.
std::vector<std::string> Payloads(net::FrameType type, Rng& rng) {
  const std::string valid = ValidPayload(type);
  std::vector<std::string> out = {valid};
  for (size_t len = 0; len < valid.size(); ++len) {
    out.push_back(valid.substr(0, len));
  }
  for (int i = 0; i < 64; ++i) {
    std::string flipped = valid;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips && !flipped.empty(); ++f) {
      flipped[rng.NextBounded(flipped.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
    }
    out.push_back(std::move(flipped));
  }
  for (int i = 0; i < 64; ++i) {
    std::string random(rng.NextBounded(256), '\0');
    for (char& c : random) c = static_cast<char>(rng.NextBounded(256));
    out.push_back(std::move(random));
  }
  return out;
}

struct Cluster {
  sim::Simulation sim{3};
  net::SimNetwork network{&sim};
  std::vector<std::unique_ptr<node::ServerCore>> servers;
  std::unique_ptr<node::ProxyCore> proxy;

  Cluster() {
    for (uint32_t s = 0; s < kServers; ++s) {
      const std::string name = "s" + std::to_string(s);
      servers.push_back(std::make_unique<node::ServerCore>(
          Options(s), nullptr, network.Node(name)));
      EXPECT_TRUE(servers.back()->LoadPartitions().ok());
      node::ServerCore* core = servers.back().get();
      network.Node(name)->SetHandler(
          [core](const net::Message& m, const net::CallSideband&) {
            return core->Handle(m);
          });
    }
    proxy = std::make_unique<node::ProxyCore>(Options(0),
                                              network.Node("proxy"));
  }
};

template <typename Handle>
void Hammer(const char* role, net::FrameType type,
            const std::vector<std::string>& payloads, Handle handle) {
  for (size_t i = 0; i < payloads.size(); ++i) {
    const auto start = std::chrono::steady_clock::now();
    Result<net::Message> response = handle(net::Message{type, payloads[i]});
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(5))
        << role << " " << net::FrameTypeName(type) << " payload " << i;
    if (!response.ok()) {
      EXPECT_NE(StatusCode::kOk, response.status().code());
    }
  }
}

TEST(NodeHostileFramesTest, EveryFrameTypeAnswersWithAResultOrStatus) {
  Cluster cluster;
  Rng rng(20261018);
  for (net::FrameType type : kAllFrameTypes) {
    const std::vector<std::string> payloads = Payloads(type, rng);
    Hammer("server", type, payloads, [&](const net::Message& m) {
      return cluster.servers[0]->Handle(m);
    });
    Hammer("proxy", type, payloads, [&](const net::Message& m) {
      return cluster.proxy->Handle(m);
    });
  }
}

TEST(NodeHostileFramesTest, RegionFramesAnswerStatusOnANode) {
  // A node server has no region: epoch probes and coordinate calls get
  // a Status, never a dereference of the missing catalog or discovery.
  Cluster cluster;
  for (net::FrameType type :
       {net::FrameType::kEpochRequest, net::FrameType::kCoordinateRequest}) {
    auto response =
        cluster.servers[0]->Handle(net::Message{type, ValidPayload(type)});
    ASSERT_FALSE(response.ok()) << net::FrameTypeName(type);
    EXPECT_EQ(StatusCode::kFailedPrecondition, response.status().code());
  }
  // The well-formed data-plane seeds do run.
  for (net::FrameType type :
       {net::FrameType::kSubqueryRequest, net::FrameType::kTreeMergeRequest,
        net::FrameType::kShuffleMapRequest}) {
    auto response =
        cluster.servers[0]->Handle(net::Message{type, ValidPayload(type)});
    EXPECT_TRUE(response.ok())
        << net::FrameTypeName(type) << ": " << response.status().ToString();
  }
  auto rows = cluster.proxy->Handle(net::Message{
      net::FrameType::kClientQuery,
      ValidPayload(net::FrameType::kClientQuery)});
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
}

TEST(NodeHostileFramesTest, EmptyTreeMergeAnswersWithoutForwarding) {
  // Zero assignments decode (the two lists agree and fanin >= 2); the
  // aggregator must answer an empty merge, not divide by a zero chunk.
  Cluster cluster;
  cwire::TreeMergeEnvelope envelope;
  envelope.query = JoinQuery();
  envelope.fanin = 2;
  envelope.telemetry = TraceContext();
  auto response = cluster.servers[0]->Handle(
      net::Message{net::FrameType::kTreeMergeRequest,
                   cwire::EncodeTreeMergeRequest(envelope)});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(net::FrameType::kTreeMergeResponse, response->type);
  auto merged = cwire::DecodeTreeMergeResponse(response->payload, nullptr);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->epochs.empty());
  EXPECT_TRUE(merged->forward_hops.empty());
  EXPECT_EQ(0u, merged->result.num_groups());
}

TEST(NodeHostileFramesTest, UnknownTableFailsAtTheProxyBeforeFanOut) {
  // A well-formed client query naming a table the cluster does not
  // have: the proxy's catalog rejects it, and no server sees a call.
  Cluster cluster;
  int server_calls = 0;
  for (uint32_t s = 0; s < kServers; ++s) {
    node::ServerCore* core = cluster.servers[s].get();
    cluster.network.Node("s" + std::to_string(s))
        ->SetHandler([core, &server_calls](const net::Message& m,
                                           const net::CallSideband&) {
          ++server_calls;
          return core->Handle(m);
        });
  }
  cubrick::QueryRequest request(JoinQuery());
  request.query.table = "nope";
  auto rows = cluster.proxy->Handle(net::Message{
      net::FrameType::kClientQuery, cwire::EncodeClientQuery(request)});
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(StatusCode::kNotFound, rows.status().code())
      << rows.status().ToString();
  EXPECT_EQ(0, server_calls);

  // The same cluster still serves the table it has.
  request.query.table = node::DatasetTable();
  rows = cluster.proxy->Handle(net::Message{
      net::FrameType::kClientQuery, cwire::EncodeClientQuery(request)});
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT(server_calls, 0);
}

}  // namespace
}  // namespace scalewall
