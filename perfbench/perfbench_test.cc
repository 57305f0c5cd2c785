// Tests of the benchmark's own instruments: the transport decorator must
// be invisible on the wire and count exactly what the transport counts,
// and the percentile helper must only claim tails the sample supports.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "net/epoll_transport.h"
#include "querygen.h"
#include "timing_transport.h"

namespace perfbench {
namespace {

// An echo server that records every request payload and answers with
// the payload reversed, so a response can be told apart from a request.
class ReversingServer {
 public:
  ReversingServer() {
    server_.SetHandler([this](const net::Message& m, const net::CallSideband&)
                           -> Result<net::Message> {
      std::lock_guard<std::mutex> lock(mu_);
      seen_.push_back(m.payload);
      return net::Message{net::FrameType::kSubqueryResponse,
                          std::string(m.payload.rbegin(), m.payload.rend())};
    });
    EXPECT_TRUE(server_.Start());
    EXPECT_TRUE(server_.Listen("127.0.0.1:0").ok());
  }
  ~ReversingServer() { server_.Stop(); }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(server_.listen_port());
  }
  std::vector<std::string> seen() {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  net::EpollTransport server_;
  std::mutex mu_;
  std::vector<std::string> seen_;
};

std::vector<std::string> Payloads() {
  std::vector<std::string> out = {"", "a", "hello scalewall"};
  std::string big(70000, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 31);
  out.push_back(big);
  return out;
}

TEST(TimingTransportTest, ForwardsBytesUnchanged) {
  ReversingServer server;
  net::EpollTransport inner;
  ASSERT_TRUE(inner.Start());
  inner.MapPeer("echo", server.address());
  TimingTransport timing(&inner);

  const std::vector<std::string> payloads = Payloads();
  for (const std::string& p : payloads) {
    auto response = timing.Call(
        "echo", net::Message{net::FrameType::kSubqueryRequest, p});
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->payload, std::string(p.rbegin(), p.rend()));
  }
  // The asynchronous path delivers the same bytes.
  std::mutex mu;
  std::condition_variable cv;
  int remaining = static_cast<int>(payloads.size());
  std::vector<std::string> async(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    timing.CallAsync(
        "echo", net::Message{net::FrameType::kSubqueryRequest, payloads[i]},
        {}, [&, i](Result<net::Message> r) {
          std::lock_guard<std::mutex> lock(mu);
          if (r.ok()) async[i] = r->payload;
          if (--remaining == 0) cv.notify_all();
        });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(async[i],
              std::string(payloads[i].rbegin(), payloads[i].rend()));
  }
  std::vector<std::string> expected = payloads;
  expected.insert(expected.end(), payloads.begin(), payloads.end());
  EXPECT_EQ(server.seen().size(), expected.size());
  for (const std::string& p : payloads) {
    int sent = 0, received = 0;
    for (const std::string& e : expected) sent += e == p;
    for (const std::string& s : server.seen()) received += s == p;
    EXPECT_EQ(received, sent);
  }
  inner.Stop();
}

TEST(TimingTransportTest, CountsEqualTransportStats) {
  ReversingServer server;
  net::EpollTransport inner;
  ASSERT_TRUE(inner.Start());
  inner.MapPeer("echo", server.address());
  TimingTransport timing(&inner);
  std::atomic<int> sinks{0};
  timing.set_observer([&](uint64_t hash) -> TimingTransport::Sink {
    EXPECT_NE(hash, 0u);
    return [&](const CallRecord& r) {
      EXPECT_TRUE(r.ok);
      EXPECT_GE(r.reply_micros, r.send_micros);
      ++sinks;
    };
  });
  int calls = 0;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& p : Payloads()) {
      ASSERT_TRUE(timing
                      .Call("echo", net::Message{
                                        net::FrameType::kSubqueryRequest, p})
                      .ok());
      ++calls;
    }
  }
  const net::TransportStats& stats = inner.stats();
  EXPECT_EQ(timing.frames_out(), stats.frames_out.value());
  EXPECT_EQ(timing.bytes_out(), stats.bytes_out.value());
  EXPECT_EQ(timing.frames_in(), stats.frames_in.value());
  EXPECT_EQ(timing.bytes_in(), stats.bytes_in.value());
  EXPECT_EQ(timing.frames_out(), calls);
  EXPECT_EQ(timing.failed_calls(), 0);
  EXPECT_EQ(sinks.load(), calls);
  inner.Stop();
}

TEST(TimingTransportTest, TimedHandlerReportsOnlyWhenEnabled) {
  std::atomic<bool> enabled{false};
  std::vector<HandleRecord> records;
  net::Handler handler = TimedHandler(
      [](const net::Message& m) -> Result<net::Message> { return m; },
      &enabled, [&](const HandleRecord& r) { records.push_back(r); });
  const net::Message request{net::FrameType::kSubqueryRequest, "payload"};
  ASSERT_TRUE(handler(request, {}).ok());
  EXPECT_TRUE(records.empty());
  enabled = true;
  auto response = handler(request, {});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->payload, "payload");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].request_hash, PayloadHash("payload"));
  EXPECT_GE(records[0].end_micros, records[0].start_micros);
}

TEST(CorrelatorTest, PairsInArrivalOrder) {
  Correlator<int> c;
  c.Post(7, 1);
  c.Post(7, 2);
  c.Post(9, 3);
  EXPECT_EQ(c.Take(7), 1);
  EXPECT_EQ(c.Take(9), 3);
  EXPECT_EQ(c.Take(7), 2);
  EXPECT_FALSE(c.Take(7).has_value());
}

TEST(PercentileTest, HighestSupportedHasTenSamplesBeyondIt) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(199), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(200), 0.95);
  EXPECT_EQ(HighestSupportedPercentile(999), 0.95);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  // At the boundary exactly ten samples lie above the reported rank.
  for (size_t n : {20u, 100u, 200u, 1000u, 10000u}) {
    const double q = HighestSupportedPercentile(n);
    std::vector<double> samples(n);
    for (size_t i = 0; i < n; ++i) samples[i] = static_cast<double>(i);
    const double at = Percentile(samples, q);
    size_t beyond = 0;
    for (double s : samples) beyond += s > at;
    EXPECT_GE(beyond, 10u) << n;
  }
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(101 - i);
  EXPECT_EQ(Percentile(samples, 0.5), 50);
  EXPECT_EQ(Percentile(samples, 0.95), 95);
  EXPECT_EQ(Percentile(samples, 1.0), 100);
  EXPECT_EQ(Percentile(samples, 0.0), 1);
  EXPECT_EQ(Median({}), 0);
}

TEST(QueryGenTest, SameSeedSameInputs) {
  EXPECT_EQ(ScanQueries(5, 8)[3].sql, ScanQueries(5, 8)[3].sql);
  EXPECT_NE(ScanQueries(5, 8)[0].sql + ScanQueries(5, 8)[1].sql,
            ScanQueries(6, 8)[0].sql + ScanQueries(6, 8)[1].sql);
  EXPECT_EQ(Rotation(5, 10, 25), Rotation(5, 10, 25));
  const SimScript a = MakeSimScript(5, 3);
  const SimScript b = MakeSimScript(5, 3);
  EXPECT_EQ(a.adhoc, b.adhoc);
  EXPECT_EQ(a.ops.size(), b.ops.size());
  EXPECT_EQ(a.queries, 3 * 250);
}

}  // namespace
}  // namespace perfbench
