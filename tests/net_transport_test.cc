// Transport backend tests: the sim backend's inline delivery and stats,
// and the epoll backend over real loopback sockets — echo round-trips,
// error propagation with stable status codes, per-call timeouts,
// bounded in-flight windows with visible backpressure, and teardown.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/epoll_transport.h"
#include "net/http_admin.h"
#include "net/sim_transport.h"
#include "obs/metrics_registry.h"
#include "sim/simulation.h"

namespace scalewall::net {
namespace {

Handler EchoHandler() {
  return [](const Message& request, const CallSideband&) -> Result<Message> {
    return Message{FrameType::kPong, "echo:" + request.payload};
  };
}

// --- sim backend ---

TEST(SimTransportTest, InlineEchoAndStats) {
  sim::Simulation simulation(1);
  obs::MetricsRegistry metrics;
  SimNetwork network(&simulation, &metrics);
  network.Node("server")->SetHandler(EchoHandler());
  SimTransport* client = network.Node("client");

  auto response = client->Call("server", Message{FrameType::kPing, "hello"});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ("echo:hello", response->payload);
  EXPECT_EQ("sim", client->backend());
  // Request + response, counted on both directions of the shared block.
  EXPECT_EQ(2, client->stats().frames_out.value());
  EXPECT_EQ(2, client->stats().frames_in.value());
  EXPECT_GT(client->stats().bytes_out.value(), 0);
}

TEST(SimTransportTest, MissingPeerAndHandlerErrors) {
  sim::Simulation simulation(1);
  SimNetwork network(&simulation);
  SimTransport* client = network.Node("client");

  auto missing = client->Call("ghost", Message{FrameType::kPing, ""});
  EXPECT_EQ(StatusCode::kUnavailable, missing.status().code());

  network.Node("flaky")->SetHandler(
      [](const Message&, const CallSideband&) -> Result<Message> {
        return Status::NotFound("no such table");
      });
  auto failed = client->Call("flaky", Message{FrameType::kPing, ""});
  EXPECT_EQ(StatusCode::kNotFound, failed.status().code());
  EXPECT_EQ(1, client->stats().handler_errors.value());

  // A removed node becomes unavailable (decommission path).
  network.Node("gone")->SetHandler(EchoHandler());
  network.RemoveNode("gone");
  auto removed = client->Call("gone", Message{FrameType::kPing, ""});
  EXPECT_EQ(StatusCode::kUnavailable, removed.status().code());
}

TEST(SimTransportTest, RecordModeledRttFeedsHistogram) {
  sim::Simulation simulation(1);
  SimNetwork network(&simulation);
  SimTransport* client = network.Node("client");
  client->RecordModeledRtt(12.5);
  EXPECT_EQ(1u, network.stats().rtt_ms.count());
}

// --- epoll backend ---

struct LoopbackPair {
  EpollTransport server;
  EpollTransport client;

  explicit LoopbackPair(EpollTransportOptions server_options = {},
                        EpollTransportOptions client_options = {})
      : server(nullptr, server_options), client(nullptr, client_options) {}

  void Start(Handler handler) {
    server.SetHandler(std::move(handler));
    ASSERT_TRUE(server.Start());
    ASSERT_TRUE(server.Listen("127.0.0.1:0").ok());
    ASSERT_TRUE(client.Start());
    client.MapPeer("server",
                   "127.0.0.1:" + std::to_string(server.listen_port()));
  }
};

TEST(EpollTransportTest, LoopbackEcho) {
  LoopbackPair pair;
  pair.Start(EchoHandler());

  for (int i = 0; i < 10; ++i) {
    auto response = pair.client.Call(
        "server", Message{FrameType::kSubqueryRequest, "m" + std::to_string(i)});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(FrameType::kPong, response->type);
    EXPECT_EQ("echo:m" + std::to_string(i), response->payload);
  }
  EXPECT_EQ("epoll", pair.client.backend());
  EXPECT_EQ(1, pair.client.stats().connects.value());
  EXPECT_EQ(1, pair.server.stats().accepts.value());
  EXPECT_EQ(10, pair.client.stats().frames_out.value());
  EXPECT_EQ(10u, pair.client.stats().rtt_ms.count());

  pair.client.Stop();
  pair.server.Stop();
}

TEST(EpollTransportTest, PingFrameAnsweredByTransportItself) {
  // kPing is answered by the transport layer, no handler installed.
  EpollTransport server;
  ASSERT_TRUE(server.Start());
  ASSERT_TRUE(server.Listen("127.0.0.1:0").ok());
  EpollTransport client;
  ASSERT_TRUE(client.Start());
  auto response =
      client.Call("127.0.0.1:" + std::to_string(server.listen_port()),
                  Message{FrameType::kPing, ""});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(FrameType::kPong, response->type);
  client.Stop();
  server.Stop();
}

TEST(EpollTransportTest, StatusCodesSurviveTheWire) {
  LoopbackPair pair;
  pair.Start([](const Message& request,
                const CallSideband&) -> Result<Message> {
    if (request.type != FrameType::kSubqueryRequest) {
      return Status::Unimplemented("unsupported frame");
    }
    return Status::ResourceExhausted("scan queue full");
  });

  auto unimplemented =
      pair.client.Call("server", Message{FrameType::kClientQuery, ""});
  EXPECT_EQ(StatusCode::kUnimplemented, unimplemented.status().code());
  auto exhausted =
      pair.client.Call("server", Message{FrameType::kSubqueryRequest, ""});
  EXPECT_EQ(StatusCode::kResourceExhausted, exhausted.status().code());
  EXPECT_EQ("scan queue full", exhausted.status().message());
  EXPECT_EQ(2, pair.server.stats().handler_errors.value());

  pair.client.Stop();
  pair.server.Stop();
}

TEST(EpollTransportTest, SlowHandlerHitsCallTimeout) {
  EpollTransportOptions server_options;
  server_options.handler_threads = 1;  // sleep off the loop thread
  LoopbackPair pair(server_options);
  pair.Start([](const Message&, const CallSideband&) -> Result<Message> {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return Message{FrameType::kPong, "late"};
  });

  CallOptions options;
  options.timeout = 30'000;  // 30ms, well under the handler's 300ms
  auto response = pair.client.Call(
      "server", Message{FrameType::kSubqueryRequest, ""}, options);
  EXPECT_EQ(StatusCode::kDeadlineExceeded, response.status().code());
  EXPECT_EQ(1, pair.client.stats().timeouts.value());

  pair.client.Stop();
  pair.server.Stop();
}

TEST(EpollTransportTest, ConnectionRefusedFailsCall) {
  EpollTransport client;
  ASSERT_TRUE(client.Start());
  CallOptions options;
  options.timeout = 500'000;
  // Port 1 on loopback: refused immediately.
  auto response =
      client.Call("127.0.0.1:1", Message{FrameType::kPing, ""}, options);
  EXPECT_FALSE(response.ok());
  client.Stop();
}

TEST(EpollTransportTest, BackpressureRejectsBeyondWindowAndQueue) {
  EpollTransportOptions server_options;
  server_options.handler_threads = 1;
  EpollTransportOptions client_options;
  client_options.max_inflight_per_peer = 1;
  client_options.max_queued_per_peer = 2;
  LoopbackPair pair(server_options, client_options);
  pair.Start([](const Message&, const CallSideband&) -> Result<Message> {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Message{FrameType::kPong, ""};
  });

  constexpr int kCalls = 8;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::vector<Status> statuses(kCalls, Status::Ok());
  for (int i = 0; i < kCalls; ++i) {
    pair.client.CallAsync("server", Message{FrameType::kSubqueryRequest, ""},
                          {}, [&, i](Result<Message> response) {
                            std::lock_guard<std::mutex> lock(mu);
                            statuses[i] = response.status();
                            if (++done == kCalls) cv.notify_all();
                          });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return done == kCalls; }));
  }
  int ok = 0, rejected = 0;
  for (const Status& status : statuses) {
    if (status.ok()) ++ok;
    if (status.code() == StatusCode::kResourceExhausted) ++rejected;
  }
  // Window (1) + queue (2) admit 3; the burst's remainder is shed with
  // kResourceExhausted — backpressure is visible, not an unbounded queue.
  EXPECT_EQ(3, ok);
  EXPECT_EQ(kCalls - 3, rejected);
  EXPECT_EQ(kCalls - 3, pair.client.stats().rejected.value());

  pair.client.Stop();
  pair.server.Stop();
}

TEST(EpollTransportTest, ConcurrentCallersMultiplexOneConnection) {
  EpollTransportOptions server_options;
  server_options.handler_threads = 4;
  LoopbackPair pair(server_options);
  pair.Start(EchoHandler());

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        std::string body = std::to_string(t) + ":" + std::to_string(i);
        auto response = pair.client.Call(
            "server", Message{FrameType::kSubqueryRequest, body});
        if (!response.ok() || response->payload != "echo:" + body) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(1, pair.client.stats().connects.value());

  pair.client.Stop();
  pair.server.Stop();
}

TEST(EpollTransportTest, StopFailsPendingCalls) {
  EpollTransportOptions server_options;
  server_options.handler_threads = 1;
  LoopbackPair pair(server_options);
  pair.Start([](const Message&, const CallSideband&) -> Result<Message> {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    return Message{FrameType::kPong, ""};
  });

  std::mutex mu;
  std::condition_variable cv;
  bool completed = false;
  Status status = Status::Ok();
  pair.client.CallAsync("server", Message{FrameType::kSubqueryRequest, ""}, {},
                        [&](Result<Message> response) {
                          std::lock_guard<std::mutex> lock(mu);
                          status = response.status();
                          completed = true;
                          cv.notify_all();
                        });
  // Give the call a moment to go out, then tear the client down.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pair.client.Stop();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return completed; }));
  }
  EXPECT_EQ(StatusCode::kUnavailable, status.code());
  pair.server.Stop();
}

// --- peer resets (SIGPIPE) ---
//
// A peer that half-closes (FIN) and then resets (RST) leaves the
// server's socket in CLOSE_WAIT with a pending EPIPE: the next write to
// it raises SIGPIPE unless the write passes MSG_NOSIGNAL. Each test
// below parks the server's handler (on its event-loop thread) until
// the reset has landed, then lets it write its response. The process
// must survive and keep serving.

int RawConnect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Closes `fd` with SO_LINGER 0: the kernel sends RST instead of FIN.
void ResetConnection(int fd) {
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  close(fd);
}

// Sends `request`, waits for the server to start handling it,
// half-closes, resets, and lets both land before `release`.
void ResetWhileHandling(int port, const std::string& request,
                        std::future<void> entered,
                        std::promise<void>* release) {
  const int fd = RawConnect(port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, request));
  ASSERT_EQ(std::future_status::ready,
            entered.wait_for(std::chrono::seconds(10)));
  shutdown(fd, SHUT_WR);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ResetConnection(fd);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release->set_value();
}

TEST(EpollTransportTest, PeerResetBeforeResponseDoesNotKillProcess) {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> calls{0};
  LoopbackPair pair;
  pair.Start([&](const Message& request,
                 const CallSideband&) -> Result<Message> {
    if (calls.fetch_add(1) == 0) {
      entered.set_value();
      released.wait();
    }
    return Message{FrameType::kPong, std::string(1 << 16, 'x') +
                                         request.payload};
  });

  ResetWhileHandling(
      pair.server.listen_port(),
      EncodeFrame(FrameType::kSubqueryRequest, /*correlation=*/1, "raw"),
      entered.get_future(), &release);

  // Still alive, still serving.
  auto response =
      pair.client.Call("server", Message{FrameType::kSubqueryRequest, "ok"});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(2, calls.load());
  pair.client.Stop();
  pair.server.Stop();
}

TEST(HttpAdminTest, ClientResetBeforeResponseDoesNotKillProcess) {
  EventLoop loop;
  ASSERT_TRUE(loop.Start());
  HttpAdminServer admin(&loop);
  std::promise<void> entered;
  std::promise<void> release;
  std::future<void> released = release.get_future();
  admin.AddRoute("/slow", [&] {
    entered.set_value();
    released.wait();
    HttpResponse response;
    response.body = std::string(1 << 16, 'x');
    return response;
  });
  admin.AddRoute("/healthz", [] {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  ASSERT_TRUE(admin.Listen("127.0.0.1:0").ok());

  ResetWhileHandling(admin.port(), "GET /slow HTTP/1.0\r\n\r\n",
                     entered.get_future(), &release);

  // Still alive, still serving.
  const int fd = RawConnect(admin.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /healthz HTTP/1.0\r\n\r\n"));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  EXPECT_NE(std::string::npos, response.find("HTTP/1.0 200"));
  admin.Stop();
  loop.Stop();
}

}  // namespace
}  // namespace scalewall::net
