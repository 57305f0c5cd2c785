// socket_scan and socket_fanout: node::ProxyNode + node::ServerNode over
// net::EpollTransport in one process, driven by a closed-loop client on
// its own EpollTransport through node::SubmitClientQuery.
//
// The traced run assembles the same ServerCore/ProxyCore behind
// EpollTransports with the handler-thread counts the nodes use, wraps
// each core's Handle in a TimedHandler and hands the proxy core a
// TimingTransport, then replays the pure query functions on the same
// queries to split the scan, wire, merge and materialize costs.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cubrick/net_service.h"
#include "cubrick/server.h"
#include "cubrick/sql.h"
#include "cubrick/wire.h"
#include "harness.h"
#include "net/epoll_transport.h"
#include "node/dataset.h"
#include "node/node.h"
#include "querygen.h"
#include "timing_transport.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace cubrick = scalewall::cubrick;
namespace cwire = scalewall::cubrick::wire;
namespace net = scalewall::net;
namespace node = scalewall::node;
namespace obs = scalewall::obs;
using scalewall::Result;
using scalewall::Status;

// Handler-thread counts ServerNode and ProxyNode give their transports
// (node.cc); the traced assembly must match them to time the same system.
constexpr int kServerHandlerThreads = 4;
constexpr int kProxyHandlerThreads = 1;

// Both socket workloads run one proxy and this many servers.
constexpr uint32_t kServers = 2;

struct SocketConfig {
  uint32_t partitions = 8;
  uint64_t rows = 0;
  int clients = 1;          // outstanding queries, one client transport
  int distinct = 0;         // distinct queries per run
  int window = 0;           // queries per timed window (>= 200: p95
                            // of a window has 10 samples beyond it)
  int warmup = 0;           // queries in the untimed warm-up window
  int trace_window = 0;     // queries per window of a traced run, which
                            // alternates untraced and traced windows
  int setups = 5;           // set-ups per run; setup_s is their median
  std::vector<GeneratedQuery> (*make)(uint64_t seed, int count) = nullptr;
};

SocketConfig ScanConfig() {
  SocketConfig c;
  c.partitions = 8;
  c.rows = 2'000'000;
  c.clients = std::min(
      4, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  c.distinct = 32;
  c.window = 200;
  c.warmup = 200;
  c.trace_window = 200;
  c.setups = 9;  // each takes ~1.8 s; more of them steady the median
  c.make = ScanQueries;
  return c;
}

SocketConfig FanoutConfig() {
  SocketConfig c;
  // Rows are partitioned by a hash of all three dimensions, so each of
  // the 16,384 groups lives in one partition and a partial holds at most
  // 16,384 / 64 = 256 of them (192 after a filter keeping 3/4). At 500
  // rows per partition a partial holds ~165 groups and the merged answer
  // ~10,600; 1,000 rows fill the partials little more (~188) but double
  // the scan, so a run holds a fifth fewer queries.
  c.partitions = 64;
  c.rows = 32'000;
  c.clients = 1;
  c.distinct = 16;
  c.window = 200;
  c.warmup = 40;
  c.trace_window = 40;
  c.setups = 25;  // each takes ~0.2 s; more of them steady the median
  c.make = FanoutQueries;
  return c;
}

struct PreparedQuery {
  GeneratedQuery gen;
  cubrick::QueryRequest request;
  uint64_t client_hash = 0;  // hash of the kClientQuery payload
  std::vector<cubrick::ResultRow> expected;
};

node::DatasetOptions Dataset(const SocketConfig& config, uint64_t seed) {
  node::DatasetOptions dataset;
  dataset.seed = seed;
  dataset.num_partitions = config.partitions;
  dataset.num_rows = config.rows;
  return dataset;
}

// The oracle holds every partition built once with node::BuildPartition
// and answers exactly as node::ExecuteLocal does (scan each partition,
// merge in ascending partition order, materialize). ExecuteLocal itself
// rebuilds all partitions per call, so it is run once per run, on one
// seeded query, to prove the two agree.
struct Oracle {
  std::vector<std::unique_ptr<cubrick::TablePartition>> partitions;
  cubrick::ReplicatedTable dim = node::BuildDimTable();

  Status Build(const node::DatasetOptions& options) {
    partitions.resize(options.num_partitions);
    Status status;
    std::mutex mu;
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        for (uint32_t p = t; p < options.num_partitions; p += 2) {
          auto part = node::BuildPartition(options, p);
          std::lock_guard<std::mutex> lock(mu);
          if (!part.ok()) {
            status = part.status();
            return;
          }
          partitions[p] = std::make_unique<cubrick::TablePartition>(
              std::move(part).value());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return status;
  }

  const cubrick::JoinContext* Joins(const cubrick::Query& query,
                                    cubrick::JoinContext* storage) const {
    if (query.joins.empty()) return nullptr;
    for (size_t i = 0; i < query.joins.size(); ++i) {
      storage->tables.push_back(&dim);
    }
    return storage;
  }

  Result<std::vector<cubrick::ResultRow>> Rows(
      const cubrick::Query& query) const {
    cubrick::JoinContext storage;
    const cubrick::JoinContext* joins = Joins(query, &storage);
    cubrick::QueryResult merged(query.aggregations.size());
    for (const auto& part : partitions) {
      cubrick::QueryResult partial(query.aggregations.size());
      SCALEWALL_RETURN_IF_ERROR(part->Execute(query, partial, joins));
      merged.Merge(partial);
    }
    return cubrick::MaterializeRows(merged, query);
  }
};

// ---- traced assembly ----

// One proxy subquery call as the decorator and the server wrapper saw it.
struct SubCall {
  double send = 0;
  double reply = 0;
  bool ok = false;
  std::atomic<double> server_us{-1};  // -1 = no server Handle matched
};

// Everything one ProxyCore::Handle did, summarized for its client.
struct ProxySummary {
  double handle_us = 0;
  double fanout_wait_us = 0;  // first subquery sent -> last reply
  double crit_call_us = 0;    // the last-replying subquery's call
  double crit_server_us = 0;  // ... and its server Handle
  bool matched = true;        // every call paired with its server Handle
  std::vector<double> call_us;
};

// Per handler thread: the subquery calls of the Handle running on it.
struct ProxyTrace {
  bool active = false;
  std::mutex mu;
  std::vector<std::shared_ptr<SubCall>> calls;
};
thread_local ProxyTrace t_proxy_trace;

ProxySummary Summarize(ProxyTrace& trace, double handle_us) {
  ProxySummary s;
  s.handle_us = handle_us;
  std::lock_guard<std::mutex> lock(trace.mu);
  if (trace.calls.empty()) return s;
  double first_send = trace.calls.front()->send;
  const SubCall* crit = trace.calls.front().get();
  for (const auto& call : trace.calls) {
    first_send = std::min(first_send, call->send);
    if (call->reply > crit->reply) crit = call.get();
    s.call_us.push_back(call->reply - call->send);
    if (call->server_us.load() < 0) s.matched = false;
  }
  s.fanout_wait_us = crit->reply - first_send;
  s.crit_call_us = crit->reply - crit->send;
  s.crit_server_us = std::max(0.0, crit->server_us.load());
  return s;
}

// A client-observed query joined with its proxy summary.
struct TracedQuery {
  double latency_us = 0;
  ProxySummary proxy;
};

// ---- clusters ----

// What the client loop talks to.
class Cluster {
 public:
  virtual ~Cluster() = default;
  virtual net::Transport& client() = 0;
  // Correlator of proxy summaries; null when the cluster is untraced.
  virtual Correlator<ProxySummary>* summaries() { return nullptr; }
};

Status StartClient(net::EpollTransport& client, int proxy_port) {
  if (!client.Start()) return Status::Internal("client event loop failed");
  client.MapPeer("proxy", "127.0.0.1:" + std::to_string(proxy_port));
  return Status::Ok();
}

// The deployable nodes, as scalewall_node runs them: one metrics
// registry per node, default transport options.
class NodeCluster : public Cluster {
 public:
  ~NodeCluster() override { Stop(); }

  Status Start(const node::DatasetOptions& data, double* build_seconds) {
    for (uint32_t s = 0; s < kServers; ++s) {
      node::NodeOptions options;
      options.server_id = s;
      options.num_servers = kServers;
      options.dataset = data;
      registries_.push_back(std::make_unique<obs::MetricsRegistry>());
      servers_.push_back(std::make_unique<node::ServerNode>(
          options, registries_.back().get()));
    }
    // Servers are separate processes in a deployment: start them at once.
    std::vector<Status> statuses(kServers);
    const double start = NowMicros();
    std::vector<std::thread> threads;
    for (uint32_t s = 0; s < kServers; ++s) {
      threads.emplace_back([&, s] { statuses[s] = servers_[s]->Start(); });
    }
    for (std::thread& t : threads) t.join();
    *build_seconds = (NowMicros() - start) / 1e6;
    std::map<std::string, std::string> peers;
    for (uint32_t s = 0; s < kServers; ++s) {
      SCALEWALL_RETURN_IF_ERROR(statuses[s]);
      peers[cubrick::NodePeerName(s)] =
          "127.0.0.1:" + std::to_string(servers_[s]->port());
    }
    // Tree aggregation forwards subtree leaves between servers.
    for (auto& server : servers_) {
      for (const auto& [name, address] : peers) {
        server->transport().MapPeer(name, address);
      }
    }
    node::NodeOptions proxy_options;
    proxy_options.num_servers = kServers;
    proxy_options.dataset = data;
    registries_.push_back(std::make_unique<obs::MetricsRegistry>());
    proxy_ = std::make_unique<node::ProxyNode>(proxy_options, peers,
                                               registries_.back().get());
    SCALEWALL_RETURN_IF_ERROR(proxy_->Start());
    return StartClient(client_, proxy_->port());
  }

  void Stop() {
    client_.Stop();
    if (proxy_ != nullptr) proxy_->Stop();
    for (auto& server : servers_) server->Stop();
  }

  net::Transport& client() override { return client_; }

 private:
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries_;
  std::vector<std::unique_ptr<node::ServerNode>> servers_;
  std::unique_ptr<node::ProxyNode> proxy_;
  net::EpollTransport client_;
};

// The traced assembly. `enabled` switches the instruments on for a
// traced window and off for an untraced one on the same cluster.
class TracedCluster : public Cluster {
 public:
  ~TracedCluster() override { Stop(); }

  Status Start(const node::DatasetOptions& data) {
    std::map<std::string, std::string> peers;
    for (uint32_t s = 0; s < kServers; ++s) {
      node::NodeOptions options;
      options.server_id = s;
      options.num_servers = kServers;
      options.dataset = data;
      registries_.push_back(std::make_unique<obs::MetricsRegistry>());
      net::EpollTransportOptions topts;
      topts.handler_threads = kServerHandlerThreads;
      auto transport = std::make_unique<net::EpollTransport>(
          registries_.back().get(), topts);
      auto core = std::make_unique<node::ServerCore>(
          options, registries_.back().get(), transport.get());
      SCALEWALL_RETURN_IF_ERROR(core->LoadPartitions());
      node::ServerCore* core_ptr = core.get();
      transport->SetHandler(TimedHandler(
          [core_ptr](const net::Message& m) { return core_ptr->Handle(m); },
          &enabled_, [this](const HandleRecord& r) {
            // Only calls the proxy's decorator announced have a slot;
            // server-to-server tree-leaf calls find none and are skipped.
            if (auto slot = pending_.Take(r.request_hash)) {
              (*slot)->server_us.store(r.end_micros - r.start_micros);
            }
          }));
      if (!transport->Start()) return Status::Internal("server loop failed");
      SCALEWALL_RETURN_IF_ERROR(transport->Listen("127.0.0.1:0"));
      peers[cubrick::NodePeerName(s)] =
          "127.0.0.1:" + std::to_string(transport->listen_port());
      server_transports_.push_back(std::move(transport));
      server_cores_.push_back(std::move(core));
    }
    for (auto& transport : server_transports_) {
      for (const auto& [name, address] : peers) {
        transport->MapPeer(name, address);
      }
    }

    node::NodeOptions proxy_options;
    proxy_options.num_servers = kServers;
    proxy_options.dataset = data;
    registries_.push_back(std::make_unique<obs::MetricsRegistry>());
    net::EpollTransportOptions topts;
    topts.handler_threads = kProxyHandlerThreads;
    proxy_transport_ =
        std::make_unique<net::EpollTransport>(registries_.back().get(), topts);
    timing_ = std::make_unique<TimingTransport>(proxy_transport_.get());
    timing_->set_observer([this](uint64_t hash) -> TimingTransport::Sink {
      ProxyTrace* trace = &t_proxy_trace;
      if (!trace->active) return {};
      auto call = std::make_shared<SubCall>();
      pending_.Post(hash, call);
      return [trace, call](const CallRecord& r) {
        call->send = r.send_micros;
        call->reply = r.reply_micros;
        call->ok = r.ok;
        std::lock_guard<std::mutex> lock(trace->mu);
        trace->calls.push_back(call);
      };
    });
    proxy_core_ = std::make_unique<node::ProxyCore>(
        proxy_options, timing_.get(), registries_.back().get());
    node::ProxyCore* core = proxy_core_.get();
    proxy_transport_->SetHandler(TimedHandler(
        [this, core](const net::Message& m) {
          ProxyTrace& trace = t_proxy_trace;
          trace.active = enabled_.load(std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> lock(trace.mu);
            trace.calls.clear();
          }
          Result<net::Message> response = core->Handle(m);
          trace.active = false;
          return response;
        },
        &enabled_, [this](const HandleRecord& r) {
          summaries_.Post(r.request_hash,
                          Summarize(t_proxy_trace,
                                    r.end_micros - r.start_micros));
        }));
    for (const auto& [name, address] : peers) {
      proxy_transport_->MapPeer(name, address);
    }
    if (!proxy_transport_->Start()) {
      return Status::Internal("proxy loop failed");
    }
    SCALEWALL_RETURN_IF_ERROR(proxy_transport_->Listen("127.0.0.1:0"));
    return StartClient(client_, proxy_transport_->listen_port());
  }

  void Stop() {
    client_.Stop();
    if (proxy_transport_ != nullptr) proxy_transport_->Stop();
    for (auto& transport : server_transports_) transport->Stop();
  }

  void set_enabled(bool on) {
    pending_.Clear();
    summaries_.Clear();
    enabled_.store(on);
  }

  net::Transport& client() override { return client_; }
  Correlator<ProxySummary>* summaries() override {
    return enabled_.load() ? &summaries_ : nullptr;
  }
  const TimingTransport& timing() const { return *timing_; }

  // Frames and bytes every transport of the cluster has sent so far.
  void WireTotals(int64_t* frames, int64_t* bytes) const {
    *frames = client_.stats().frames_out.value() +
              proxy_transport_->stats().frames_out.value();
    *bytes = client_.stats().bytes_out.value() +
             proxy_transport_->stats().bytes_out.value();
    for (const auto& t : server_transports_) {
      *frames += t->stats().frames_out.value();
      *bytes += t->stats().bytes_out.value();
    }
  }

 private:
  std::atomic<bool> enabled_{false};
  Correlator<std::shared_ptr<SubCall>> pending_;
  Correlator<ProxySummary> summaries_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries_;
  std::vector<std::unique_ptr<net::EpollTransport>> server_transports_;
  std::vector<std::unique_ptr<node::ServerCore>> server_cores_;
  std::unique_ptr<net::EpollTransport> proxy_transport_;
  std::unique_ptr<TimingTransport> timing_;
  std::unique_ptr<node::ProxyCore> proxy_core_;
  net::EpollTransport client_;
};

// ---- the closed loop ----

struct WindowResult {
  Window window;
  int64_t failed = 0;
  int64_t mismatched = 0;
  int64_t unmatched = 0;  // traced queries without a proxy summary
  std::vector<TracedQuery> traced;
};

// Issues `count` queries, `clients` outstanding at a time from one
// client transport; query i of the window is order[(offset+i) % size].
WindowResult RunWindow(Cluster& cluster,
                       const std::vector<PreparedQuery>& queries,
                       const std::vector<size_t>& order, size_t offset,
                       int count, int clients) {
  WindowResult result;
  std::vector<double>& latency_us = result.window.latency_us;
  latency_us.assign(count, 0.0);
  std::vector<std::optional<TracedQuery>> traced(count);
  Correlator<ProxySummary>* summaries = cluster.summaries();
  std::atomic<int> next{0};
  std::atomic<int64_t> failed{0}, mismatched{0};
  auto loop = [&] {
    for (int i = next++; i < count; i = next++) {
      const PreparedQuery& q = queries[order[(offset + i) % order.size()]];
      const double start = NowMicros();
      auto rows = node::SubmitClientQuery(cluster.client(), "proxy", q.request);
      const double latency = NowMicros() - start;
      latency_us[i] = latency;
      if (!rows.ok()) {
        ++failed;
        std::fprintf(stderr, "query failed: %s\n",
                     rows.status().ToString().c_str());
        continue;
      }
      if (!SameRows(rows->rows, q.expected)) ++mismatched;
      if (summaries != nullptr) {
        if (auto s = summaries->Take(q.client_hash)) {
          traced[i] = TracedQuery{latency, std::move(*s)};
        }
      }
    }
  };
  const double cpu = ProcessCpuMicros();
  const double start = NowMicros();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(loop);
  for (std::thread& t : threads) t.join();
  result.window.wall_us = NowMicros() - start;
  result.window.cpu_us = ProcessCpuMicros() - cpu;
  result.failed = failed.load();
  result.mismatched = mismatched.load();
  result.window.completed = count - result.failed - result.mismatched;
  if (summaries != nullptr) {
    for (auto& t : traced) {
      if (t.has_value()) {
        result.traced.push_back(std::move(*t));
      } else {
        ++result.unmatched;
      }
    }
  }
  return result;
}

// Parses the generated SQL, computes every expected answer with the
// oracle, and proves the oracle against node::ExecuteLocal on one query.
Status Prepare(const SocketConfig& config, const node::DatasetOptions& data,
               uint64_t seed, const Oracle& oracle,
               std::vector<PreparedQuery>* out) {
  for (GeneratedQuery& gen : config.make(seed, config.distinct)) {
    auto query = cubrick::ParseQuery(gen.sql, node::DatasetSchema(),
                                     &node::DatasetCatalog());
    if (!query.ok()) {
      return Status::InvalidArgument(gen.sql + ": " +
                                     query.status().ToString());
    }
    PreparedQuery q;
    q.request = cubrick::QueryRequest(*query);
    q.request.tracing = false;  // end-to-end numbers are taken untraced
    q.request.merge_fanin = gen.merge_fanin;
    q.client_hash = PayloadHash(cwire::EncodeClientQuery(q.request));
    auto rows = oracle.Rows(*query);
    SCALEWALL_RETURN_IF_ERROR(rows.status());
    q.expected = std::move(rows).value();
    q.gen = std::move(gen);
    out->push_back(std::move(q));
  }
  const PreparedQuery& probe = (*out)[seed % out->size()];
  auto local = node::ExecuteLocal(data, probe.request.query);
  SCALEWALL_RETURN_IF_ERROR(local.status());
  if (node::FormatResultRows(*local) !=
      node::FormatResultRows(probe.expected)) {
    return Status::Internal("oracle disagrees with node::ExecuteLocal on " +
                            probe.gen.sql);
  }
  return Status::Ok();
}

// Warm-up: every distinct query once, byte-compared as text against the
// oracle, then one untimed window so connections, allocators and caches
// settle before anything is timed.
Status WarmUp(Cluster& cluster, const SocketConfig& config,
              const std::vector<PreparedQuery>& queries,
              const std::vector<size_t>& order) {
  for (const PreparedQuery& q : queries) {
    auto rows = node::SubmitClientQuery(cluster.client(), "proxy", q.request);
    SCALEWALL_RETURN_IF_ERROR(rows.status());
    if (node::FormatResultRows(rows->rows) !=
        node::FormatResultRows(q.expected)) {
      return Status::Internal("answer differs from the oracle: " + q.gen.sql);
    }
  }
  WindowResult w = RunWindow(cluster, queries, order, 0, config.warmup,
                             config.clients);
  if (w.failed > 0 || w.mismatched > 0) {
    return Status::Internal("warm-up window failed or mismatched");
  }
  return Status::Ok();
}

// ---- per-layer replay of the pure functions ----

struct Replay {
  std::vector<double> parse_us, encode_us, decode_us, execute_us, merge_us,
      materialize_us, partial_bytes;
  int64_t rows = 0, bricks = 0, skipped = 0, queries = 0;
  double execute_total_us = 0;
};

// Runs one query the way the flat socket path does, one stage at a time:
// ParseQuery, then per partition EncodeSubqueryRequest ->
// DecodeSubqueryRequest -> TablePartition::Execute ->
// EncodeSubqueryResponse -> DecodeSubqueryResponse, then
// QueryResult::Merge in ascending partition order and MaterializeRows.
Status ReplayQuery(const Oracle& oracle, const PreparedQuery& q,
                   Replay* replay) {
  // The first allocation after the previous query's large result was
  // freed pays glibc's consolidation of its nodes; an untimed parse
  // absorbs that so the timed one measures the parser alone.
  (void)cubrick::ParseQuery(q.gen.sql, node::DatasetSchema(),
                            &node::DatasetCatalog());
  double t = NowMicros();
  auto parsed = cubrick::ParseQuery(q.gen.sql, node::DatasetSchema(),
                                    &node::DatasetCatalog());
  replay->parse_us.push_back(NowMicros() - t);
  SCALEWALL_RETURN_IF_ERROR(parsed.status());
  const cubrick::Query& query = *parsed;
  cubrick::JoinContext storage;
  const cubrick::JoinContext* joins = oracle.Joins(query, &storage);

  double encode = 0, decode = 0, execute = 0, merge = 0, bytes = 0;
  cubrick::QueryResult merged(query.aggregations.size());
  for (uint32_t p = 0; p < oracle.partitions.size(); ++p) {
    cwire::SubqueryEnvelope envelope;
    envelope.query = query;
    envelope.partition = p;
    t = NowMicros();
    const std::string request = cwire::EncodeSubqueryRequest(envelope);
    encode += NowMicros() - t;
    t = NowMicros();
    auto decoded = cwire::DecodeSubqueryRequest(request);
    decode += NowMicros() - t;
    SCALEWALL_RETURN_IF_ERROR(decoded.status());

    cubrick::PartialResult partial;
    partial.result = cubrick::QueryResult(query.aggregations.size());
    t = NowMicros();
    SCALEWALL_RETURN_IF_ERROR(
        oracle.partitions[p]->Execute(decoded->query, partial.result, joins));
    execute += NowMicros() - t;
    partial.epoch = oracle.partitions[p]->epoch();
    replay->rows += partial.result.rows_scanned;
    replay->bricks += partial.result.bricks_scanned;
    replay->skipped +=
        partial.result.bricks_pruned + partial.result.bricks_rle_skipped;

    t = NowMicros();
    const std::string response = cwire::EncodeSubqueryResponse(partial);
    encode += NowMicros() - t;
    bytes += static_cast<double>(response.size());
    t = NowMicros();
    auto back = cwire::DecodeSubqueryResponse(response);
    decode += NowMicros() - t;
    SCALEWALL_RETURN_IF_ERROR(back.status());
    t = NowMicros();
    merged.Merge(back->result);
    merge += NowMicros() - t;
  }
  t = NowMicros();
  std::vector<cubrick::ResultRow> rows =
      cubrick::MaterializeRows(merged, query);
  replay->materialize_us.push_back(NowMicros() - t);
  if (!SameRows(rows, q.expected)) {
    return Status::Internal("replay differs from the oracle: " + q.gen.sql);
  }
  replay->encode_us.push_back(encode);
  replay->decode_us.push_back(decode);
  replay->execute_us.push_back(execute);
  replay->merge_us.push_back(merge);
  replay->partial_bytes.push_back(bytes);
  replay->execute_total_us += execute;
  ++replay->queries;
  return Status::Ok();
}

void AddMedian(RunResult* result, const std::string& name,
               const std::vector<double>& samples, const std::string& unit) {
  result->Add(name, Median(samples), unit, SampleDetail(0.5, samples.size()));
}

// ---- the two runs ----

// Windows of config.window queries until `seconds` have passed. With
// `traced` set, windows of config.trace_window queries alternate
// untraced/traced, `traced_windows` collects the traced ones, and
// `after_traced` runs after each of them, off the window clocks.
void Measure(Cluster& cluster, const SocketConfig& config,
             const std::vector<PreparedQuery>& queries,
             const std::vector<size_t>& order, double seconds,
             std::vector<WindowResult>* windows,
             TracedCluster* traced, std::vector<WindowResult>* traced_windows,
             int64_t* wire_frames, int64_t* wire_bytes,
             const std::function<void()>& after_traced = nullptr) {
  size_t offset = config.warmup;  // the warm-up window used offset 0
  const double deadline = NowMicros() + seconds * 1e6;
  int64_t frames = 0, bytes = 0;
  const int size = traced != nullptr ? config.trace_window : config.window;
  for (int w = 0; NowMicros() < deadline || w < 4; ++w) {
    const bool traced_window = traced != nullptr && w % 2 == 1;
    if (traced != nullptr) traced->set_enabled(traced_window);
    int64_t f0 = 0, b0 = 0;
    if (traced_window) traced->WireTotals(&f0, &b0);
    WindowResult result =
        RunWindow(cluster, queries, order, offset, size, config.clients);
    offset += size;
    if (traced_window) {
      int64_t f1 = 0, b1 = 0;
      traced->WireTotals(&f1, &b1);
      frames += f1 - f0;
      bytes += b1 - b0;
      traced_windows->push_back(std::move(result));
      if (after_traced) after_traced();
    } else {
      windows->push_back(std::move(result));
    }
  }
  if (traced != nullptr) traced->set_enabled(false);
  if (wire_frames != nullptr) *wire_frames = frames;
  if (wire_bytes != nullptr) *wire_bytes = bytes;
}

// Counts attempts and failures into `result` and returns the windows.
std::vector<Window> Tally(const std::vector<WindowResult>& windows,
                          RunResult* result) {
  std::vector<Window> out;
  for (const WindowResult& w : windows) {
    result->attempted += static_cast<int64_t>(w.window.latency_us.size());
    result->failed += w.failed + w.mismatched;
    if (w.mismatched > 0) result->correct = false;
    out.push_back(w.window);
  }
  return out;
}

double WindowQps(const Window& w) {
  return static_cast<double>(w.latency_us.size()) / (w.wall_us / 1e6);
}

RunResult RunEndToEnd(const SocketConfig& config, const RunOptions& options,
                      const node::DatasetOptions& data,
                      const std::vector<PreparedQuery>& queries,
                      const std::vector<size_t>& order) {
  // Each set-up ends when the cluster has answered one probe query, so
  // connects are included. The first cluster is measured; the remaining
  // set-ups run after it is torn down and only time set-up, so the peak
  // RSS read after the windows is that of one set-up plus serving.
  std::vector<double> setup_s, ingest;
  auto set_up = [&](std::unique_ptr<NodeCluster>* cluster) {
    const double start = NowMicros();
    *cluster = std::make_unique<NodeCluster>();
    double build_s = 0;
    SCALEWALL_RETURN_IF_ERROR((*cluster)->Start(data, &build_s));
    auto probe = node::SubmitClientQuery((*cluster)->client(), "proxy",
                                         queries.front().request);
    SCALEWALL_RETURN_IF_ERROR(probe.status());
    setup_s.push_back((NowMicros() - start) / 1e6);
    ingest.push_back(static_cast<double>(data.num_rows) / build_s);
    return Status::Ok();
  };
  std::unique_ptr<NodeCluster> cluster;
  Status status = set_up(&cluster);
  if (!status.ok()) return FailedRun("set-up", status);
  status = WarmUp(*cluster, config, queries, order);
  if (!status.ok()) return FailedRun("warm-up", status);

  std::vector<WindowResult> windows;
  Measure(*cluster, config, queries, order, options.seconds, &windows,
          nullptr, nullptr, nullptr, nullptr);
  const double rss_mb = PeakRssMb();
  cluster.reset();
  for (int i = 1; i < config.setups; ++i) {
    std::unique_ptr<NodeCluster> extra;
    status = set_up(&extra);
    if (!status.ok()) return FailedRun("set-up", status);
  }

  RunResult result;
  AddWindowMetrics(Tally(windows, &result),
                   std::to_string(config.window) + " queries, " +
                       std::to_string(config.clients) + " outstanding",
                   &result);
  const double completed =
      static_cast<double>(result.attempted - result.failed);
  result.Add("success_ratio",
             completed / static_cast<double>(
                             std::max<int64_t>(1, result.attempted)),
             "ratio",
             RatioDetail(completed, static_cast<double>(result.attempted)));
  result.Add("setup_s", Median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) + " set-ups");
  result.Add("rss_mb", rss_mb, "MiB",
             "peak resident set through one set-up and the windows");
  result.Add("ingest_rows_per_s", Median(ingest), "rows/s",
             "dataset rows / wall s of the servers' partition builds, median "
             "of " + std::to_string(ingest.size()) + " set-ups");
  return result;
}

RunResult RunTraced(const SocketConfig& config, const RunOptions& options,
                    const node::DatasetOptions& data, const Oracle& oracle,
                    const std::vector<PreparedQuery>& queries,
                    const std::vector<size_t>& order) {
  // The pure functions are replayed on every distinct query after each
  // traced window, while the cluster idles: the replayed stage times and
  // the client latencies they are set against then sample the same
  // stretch of the host's speed, which on a shared VM drifts by tens of
  // percent within minutes.
  Replay replay;
  bool replay_ok = true;
  auto replay_pass = [&] {
    for (const PreparedQuery& q : queries) {
      Status status = ReplayQuery(oracle, q, &replay);
      if (!status.ok()) {
        replay_ok = false;
        std::fprintf(stderr, "replay: %s\n", status.ToString().c_str());
      }
    }
  };

  TracedCluster cluster;
  Status status = cluster.Start(data);
  if (!status.ok()) return FailedRun("traced cluster start", status);
  status = WarmUp(cluster, config, queries, order);
  if (!status.ok()) return FailedRun("warm-up", status);

  std::vector<WindowResult> plain, traced;
  int64_t frames = 0, bytes = 0;
  const int64_t failed0 = cluster.timing().failed_calls();
  Measure(cluster, config, queries, order, options.seconds, &plain, &cluster,
          &traced, &frames, &bytes, replay_pass);
  const int64_t failed_calls = cluster.timing().failed_calls() - failed0;

  RunResult result;
  std::vector<double> plain_qps, traced_qps;
  for (const Window& w : Tally(plain, &result)) {
    plain_qps.push_back(WindowQps(w));
  }
  for (const Window& w : Tally(traced, &result)) {
    traced_qps.push_back(WindowQps(w));
  }

  // Critical path of each traced query: queue (outside Handle) + proxy
  // self (Handle outside the critical subquery's call) + that call's
  // server Handle + its wait (call - server Handle) = client latency.
  std::vector<double> lat, queue, handle, fanout, self, server, wait, calls;
  int64_t unmatched = 0, queries_traced = 0;
  for (const WindowResult& w : traced) {
    unmatched += w.unmatched;
    for (const TracedQuery& t : w.traced) {
      ++queries_traced;
      if (!t.proxy.matched) ++unmatched;
      lat.push_back(t.latency_us);
      queue.push_back(t.latency_us - t.proxy.handle_us);
      handle.push_back(t.proxy.handle_us);
      fanout.push_back(t.proxy.fanout_wait_us);
      self.push_back(t.proxy.handle_us - t.proxy.crit_call_us);
      server.push_back(t.proxy.crit_server_us);
      wait.push_back(t.proxy.crit_call_us - t.proxy.crit_server_us);
      calls.insert(calls.end(), t.proxy.call_us.begin(), t.proxy.call_us.end());
    }
  }
  const double parts = Median(queue) + Median(self) + Median(server) +
                       Median(wait);
  AddMedian(&result, "node.proxy_queue_us", queue, "us");
  AddMedian(&result, "node.proxy_handle_us", handle, "us");
  AddMedian(&result, "node.fanout_wait_us", fanout, "us");
  AddMedian(&result, "node.proxy_self_us", self, "us");
  AddMedian(&result, "node.server_handle_us", server, "us");
  result.Add("node.unattributed_us", Median(lat) - parts, "us",
             "median client latency " + std::to_string(Median(lat)) +
                 " us minus the four critical-path medians; " +
                 std::to_string(unmatched) + " of " +
                 std::to_string(queries_traced) +
                 " traced queries had an unmatched hop");
  AddMedian(&result, "net.subquery_call_us", calls, "us");
  AddMedian(&result, "net.subquery_wait_us", wait, "us");
  const double tq = static_cast<double>(
      std::max<size_t>(1, traced.size() * config.trace_window));
  result.Add("net.frames_per_query", static_cast<double>(frames) / tq, "count",
             RatioDetail(static_cast<double>(frames), tq) +
                 " frames sent by every transport / traced queries");
  result.Add("net.bytes_per_query", static_cast<double>(bytes) / tq, "bytes",
             RatioDetail(static_cast<double>(bytes), tq));
  result.Add("net.failed_calls", static_cast<double>(failed_calls), "count",
             "subquery calls through the proxy decorator that failed");

  if (!replay_ok) result.correct = false;
  const double rq = static_cast<double>(std::max<int64_t>(1, replay.queries));
  AddMedian(&result, "cubrick.sql_parse_us", replay.parse_us, "us");
  AddMedian(&result, "cubrick.wire_encode_us", replay.encode_us, "us");
  AddMedian(&result, "cubrick.wire_decode_us", replay.decode_us, "us");
  AddMedian(&result, "cubrick.partial_bytes", replay.partial_bytes, "bytes");
  AddMedian(&result, "cubrick.partition_execute_us", replay.execute_us, "us");
  result.Add("cubrick.scan_rows_per_s",
             static_cast<double>(replay.rows) / (replay.execute_total_us / 1e6),
             "rows/s",
             RatioDetail(static_cast<double>(replay.rows),
                         replay.execute_total_us / 1e6) +
                 " rows / s inside Execute");
  result.Add("cubrick.rows_scanned_per_query",
             static_cast<double>(replay.rows) / rq, "count",
             RatioDetail(static_cast<double>(replay.rows), rq));
  result.Add("cubrick.bricks_scanned_per_query",
             static_cast<double>(replay.bricks) / rq, "count",
             RatioDetail(static_cast<double>(replay.bricks), rq));
  result.Add("cubrick.bricks_skipped_per_query",
             static_cast<double>(replay.skipped) / rq, "count",
             RatioDetail(static_cast<double>(replay.skipped), rq) +
                 " pruned + RLE-skipped");
  AddMedian(&result, "cubrick.merge_us", replay.merge_us, "us");
  AddMedian(&result, "cubrick.materialize_us", replay.materialize_us, "us");

  const double overhead = 1.0 - Median(traced_qps) / Median(plain_qps);
  result.Add("obs.trace_overhead_frac", overhead, "ratio",
             "1 - traced/untraced median window QPS: " +
                 RatioDetail(Median(traced_qps), Median(plain_qps)));
  return result;
}

RunResult RunSocket(const SocketConfig& config, const RunOptions& options) {
  const node::DatasetOptions data = Dataset(config, options.seed);
  Oracle oracle;
  Status status = oracle.Build(data);
  if (!status.ok()) return FailedRun("oracle build", status);
  std::vector<PreparedQuery> queries;
  status = Prepare(config, data, options.seed, oracle, &queries);
  if (!status.ok()) return FailedRun("prepare", status);
  const std::vector<size_t> order =
      Rotation(options.seed, queries.size(), queries.size() * 16);
  if (options.trace) {
    return RunTraced(config, options, data, oracle, queries, order);
  }
  oracle.partitions.clear();
  return RunEndToEnd(config, options, data, queries, order);
}

}  // namespace

RunResult RunSocketScan(const RunOptions& options) {
  return RunSocket(ScanConfig(), options);
}

RunResult RunSocketFanout(const RunOptions& options) {
  return RunSocket(FanoutConfig(), options);
}

}  // namespace perfbench
