#include "node/node.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "cubrick/net_service.h"
#include "net/event_loop.h"

namespace scalewall::node {

namespace {

namespace cwire = cubrick::wire;

// Renders one FairShareTree snapshot as indented text: one line per
// pool, root first, children in name order (the snapshot's own
// deterministic pre-order).
std::string RenderPoolTree(const admit::FairShareTree& tree) {
  const std::vector<admit::FairShareTree::PoolSnapshot> pools =
      tree.Snapshot();
  std::string out = "pools: " + std::to_string(pools.size()) +
                    " preemptions_total=" + std::to_string(tree.preemptions()) +
                    "\n";
  char line[256];
  for (const admit::FairShareTree::PoolSnapshot& pool : pools) {
    std::snprintf(
        line, sizeof(line),
        "%*s%s w=%.2f min=%.2f max=%.2f fair_share=%.3f demand=%.1f "
        "running=%d admitted=%lld rejected=%lld completed=%lld "
        "preempted=%lld service_us=%lld scan_us=%lld\n",
        pool.depth * 2, "", pool.path.empty() ? "(root)" : pool.path.c_str(),
        pool.weight, pool.min_share, pool.max_share, pool.fair_share,
        pool.demand, pool.running, static_cast<long long>(pool.admitted),
        static_cast<long long>(pool.rejected),
        static_cast<long long>(pool.completed),
        static_cast<long long>(pool.preempted),
        static_cast<long long>(pool.service_micros),
        static_cast<long long>(pool.scan_micros));
    out += line;
  }
  return out;
}

// Admin routes shared by both roles. `sink`/`slow_log`/`pools` are null
// on servers (their traces are per-request and shipped to the proxy,
// and scan work is charged to the proxy's pool tree).
void InstallAdminRoutes(net::HttpAdminServer* admin,
                        obs::MetricsRegistry* metrics, const char* role,
                        const obs::TraceSink* sink,
                        obs::SlowQueryLog* slow_log,
                        const admit::FairShareTree* pools) {
  admin->AddRoute("/healthz", [role] {
    net::HttpResponse response;
    response.body = std::string("ok role=") + role + "\n";
    return response;
  });
  admin->AddRoute("/metrics", [metrics] {
    net::HttpResponse response;
    if (metrics == nullptr) {
      response.status = 503;
      response.body = "no metrics registry attached\n";
      return response;
    }
    response.content_type = "text/plain; version=0.0.4";
    response.body = metrics->ExportPrometheus();
    return response;
  });
  admin->AddRoute("/traces", [sink] {
    net::HttpResponse response;
    if (sink == nullptr) {
      response.body =
          "no retained traces: this role ships its spans to the proxy\n";
      return response;
    }
    const std::vector<uint64_t> ids = sink->TraceIds();
    std::string out = "retained traces: " + std::to_string(ids.size()) + "\n";
    for (uint64_t id : ids) {
      out += "--- trace " + std::to_string(id) +
             " spans=" + std::to_string(sink->NumSpans(id)) + " ---\n";
      out += sink->ExportTextTree(id);
    }
    response.body = std::move(out);
    return response;
  });
  admin->AddRoute("/pools", [pools] {
    net::HttpResponse response;
    if (pools == nullptr) {
      response.body =
          "no pool accounting: this role's work is charged to the "
          "proxy's pool tree\n";
      return response;
    }
    response.body = RenderPoolTree(*pools);
    return response;
  });
  if (slow_log != nullptr) {
    admin->AddRoute("/slowlog", [slow_log] {
      net::HttpResponse response;
      const std::vector<obs::QueryProfile> profiles = slow_log->Snapshot();
      std::string out =
          "slow queries (newest first): " + std::to_string(profiles.size()) +
          " captured_total=" + std::to_string(slow_log->captured_total()) +
          " evicted_total=" + std::to_string(slow_log->evicted_total()) + "\n";
      for (const obs::QueryProfile& profile : profiles) {
        out += "---\n" + profile.Text();
      }
      response.body = std::move(out);
      return response;
    });
  }
}

}  // namespace

ServerCore::ServerCore(NodeOptions options, obs::MetricsRegistry* metrics,
                       net::Transport* transport)
    : options_(std::move(options)),
      catalog_(BuildCatalog(options_.dataset.num_partitions)),
      server_(/*simulation=*/nullptr, /*cluster=*/nullptr, &catalog_,
              options_.server_id,
              [metrics] {
                cubrick::CubrickServerOptions server_options;
                server_options.metrics = metrics;
                return server_options;
              }()),
      decode_errors_(metrics) {
  server_.SetReplicatedTable(BuildDimTable());
  region_.transport = transport;
  handler_ = cubrick::MakeServerNodeHandler(&server_, options_.server_id,
                                            &region_, &decode_errors_);
}

Status ServerCore::LoadPartitions() {
  if (!catalog_.HasTable(DatasetTable())) {
    return Status::InvalidArgument(
        "invalid partition count " +
        std::to_string(options_.dataset.num_partitions));
  }
  const std::vector<std::vector<cubrick::Row>> rows =
      PartitionRows(options_.dataset);
  for (uint32_t p = 0; p < rows.size(); ++p) {
    if (ServerForPartition(p, options_.num_servers) == options_.server_id) {
      server_.ReplacePartitionData({DatasetTable(), p}, rows[p]);
    }
  }
  return Status::Ok();
}

Result<net::Message> ServerCore::Handle(const net::Message& request) {
  return handler_(request, net::CallSideband{});
}

// The node proxy's environment: partitions at their ServerForPartition
// hosts, the dataset's dim replica, wall-clock time, nothing modeled.
// Chunk spans travel as wire telemetry blocks, never on the side-band,
// and each server's span batch is grafted under its chunk's span.
// Immutable once built, so ProxyNode's handler threads share it.
class ProxyCore::WallEnv : public cubrick::AttemptEnv {
 public:
  WallEnv(uint32_t num_servers, net::TelemetryDecodeCounters* decode_errors)
      : num_servers_(num_servers),
        dim_(BuildDimTable()),
        decode_errors_(decode_errors) {}

  SimTime Now() override { return net::EventLoop::NowMicros(); }
  SimDuration Latency(const cubrick::AttemptFrame& frame,
                      SimDuration) override {
    return Now() - frame.t0;
  }
  // The proxy's catalog admits joins against the dataset's dim only.
  Result<std::vector<const cubrick::ReplicatedTable*>> CoordinatorDims(
      const std::vector<cubrick::Join>& joins) override {
    return std::vector<const cubrick::ReplicatedTable*>(joins.size(), &dim_);
  }
  Result<cluster::ServerId> Place(cubrick::AttemptFrame&, const std::string&,
                                  uint32_t p) override {
    return ServerForPartition(p, num_servers_);
  }
  void OpenChunk(cubrick::AttemptFrame& frame, size_t lo, size_t hi,
                 net::CallSideband*, std::string* telemetry) override {
    if (!frame.trace.active()) return;
    obs::TraceContext& span = frame.spans[lo];
    span = frame.trace.Child(
        hi - lo == 1 ? "subquery p" + std::to_string(lo)
                     : "tree merge p" + std::to_string(lo) + "-p" +
                           std::to_string(hi - 1),
        frame.t0);
    span.Annotate("server", cubrick::NodePeerName((*frame.servers)[lo]));
    *telemetry = net::EncodeTraceContext(
        {.want_spans = true, .trace_id = frame.trace.trace,
         .span_id = span.span, .origin = "proxy"});
  }
  SimDuration FoldChunk(cubrick::AttemptFrame& frame, size_t lo, size_t,
                        const std::vector<int>&,
                        std::string_view span_batch) override {
    if (!frame.trace.active()) return 0;
    std::vector<obs::SpanRecord> batch;
    const Status decoded = net::DecodeSpanBatch(span_batch, &batch);
    if (!decoded.ok()) {
      // Advisory: count, drop, keep the query (and the peer) alive.
      decode_errors_->Bump(decoded);
    } else if (!batch.empty()) {
      frame.trace.sink->Graft(frame.spans[lo], batch);
    }
    frame.spans[lo].End(Now());
    return 0;
  }

 private:
  const uint32_t num_servers_;
  const cubrick::ReplicatedTable dim_;
  net::TelemetryDecodeCounters* const decode_errors_;
};

ProxyCore::ProxyCore(NodeOptions options, net::Transport* transport,
                     obs::MetricsRegistry* metrics)
    : catalog_(BuildCatalog(options.dataset.num_partitions)),
      slow_log_(options.slow_log),
      decode_errors_(metrics),
      env_(std::make_unique<WallEnv>(options.num_servers, &decode_errors_)) {
  region_.catalog = &catalog_;
  region_.transport = transport;
  if (metrics != nullptr) {
    queries_ = metrics->GetCounter("scalewall_node_queries_total");
    query_latency_ms_ =
        metrics->GetHistogram("scalewall_node_query_latency_ms");
  }
}

ProxyCore::~ProxyCore() = default;

Result<net::Message> ProxyCore::Handle(const net::Message& request) {
  if (request.type != net::FrameType::kClientQuery) {
    return Status::Unimplemented("proxy node does not serve frame type " +
                                 std::string(net::FrameTypeName(request.type)));
  }
  auto decoded = cwire::DecodeClientQuery(request.payload);
  if (!decoded.ok()) return decoded.status();
  const cubrick::QueryRequest& query_request = *decoded;
  const cubrick::Query& query = query_request.query;

  const int64_t start_micros = net::EventLoop::NowMicros();
  // Charge this query to its claim's pool: a running count for the
  // call's duration, wall latency on completion. Pure accounting — the
  // node proxy runs no admission, so nothing here can shed or reorder.
  const admit::FairShareTree::PoolId pool = pool_tree_.Resolve(
      query_request.claim.pool_path, query_request.claim.weight_hint);
  pool_tree_.OnAdmit(pool, 0);
  struct PoolRelease {
    admit::FairShareTree* tree;
    admit::FairShareTree::PoolId pool;
    ~PoolRelease() { tree->OnRelease(pool, 0); }
  } pool_release{&pool_tree_, pool};
  // The deadline converts to remaining budget *here*, at the hop's
  // serialization time: the client's absolute deadline never crosses a
  // clock domain (see cubrick/wire.h).
  const SimDuration budget = query_request.deadline > 0
                                 ? query_request.deadline
                                 : query.deadline;

  // Root span of the stitched trace. Every annotation below is a pure
  // function of request + data — the canonical tree must come out
  // byte-identical whether this core runs over sim or real sockets.
  const bool traced = query_request.tracing || query_request.profile;
  obs::TraceContext root;
  if (traced) {
    root = sink_.StartTrace("query " + query.table, start_micros);
    if (!query_request.claim.pool_path.empty()) {
      root.Annotate("pool",
                    admit::NormalizePoolPath(query_request.claim.pool_path));
    }
    if (budget > 0) root.Annotate("deadline", std::to_string(budget));
  }

  // A plan built by hand: with no cost model to consult, kAuto resolves
  // to kReplicated and the request's merge topology stands.
  cubrick::ExecutionPlan plan;
  plan.query = query;
  plan.join_strategy = query_request.join_strategy;
  plan.merge_fanin = query_request.merge_fanin;
  plan.shuffle_buckets = 8;
  cubrick::ExecContext ectx;
  ectx.region = &region_;
  ectx.deadline_budget = budget;
  ectx.trace = root;
  ectx.dispatch_time = start_micros;
  ectx.cache_policy = query_request.cache_policy;
  cubrick::DistributedOutcome outcome =
      cubrick::ExecuteDistributed(plan, ectx, *env_);

  cwire::ClientRowsEnvelope rows;
  if (outcome.status.ok()) {
    obs::TraceContext merge_span =
        root.Child("merge", net::EventLoop::NowMicros());
    rows.rows = cubrick::MaterializeRows(outcome.result, query);
    rows.attempts = 1;
    rows.fanout = outcome.fanout;
    rows.latency = net::EventLoop::NowMicros() - start_micros;
    pool_tree_.ChargeScanMicros(pool, rows.latency);
    merge_span.Annotate("rows", std::to_string(rows.rows.size()));
    merge_span.End(net::EventLoop::NowMicros());
  }
  if (traced) {
    // Failed queries close their trace too, and reach the slow-query
    // ring like any other.
    root.Annotate("status",
                  std::string(StatusCodeName(outcome.status.code())));
    root.Annotate("attempts", "1");
    root.Annotate("fanout", std::to_string(outcome.fanout));
    root.End(net::EventLoop::NowMicros());

    obs::QueryProfile profile = BuildQueryProfile(sink_.Spans(root.trace));
    profile.trace_id = root.trace;
    slow_log_.MaybeCapture(profile);
    if (query_request.profile) {
      rows.profile_text = profile.Text();
      rows.trace_text = sink_.ExportTextTree(root.trace);
    }
  }
  if (!outcome.status.ok()) return outcome.status;
  ++queries_;
  query_latency_ms_.Add(static_cast<double>(rows.latency) / 1000.0);
  return net::Message{net::FrameType::kClientRows,
                      cwire::EncodeClientRows(rows)};
}

ServerNode::ServerNode(NodeOptions options, obs::MetricsRegistry* metrics)
    : metrics_(metrics),
      core_(options, metrics, &transport_),
      transport_(metrics, [&] {
        net::EpollTransportOptions t = options.transport;
        // Scans run on workers so a long brick scan never stalls the
        // socket loop — and tree aggregation blocks a worker on calls
        // to peer servers while their leaf subqueries need a free one
        // here, so keep a small pool rather than a single thread.
        t.handler_threads = std::max(4, t.handler_threads);
        return t;
      }()) {
  transport_.SetHandler(
      [this](const net::Message& request, const net::CallSideband&) {
        return core_.Handle(request);
      });
  // The listen address and peer map live in options; copy for Start.
  listen_ = options.listen;
  peer_addresses_ = options.peer_addresses;
}

ServerNode::~ServerNode() { Stop(); }

Status ServerNode::Start() {
  SCALEWALL_RETURN_IF_ERROR(core_.LoadPartitions());
  // Peer servers, for forwarding the remote leaves of a merge subtree.
  for (const auto& [name, address] : peer_addresses_) {
    transport_.MapPeer(name, address);
  }
  if (!transport_.Start()) return Status::Internal("event loop failed");
  return transport_.Listen(listen_);
}

void ServerNode::Stop() {
  if (admin_ != nullptr) admin_->Stop();
  transport_.Stop();
}

Status ServerNode::StartAdmin(const std::string& address) {
  admin_ = std::make_unique<net::HttpAdminServer>(transport_.loop());
  InstallAdminRoutes(admin_.get(), metrics_, "server", nullptr, nullptr,
                     nullptr);
  return admin_->Listen(address);
}

int ServerNode::admin_port() const {
  return admin_ != nullptr ? admin_->port() : 0;
}

ProxyNode::ProxyNode(NodeOptions options,
                     std::map<std::string, std::string> peer_addresses,
                     obs::MetricsRegistry* metrics)
    : metrics_(metrics),
      peer_addresses_(std::move(peer_addresses)),
      transport_(metrics, [&] {
        net::EpollTransportOptions t = options.transport;
        // The client-query handler blocks on its own fan-out calls; it
        // must run off the loop thread that services those calls.
        t.handler_threads = std::max(1, t.handler_threads);
        return t;
      }()),
      core_(options, &transport_, metrics) {
  transport_.SetHandler(
      [this](const net::Message& request, const net::CallSideband&) {
        return core_.Handle(request);
      });
  listen_ = options.listen;
}

ProxyNode::~ProxyNode() { Stop(); }

Status ProxyNode::Start() {
  for (const auto& [name, address] : peer_addresses_) {
    transport_.MapPeer(name, address);
  }
  if (!transport_.Start()) return Status::Internal("event loop failed");
  return transport_.Listen(listen_);
}

void ProxyNode::Stop() {
  if (admin_ != nullptr) admin_->Stop();
  transport_.Stop();
}

Status ProxyNode::StartAdmin(const std::string& address) {
  admin_ = std::make_unique<net::HttpAdminServer>(transport_.loop());
  InstallAdminRoutes(admin_.get(), metrics_, "proxy", &core_.trace_sink(),
                     &core_.slow_log(), &core_.pool_tree());
  return admin_->Listen(address);
}

int ProxyNode::admin_port() const {
  return admin_ != nullptr ? admin_->port() : 0;
}

Result<cubrick::wire::ClientRowsEnvelope> SubmitClientQuery(
    net::Transport& transport, const std::string& proxy,
    const cubrick::QueryRequest& request) {
  net::CallOptions options;
  options.timeout = request.deadline;  // 0 = transport default
  auto response = transport.Call(
      proxy,
      net::Message{net::FrameType::kClientQuery,
                   cwire::EncodeClientQuery(request)},
      options);
  if (!response.ok()) return response.status();
  SCALEWALL_RETURN_IF_ERROR(
      net::ExpectFrame(*response, net::FrameType::kClientRows));
  return cwire::DecodeClientRows(response->payload);
}

}  // namespace scalewall::node
