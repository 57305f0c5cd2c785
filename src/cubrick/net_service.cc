#include "cubrick/net_service.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "cubrick/planner.h"
#include "net/event_loop.h"
#include "net/telemetry.h"

namespace scalewall::cubrick {

std::string NodePeerName(cluster::ServerId server) {
  return "s" + std::to_string(server);
}

std::string RegionPeerName(cluster::RegionId region) {
  return "r" + std::to_string(region);
}

namespace {

// Wire trace context (real-socket callers). Advisory: a malformed block
// is dropped and the request still runs. When the in-process side-band
// already carries the caller's trace — the sim backend, where both ends
// share one sink — spans record there directly and no batch is shipped:
// shipping one too would double-record the work.
struct RequestTrace {
  obs::TraceSink sink;
  obs::TraceContext trace;
  SimTime trace_time = -1;
  bool batching = false;
  net::TelemetryDecodeCounters* decode_errors;

  RequestTrace(std::string_view telemetry, std::string_view root,
               const net::CallSideband& sideband,
               net::TelemetryDecodeCounters* decode_errors)
      : decode_errors(decode_errors) {
    net::TraceContextBlock tctx;
    Bump(net::DecodeTraceContext(telemetry, &tctx));
    trace = sideband.trace;
    trace_time = sideband.trace_time;
    batching = tctx.want_spans && !trace.active();
    if (batching) {
      trace = sink.StartTrace(std::string(root), net::EventLoop::NowMicros());
      trace_time = net::EventLoop::NowMicros();
    }
  }

  std::string Finish() {
    if (!batching) return {};
    trace.End(net::EventLoop::NowMicros());
    return net::EncodeSpanBatch(sink.Spans(trace.trace));
  }

  // A hop this request forwards to a peer. A batching request passes no
  // side-band trace and asks the peer for a span batch over the wire
  // instead, which Graft stitches under this request's span — so the
  // stitched tree is the same on every transport.
  obs::TraceContext HopTrace() const {
    return batching ? obs::TraceContext{} : trace;
  }
  std::string HopTelemetry() const {
    if (!batching) return {};
    net::TraceContextBlock tctx;
    tctx.want_spans = true;
    tctx.trace_id = trace.trace;
    tctx.span_id = trace.span;
    tctx.origin = "aggregator";
    return net::EncodeTraceContext(tctx);
  }
  void Graft(std::string_view span_batch) {
    if (!batching) return;
    std::vector<obs::SpanRecord> batch;
    const Status decoded = net::DecodeSpanBatch(span_batch, &batch);
    Bump(decoded);
    if (decoded.ok() && !batch.empty()) sink.Graft(trace, batch);
  }

 private:
  void Bump(const Status& status) {
    if (!status.ok() && decode_errors != nullptr) decode_errors->Bump(status);
  }
};

// Endpoint state shared by one server's handlers.
struct ServerEndpoint {
  CubrickServer* server;
  cluster::ServerId server_id;
  RegionContext* ctx;
  net::TelemetryDecodeCounters* decode_errors;
};

// Coordinating and region-wide epoch probes need the region's catalog,
// cluster and discovery. A context that carries only a transport (a
// scalewall_node server) answers them with a Status instead.
Status RequireRegion(const RegionContext* ctx, const net::Message& request) {
  const bool region = ctx != nullptr && ctx->catalog != nullptr &&
                      ctx->cluster != nullptr && ctx->discovery != nullptr;
  return region ? Status::Ok()
                : Status::FailedPrecondition(
                      std::string(net::FrameTypeName(request.type)) +
                      " needs a region this endpoint does not have");
}

// Broadcast-join plans ship dim snapshots in the envelope; the scan
// joins against those instead of the server's resident replicas (null).
const JoinContext* SnapshotJoins(const std::vector<ReplicatedTable>& dims,
                                 JoinContext* storage) {
  if (dims.empty()) return nullptr;
  for (const ReplicatedTable& dim : dims) storage->tables.push_back(&dim);
  return storage;
}

Result<net::Message> HandleSubquery(const ServerEndpoint& ep,
                                    const net::Message& request,
                                    const net::CallSideband& sideband) {
  auto envelope = wire::DecodeSubqueryRequest(request.payload);
  if (!envelope.ok()) return envelope.status();
  const std::string* fingerprint =
      envelope->fingerprint.empty() ? nullptr : &envelope->fingerprint;

  RequestTrace rtrace(envelope->telemetry,
                      "host " + NodePeerName(ep.server_id), sideband,
                      ep.decode_errors);

  JoinContext snapshot_ctx;
  const JoinContext* dims_override =
      SnapshotJoins(envelope->dims, &snapshot_ctx);

  auto partial = ep.server->ExecutePartial(
      envelope->query, envelope->partition, /*hop_budget=*/-1, sideband.cancel,
      rtrace.trace, rtrace.trace_time, envelope->cache_policy, fingerprint,
      envelope->scan_path, dims_override,
      envelope->pool_path.empty() ? nullptr : &envelope->pool_path);
  if (!partial.ok()) return partial.status();
  return net::Message{
      net::FrameType::kSubqueryResponse,
      wire::EncodeSubqueryResponse(*partial, rtrace.Finish())};
}

Result<net::Message> HandleTreeMerge(const ServerEndpoint& ep,
                                     const net::Message& request,
                                     const net::CallSideband& sideband) {
  const cluster::ServerId server_id = ep.server_id;
  auto envelope = wire::DecodeTreeMergeRequest(request.payload);
  if (!envelope.ok()) return envelope.status();
  const size_t num_leaves = envelope->partitions.size();
  const std::string* fingerprint =
      envelope->fingerprint.empty() ? nullptr : &envelope->fingerprint;

  RequestTrace rtrace(envelope->telemetry,
                      "aggregator " + NodePeerName(server_id), sideband,
                      ep.decode_errors);

  JoinContext snapshot_ctx;
  const JoinContext* dims_override =
      SnapshotJoins(envelope->dims, &snapshot_ctx);

  wire::TreeMergeResult merged;
  merged.result = QueryResult(envelope->query.aggregations.size());
  merged.epochs.assign(num_leaves, 0);
  merged.forward_hops.assign(num_leaves, 0);

  // Remote leaves and sub-chunks forward over the region's transport.
  net::Transport* forward = ep.ctx != nullptr ? ep.ctx->transport : nullptr;
  const auto no_forward = [] {
    return Status::FailedPrecondition(
        "tree merge forwarding requires a transport");
  };
  const std::string* pool =
      envelope->pool_path.empty() ? nullptr : &envelope->pool_path;

  // Execute one leaf: locally when this aggregator hosts the partition,
  // as a forwarded subquery otherwise.
  auto leaf = [&](size_t i) -> Status {
    const bool local = envelope->servers[i] == server_id;
    if (!local && forward == nullptr) return no_forward();
    const std::string hop_telemetry = rtrace.HopTelemetry();
    std::string span_batch;
    auto partial =
        local ? ep.server->ExecutePartial(
                    envelope->query, envelope->partitions[i],
                    /*hop_budget=*/-1, sideband.cancel, rtrace.trace,
                    rtrace.trace_time, envelope->cache_policy, fingerprint,
                    envelope->scan_path, dims_override, pool)
              : CallSubquery(
                    *forward, envelope->servers[i], envelope->query,
                    envelope->partitions[i], envelope->remaining_budget,
                    envelope->cache_policy, envelope->scan_path, fingerprint,
                    sideband.cancel, rtrace.HopTrace(), rtrace.trace_time,
                    envelope->dims.empty() ? nullptr : &envelope->dims, pool,
                    &hop_telemetry, &span_batch);
    if (!partial.ok()) return partial.status();
    rtrace.Graft(span_batch);
    merged.epochs[i] = partial->epoch;
    merged.forward_hops[i] = partial->forward_hops;
    merged.result.Merge(partial->result);
    return Status::Ok();
  };

  // Recursive subtree walk over [lo, hi): chunks with the shared
  // TreeChunkSize so the shape — and hence the ascending fold order —
  // matches the coordinator's modeled tree exactly. A sub-chunk whose
  // aggregator is this server recurses locally; any other sub-chunk is
  // forwarded as a nested tree-merge call.
  std::function<Status(size_t, size_t)> run = [&](size_t lo,
                                                  size_t hi) -> Status {
    const size_t chunk = static_cast<size_t>(
        TreeChunkSize(static_cast<int>(hi - lo), envelope->fanin));
    for (size_t clo = lo; clo < hi; clo += chunk) {
      const size_t chi = std::min(clo + chunk, hi);
      if (chi - clo == 1) {
        SCALEWALL_RETURN_IF_ERROR(leaf(clo));
      } else if (envelope->servers[clo] == server_id) {
        SCALEWALL_RETURN_IF_ERROR(run(clo, chi));
      } else {
        if (forward == nullptr) return no_forward();
        wire::TreeMergeEnvelope sub = *envelope;
        sub.partitions.assign(envelope->partitions.begin() + clo,
                              envelope->partitions.begin() + chi);
        sub.servers.assign(envelope->servers.begin() + clo,
                           envelope->servers.begin() + chi);
        sub.telemetry = rtrace.HopTelemetry();
        std::string span_batch;
        auto subtree = CallTreeMerge(*forward, envelope->servers[clo],
                                     sub, sideband.cancel, rtrace.HopTrace(),
                                     rtrace.trace_time, &span_batch);
        if (!subtree.ok()) return subtree.status();
        rtrace.Graft(span_batch);
        if (subtree->epochs.size() != chi - clo ||
            subtree->forward_hops.size() != chi - clo) {
          return Status::Internal(
              "tree merge response misaligned with request");
        }
        for (size_t i = clo; i < chi; ++i) {
          merged.epochs[i] = subtree->epochs[i - clo];
          merged.forward_hops[i] = subtree->forward_hops[i - clo];
        }
        merged.result.Merge(subtree->result);
      }
    }
    return Status::Ok();
  };
  SCALEWALL_RETURN_IF_ERROR(run(0, num_leaves));
  return net::Message{
      net::FrameType::kTreeMergeResponse,
      wire::EncodeTreeMergeResponse(merged, rtrace.Finish())};
}

Result<net::Message> HandleShuffleMap(CubrickServer* server,
                                      const net::Message& request) {
  auto envelope = wire::DecodeShuffleMapRequest(request.payload);
  if (!envelope.ok()) return envelope.status();
  auto mapped = server->MapShuffleGroups(envelope->query, envelope->bucket);
  if (!mapped.ok()) return mapped.status();
  return net::Message{net::FrameType::kShuffleMapResponse,
                      wire::EncodeShuffleMapResponse(*mapped)};
}

Result<net::Message> HandleCoordinate(cluster::ServerId server_id,
                                      RegionContext* ctx,
                                      const net::Message& request,
                                      const net::CallSideband& sideband) {
  SCALEWALL_RETURN_IF_ERROR(RequireRegion(ctx, request));
  auto envelope = wire::DecodeCoordinateRequest(request.payload);
  if (!envelope.ok()) return envelope.status();
  auto* coordinate = static_cast<CoordinateSideband*>(sideband.cookie);
  if (coordinate == nullptr || coordinate->rng == nullptr) {
    // Over real sockets there is no shared RNG stream; node deployments
    // fan subqueries out from the proxy role instead of delegating a
    // whole coordinated attempt.
    return Status::FailedPrecondition(
        "coordinate calls require the in-process RNG side-band");
  }
  ExecutionPlan plan =
      BuildExecutionPlan(*ctx, envelope->query, server_id,
                         envelope->join_strategy, envelope->merge_fanin);
  ExecContext ectx;
  ectx.region = ctx;
  ectx.rng = coordinate->rng;
  ectx.deadline_budget = envelope->remaining_budget;
  ectx.trace = sideband.trace;
  ectx.dispatch_time = envelope->dispatch_time;
  ectx.cache_policy = envelope->cache_policy;
  ectx.fingerprint =
      envelope->fingerprint.empty() ? nullptr : &envelope->fingerprint;
  ectx.scan_path = envelope->scan_path;
  ectx.pool_path = envelope->pool_path;
  ectx.cancel = sideband.cancel;
  DistributedOutcome outcome = ExecuteDistributed(plan, ectx);
  return net::Message{net::FrameType::kCoordinateResponse,
                      wire::EncodeCoordinateResponse(outcome)};
}

Result<net::Message> HandleEpochs(RegionContext* ctx,
                                  const net::Message& request) {
  SCALEWALL_RETURN_IF_ERROR(RequireRegion(ctx, request));
  auto probe = wire::DecodeEpochRequest(request.payload);
  if (!probe.ok()) return probe.status();
  auto epochs = CollectPartitionEpochs(*ctx, probe->table, probe->dims);
  if (!epochs.ok()) return epochs.status();
  return net::Message{net::FrameType::kEpochResponse,
                      wire::EncodeEpochResponse(*epochs)};
}

}  // namespace

net::Handler MakeServerNodeHandler(
    CubrickServer* server, cluster::ServerId server_id, RegionContext* ctx,
    net::TelemetryDecodeCounters* decode_errors) {
  const ServerEndpoint ep{server, server_id, ctx, decode_errors};
  return [ep](const net::Message& request,
              const net::CallSideband& sideband) -> Result<net::Message> {
    switch (request.type) {
      case net::FrameType::kSubqueryRequest:
        return HandleSubquery(ep, request, sideband);
      case net::FrameType::kTreeMergeRequest:
        return HandleTreeMerge(ep, request, sideband);
      case net::FrameType::kShuffleMapRequest:
        return HandleShuffleMap(ep.server, request);
      case net::FrameType::kCoordinateRequest:
        return HandleCoordinate(ep.server_id, ep.ctx, request, sideband);
      case net::FrameType::kEpochRequest:
        return HandleEpochs(ep.ctx, request);
      default:
        return Status::Unimplemented(
            "server node does not serve frame type " +
            std::string(net::FrameTypeName(request.type)));
    }
  };
}

net::Handler MakeRegionNodeHandler(RegionContext* ctx) {
  return [ctx](const net::Message& request,
               const net::CallSideband& sideband) -> Result<net::Message> {
    (void)sideband;
    if (request.type != net::FrameType::kEpochRequest) {
      return Status::Unimplemented(
          "region node does not serve frame type " +
          std::string(net::FrameTypeName(request.type)));
    }
    return HandleEpochs(ctx, request);
  };
}

Result<PartialResult> CallSubquery(
    net::Transport& transport, cluster::ServerId server, const Query& query,
    uint32_t partition, SimDuration remaining_budget,
    cache::CachePolicy cache_policy, exec::ScanPath scan_path,
    const std::string* fingerprint, const exec::CancelToken* cancel,
    obs::TraceContext trace, SimTime trace_time,
    const std::vector<ReplicatedTable>* dims, const std::string* pool,
    const std::string* telemetry, std::string* span_batch) {
  wire::SubqueryEnvelope envelope;
  envelope.query = query;
  envelope.partition = partition;
  envelope.cache_policy = cache_policy;
  envelope.scan_path = scan_path;
  if (fingerprint != nullptr) envelope.fingerprint = *fingerprint;
  envelope.remaining_budget = remaining_budget;
  if (pool != nullptr) envelope.pool_path = *pool;
  if (dims != nullptr) envelope.dims = *dims;
  if (telemetry != nullptr) envelope.telemetry = *telemetry;

  net::CallOptions options;
  options.sideband.cancel = cancel;
  options.sideband.trace = trace;
  options.sideband.trace_time = trace_time;
  auto response = transport.Call(
      NodePeerName(server),
      net::Message{net::FrameType::kSubqueryRequest,
                   wire::EncodeSubqueryRequest(envelope)},
      options);
  if (!response.ok()) return response.status();
  if (response->type != net::FrameType::kSubqueryResponse) {
    return Status::Internal("unexpected frame type in subquery response: " +
                            std::string(net::FrameTypeName(response->type)));
  }
  return wire::DecodeSubqueryResponse(response->payload, span_batch);
}

Result<wire::TreeMergeResult> CallTreeMerge(
    net::Transport& transport, cluster::ServerId aggregator,
    const wire::TreeMergeEnvelope& envelope, const exec::CancelToken* cancel,
    obs::TraceContext trace, SimTime trace_time, std::string* span_batch) {
  net::CallOptions options;
  options.sideband.cancel = cancel;
  options.sideband.trace = trace;
  options.sideband.trace_time = trace_time;
  auto response = transport.Call(
      NodePeerName(aggregator),
      net::Message{net::FrameType::kTreeMergeRequest,
                   wire::EncodeTreeMergeRequest(envelope)},
      options);
  if (!response.ok()) return response.status();
  if (response->type != net::FrameType::kTreeMergeResponse) {
    return Status::Internal(
        "unexpected frame type in tree merge response: " +
        std::string(net::FrameTypeName(response->type)));
  }
  return wire::DecodeTreeMergeResponse(response->payload, span_batch);
}

Result<QueryResult> CallShuffleMap(net::Transport& transport,
                                   cluster::ServerId server,
                                   const Query& query,
                                   const QueryResult& bucket,
                                   obs::TraceContext trace,
                                   SimTime trace_time) {
  wire::ShuffleMapEnvelope envelope;
  envelope.query = query;
  envelope.bucket = bucket;

  net::CallOptions options;
  options.sideband.trace = trace;
  options.sideband.trace_time = trace_time;
  auto response = transport.Call(
      NodePeerName(server),
      net::Message{net::FrameType::kShuffleMapRequest,
                   wire::EncodeShuffleMapRequest(envelope)},
      options);
  if (!response.ok()) return response.status();
  if (response->type != net::FrameType::kShuffleMapResponse) {
    return Status::Internal(
        "unexpected frame type in shuffle map response: " +
        std::string(net::FrameTypeName(response->type)));
  }
  return wire::DecodeShuffleMapResponse(response->payload);
}

DistributedOutcome CallCoordinate(
    net::Transport& transport, cluster::ServerId coordinator,
    const Query& query, SimDuration remaining_budget,
    cache::CachePolicy cache_policy, exec::ScanPath scan_path,
    const std::string* fingerprint, SimTime dispatch_time, Rng& rng,
    obs::TraceContext trace, JoinStrategy join_strategy, int merge_fanin,
    const std::string* pool, const exec::CancelToken* cancel) {
  wire::CoordinateEnvelope envelope;
  envelope.query = query;
  envelope.cache_policy = cache_policy;
  envelope.scan_path = scan_path;
  if (fingerprint != nullptr) envelope.fingerprint = *fingerprint;
  envelope.remaining_budget = remaining_budget;
  envelope.dispatch_time = dispatch_time;
  envelope.join_strategy = join_strategy;
  envelope.merge_fanin = merge_fanin;
  if (pool != nullptr) envelope.pool_path = *pool;

  CoordinateSideband coordinate{&rng};
  net::CallOptions options;
  options.sideband.cancel = cancel;
  options.sideband.trace = trace;
  options.sideband.trace_time = dispatch_time;
  options.sideband.cookie = &coordinate;
  auto response = transport.Call(
      NodePeerName(coordinator),
      net::Message{net::FrameType::kCoordinateRequest,
                   wire::EncodeCoordinateRequest(envelope)},
      options);
  DistributedOutcome outcome;
  if (!response.ok()) {
    outcome.status = response.status();
    return outcome;
  }
  if (response->type != net::FrameType::kCoordinateResponse) {
    outcome.status =
        Status::Internal("unexpected frame type in coordinate response: " +
                         std::string(net::FrameTypeName(response->type)));
    return outcome;
  }
  auto decoded = wire::DecodeCoordinateResponse(response->payload);
  if (!decoded.ok()) {
    outcome.status = decoded.status();
    return outcome;
  }
  return std::move(decoded).value();
}

Result<std::vector<uint64_t>> CallEpochs(net::Transport& transport,
                                         cluster::RegionId region,
                                         const std::string& table,
                                         const std::vector<std::string>& dims) {
  wire::EpochProbe probe;
  probe.table = table;
  probe.dims = dims;
  auto response = transport.Call(
      RegionPeerName(region),
      net::Message{net::FrameType::kEpochRequest,
                   wire::EncodeEpochRequest(probe)});
  if (!response.ok()) return response.status();
  if (response->type != net::FrameType::kEpochResponse) {
    return Status::Internal("unexpected frame type in epoch response: " +
                            std::string(net::FrameTypeName(response->type)));
  }
  return wire::DecodeEpochResponse(response->payload);
}

}  // namespace scalewall::cubrick
