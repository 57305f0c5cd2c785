#include "cubrick/net_service.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
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

  // Traces the hops this request forwards to peers. A batching request
  // passes no side-band trace and asks each peer for a span batch over
  // the wire instead, which Graft stitches under this request's span —
  // so the stitched tree is the same on every transport.
  void Forward(net::CallSideband* sideband, std::string* telemetry) const {
    sideband->trace = batching ? obs::TraceContext{} : trace;
    sideband->trace_time = trace_time;
    *telemetry = batching ? net::EncodeTraceContext(
                                {.want_spans = true, .trace_id = trace.trace,
                                 .span_id = trace.span, .origin = "aggregator"})
                          : "";
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

// Runs leaf `partition` of a subquery or tree-merge envelope on this
// server. Broadcast-join plans ship dim snapshots in the envelope; the
// scan joins against those instead of the server's resident replicas.
template <typename Envelope>
Result<PartialResult> ExecuteLeaf(const ServerEndpoint& ep,
                                  const Envelope& envelope, uint32_t partition,
                                  const RequestTrace& rtrace,
                                  const exec::CancelToken* cancel) {
  JoinContext snapshots;
  for (const ReplicatedTable& dim : envelope.dims) {
    snapshots.tables.push_back(&dim);
  }
  const auto given = [](const std::string& s) {
    return s.empty() ? nullptr : &s;
  };
  return ep.server->ExecutePartial(
      envelope.query, partition, /*hop_budget=*/-1, cancel, rtrace.trace,
      rtrace.trace_time, envelope.cache_policy, given(envelope.fingerprint),
      envelope.dims.empty() ? nullptr : &snapshots, given(envelope.pool_path));
}

Result<net::Message> HandleSubquery(const ServerEndpoint& ep,
                                    const net::Message& request,
                                    const net::CallSideband& sideband) {
  auto envelope = wire::DecodeSubqueryRequest(request.payload);
  if (!envelope.ok()) return envelope.status();
  RequestTrace rtrace(envelope->telemetry,
                      "host " + NodePeerName(ep.server_id), sideband,
                      ep.decode_errors);
  auto partial = ExecuteLeaf(ep, *envelope, envelope->partition, rtrace,
                             sideband.cancel);
  if (!partial.ok()) return partial.status();
  return net::Message{
      net::FrameType::kSubqueryResponse,
      wire::EncodeSubqueryResponse(*partial, rtrace.Finish())};
}

Result<net::Message> HandleTreeMerge(const ServerEndpoint& ep,
                                     const net::Message& request,
                                     const net::CallSideband& sideband) {
  auto envelope = wire::DecodeTreeMergeRequest(request.payload);
  if (!envelope.ok()) return envelope.status();
  const size_t num_leaves = envelope->partitions.size();
  RequestTrace rtrace(envelope->telemetry,
                      "aggregator " + NodePeerName(ep.server_id), sideband,
                      ep.decode_errors);

  wire::TreeMergeResult merged;
  merged.result = QueryResult(envelope->query.aggregations.size());
  merged.epochs.assign(num_leaves, 0);
  merged.forward_hops.assign(num_leaves, 0);

  net::CallOptions forward;
  forward.sideband.cancel = sideband.cancel;
  net::Transport* transport = ep.ctx != nullptr ? ep.ctx->transport : nullptr;

  ChunkHooks hooks;
  hooks.trace = [&rtrace](size_t, size_t, net::CallSideband* hop,
                          std::string* telemetry) {
    rtrace.Forward(hop, telemetry);
  };
  hooks.fold = [&](size_t lo, size_t hi, Result<wire::TreeMergeResult> reply,
                   std::string_view span_batch) -> Status {
    if (!reply.ok()) return reply.status();
    rtrace.Graft(span_batch);
    for (size_t i = lo; i < hi; ++i) {
      merged.epochs[i] = reply->epochs[i - lo];
      merged.forward_hops[i] = reply->forward_hops[i - lo];
    }
    merged.result.Merge(reply->result);
    return Status::Ok();
  };
  // A chunk this server hosts runs here: a leaf as a local partial, a
  // subtree by recursing, so the tree's shape and fold order match the
  // coordinator's model.
  hooks.local_host = ep.server_id;
  hooks.local = [&](size_t lo, size_t hi) -> Status {
    if (hi - lo > 1) {
      return FanOutChunks(transport, *envelope, lo, hi, forward, hooks);
    }
    auto partial = ExecuteLeaf(ep, *envelope, envelope->partitions[lo],
                               rtrace, sideband.cancel);
    if (!partial.ok()) return partial.status();
    return hooks.fold(lo, hi,
                      wire::TreeMergeResult{std::move(partial->result),
                                            {partial->epoch},
                                            {partial->forward_hops}},
                      {});
  };
  SCALEWALL_RETURN_IF_ERROR(
      FanOutChunks(transport, *envelope, 0, num_leaves, forward, hooks));
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

Status FanOutChunks(net::Transport* transport,
                    const wire::TreeMergeEnvelope& base, size_t lo, size_t hi,
                    const net::CallOptions& options, const ChunkHooks& hooks) {
  if (lo >= hi) return Status::Ok();  // nothing to send; width would be 0
  const size_t width =
      base.fanin < 2 ? 1
                     : static_cast<size_t>(TreeChunkSize(
                           static_cast<int>(hi - lo), base.fanin));
  const size_t num_chunks = (hi - lo + width - 1) / width;
  const auto first = [&](size_t c) { return lo + c * width; };
  const auto last = [&](size_t c) { return std::min(hi, first(c) + width); };
  const auto local = [&](size_t c) {
    return hooks.local && base.servers[first(c)] == hooks.local_host;
  };
  // Replies land here, possibly on the transport's loop thread and
  // after an early return: the completions share ownership of this
  // state and touch nothing else.
  struct Replies {
    std::mutex mu;
    std::condition_variable landed;
    std::vector<std::optional<Result<net::Message>>> slots;
  };
  auto replies = std::make_shared<Replies>();
  replies->slots.resize(num_chunks);

  const auto send = [&](size_t c) {
    const auto deliver = [replies, c](Result<net::Message> response) {
      std::lock_guard<std::mutex> lock(replies->mu);
      replies->slots[c] = std::move(response);
      replies->landed.notify_all();
    };
    if (transport == nullptr) {
      return deliver(
          Status::FailedPrecondition("forwarding a chunk needs a transport"));
    }
    const size_t a = first(c);
    const size_t b = last(c);
    net::CallOptions call = options;
    std::string telemetry = base.telemetry;
    if (hooks.trace) hooks.trace(a, b, &call.sideband, &telemetry);
    const auto fill = [&](auto& envelope) {
      envelope.query = base.query;
      envelope.cache_policy = base.cache_policy;
      envelope.fingerprint = base.fingerprint;
      envelope.remaining_budget = base.remaining_budget;
      envelope.pool_path = base.pool_path;
      envelope.dims = base.dims;
      envelope.telemetry = std::move(telemetry);
    };
    net::Message request;
    if (b - a == 1) {
      wire::SubqueryEnvelope leaf;
      fill(leaf);
      leaf.partition = base.partitions[a];
      request = {net::FrameType::kSubqueryRequest,
                 wire::EncodeSubqueryRequest(leaf)};
    } else {
      wire::TreeMergeEnvelope subtree;
      fill(subtree);
      subtree.partitions.assign(base.partitions.begin() + a,
                                base.partitions.begin() + b);
      subtree.servers.assign(base.servers.begin() + a,
                             base.servers.begin() + b);
      subtree.fanin = base.fanin;
      request = {net::FrameType::kTreeMergeRequest,
                 wire::EncodeTreeMergeRequest(subtree)};
    }
    transport->CallAsync(NodePeerName(base.servers[a]), std::move(request),
                         call, deliver);
  };

  // Every reply takes the subtree shape; a leaf's is one entry wide.
  const auto decode = [](Result<net::Message> response, size_t leaves,
                         std::string* batch) -> Result<wire::TreeMergeResult> {
    if (!response.ok()) return response.status();
    SCALEWALL_RETURN_IF_ERROR(net::ExpectFrame(
        *response, leaves == 1 ? net::FrameType::kSubqueryResponse
                               : net::FrameType::kTreeMergeResponse));
    if (leaves == 1) {
      auto partial = wire::DecodeSubqueryResponse(response->payload, batch);
      if (!partial.ok()) return partial.status();
      return wire::TreeMergeResult{std::move(partial->result),
                                   {partial->epoch},
                                   {partial->forward_hops}};
    }
    auto subtree = wire::DecodeTreeMergeResponse(response->payload, batch);
    if (subtree.ok() && (subtree->epochs.size() != leaves ||
                         subtree->forward_hops.size() != leaves)) {
      return Status::Internal("tree merge response misaligned with request");
    }
    return subtree;
  };

  // Folds each chunk before `limit` whose turn has come, in order: a
  // local one now, a sent one once its reply lands (waited for if `wait`).
  size_t folded = 0;
  const auto fold_ready = [&](size_t limit, bool wait) -> Status {
    for (; folded < limit; ++folded) {
      const size_t c = folded;
      if (local(c)) {
        SCALEWALL_RETURN_IF_ERROR(hooks.local(first(c), last(c)));
        continue;
      }
      std::unique_lock<std::mutex> lock(replies->mu);
      if (!wait && !replies->slots[c].has_value()) return Status::Ok();
      replies->landed.wait(lock, [&] { return replies->slots[c].has_value(); });
      Result<net::Message> response = std::move(*replies->slots[c]);
      lock.unlock();
      std::string span_batch;
      auto reply = decode(std::move(response), last(c) - first(c), &span_batch);
      SCALEWALL_RETURN_IF_ERROR(
          hooks.fold(first(c), last(c), std::move(reply), span_batch));
    }
    return Status::Ok();
  };
  for (size_t c = 0; c < num_chunks; ++c) {
    if (!local(c)) send(c);
    SCALEWALL_RETURN_IF_ERROR(fold_ready(c + 1, /*wait=*/false));
  }
  return fold_ready(num_chunks, /*wait=*/true);
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
  SCALEWALL_RETURN_IF_ERROR(
      net::ExpectFrame(*response, net::FrameType::kShuffleMapResponse));
  return wire::DecodeShuffleMapResponse(response->payload);
}

DistributedOutcome CallCoordinate(
    net::Transport& transport, cluster::ServerId coordinator,
    const Query& query, SimDuration remaining_budget,
    cache::CachePolicy cache_policy, const std::string* fingerprint,
    SimTime dispatch_time, Rng& rng, obs::TraceContext trace,
    JoinStrategy join_strategy, int merge_fanin, const std::string* pool,
    const exec::CancelToken* cancel) {
  wire::CoordinateEnvelope envelope;
  envelope.query = query;
  envelope.cache_policy = cache_policy;
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
  Status status =
      response.ok()
          ? net::ExpectFrame(*response, net::FrameType::kCoordinateResponse)
          : response.status();
  if (status.ok()) {
    auto decoded = wire::DecodeCoordinateResponse(response->payload);
    if (decoded.ok()) return std::move(decoded).value();
    status = decoded.status();
  }
  DistributedOutcome outcome;
  outcome.status = std::move(status);
  return outcome;
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
  SCALEWALL_RETURN_IF_ERROR(
      net::ExpectFrame(*response, net::FrameType::kEpochResponse));
  return wire::DecodeEpochResponse(response->payload);
}

}  // namespace scalewall::cubrick
