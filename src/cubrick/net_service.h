// Transport endpoints for the cubrick query path.
//
// This module binds cubrick's hop logic to scalewall::net: it names the
// peers, builds the server-side request handlers, and wraps each hop's
// encode → Call → decode round-trip in a typed helper. The hops, each
// carried by a RegionContext's transport:
//
//   proxy --kCoordinateRequest--> coordinator   (SubmitInternal)
//   coordinator --kSubqueryRequest--> partition host (ExecuteDistributed)
//   coordinator --kTreeMergeRequest--> aggregator    (tree-merge plans)
//   coordinator --kShuffleMapRequest--> dim host     (shuffle stage 2)
//   proxy --kEpochRequest--> region             (merged-cache validation)
//
// Under the sim backend these calls complete inline on the simulated
// clock and are deterministic: the wire codecs are lossless, partials
// merge in ascending-partition order, and the only RNG involved is the
// caller's own stream, passed through the in-process side-band (it has
// no wire form — draw order is what defines an experiment's
// reproducibility). Over real sockets the same frames flow between
// scalewall_node processes.

#ifndef SCALEWALL_CUBRICK_NET_SERVICE_H_
#define SCALEWALL_CUBRICK_NET_SERVICE_H_

#include <string>
#include <vector>

#include "cubrick/coordinator.h"
#include "cubrick/server.h"
#include "cubrick/wire.h"
#include "net/telemetry.h"
#include "net/transport.h"

namespace scalewall::cubrick {

// Logical peer names: transports address endpoints by these; the epoll
// backend additionally maps them to socket addresses (MapPeer).
std::string NodePeerName(cluster::ServerId server);    // "s<id>"
std::string RegionPeerName(cluster::RegionId region);  // "r<id>"

// In-process side-band for coordinate calls (sim backend only): the
// proxy's RNG stream, which the coordinator's failure/latency draws
// consume in proxy order, so one seed fixes a run. Carried via
// CallSideband::cookie — it has no wire representation by design.
struct CoordinateSideband {
  Rng* rng = nullptr;
};

// Handler for one server's node endpoint. Serves kSubqueryRequest
// (ExecutePartial on `server`), kTreeMergeRequest (recursive subtree
// merge with `server_id` as the aggregator), kShuffleMapRequest
// (stage 2 of a shuffle join against the server's dim replicas),
// kCoordinateRequest (plan + ExecuteDistributed with `server_id` as the
// coordinator; requires the in-process RNG side-band) and
// kEpochRequest. `ctx` must outlive the handler. The last two need a
// whole region (catalog, cluster, discovery); a context carrying only a
// transport for tree-leaf forwarding — a scalewall_node server — answers
// them kFailedPrecondition. `decode_errors` (optional) counts malformed
// trace-context blocks, which are dropped while the request still runs.
net::Handler MakeServerNodeHandler(
    CubrickServer* server, cluster::ServerId server_id, RegionContext* ctx,
    net::TelemetryDecodeCounters* decode_errors = nullptr);

// Handler for a region's metadata endpoint: kEpochRequest only.
net::Handler MakeRegionNodeHandler(RegionContext* ctx);

// --- typed call wrappers (client side of each hop) ---

// `dims` (optional) ships broadcast-join dimension snapshots with the
// subquery; nullptr = the replicated path (servers use local replicas).
// `pool` (optional) is the admitted claim's normalized pool path; the
// remote server charges the subquery's scan work to it. `telemetry`
// (optional) is a trace-context block to send; `span_batch` (optional)
// receives the response's span batch.
Result<PartialResult> CallSubquery(
    net::Transport& transport, cluster::ServerId server, const Query& query,
    uint32_t partition, SimDuration remaining_budget,
    cache::CachePolicy cache_policy, exec::ScanPath scan_path,
    const std::string* fingerprint, const exec::CancelToken* cancel,
    obs::TraceContext trace, SimTime trace_time,
    const std::vector<ReplicatedTable>* dims = nullptr,
    const std::string* pool = nullptr, const std::string* telemetry = nullptr,
    std::string* span_batch = nullptr);

// Dispatches one subtree of a tree-merge plan to its aggregator, which
// recursively executes/forwards the leaves and folds them in ascending
// partition order before responding with a single merged partial.
// `span_batch` (optional) receives the response's span batch.
Result<wire::TreeMergeResult> CallTreeMerge(
    net::Transport& transport, cluster::ServerId aggregator,
    const wire::TreeMergeEnvelope& envelope, const exec::CancelToken* cancel,
    obs::TraceContext trace, SimTime trace_time,
    std::string* span_batch = nullptr);

// Ships one shuffle stage-1 bucket to a dim-replica host for key →
// attribute mapping (stage 2); returns the joined groups.
Result<QueryResult> CallShuffleMap(net::Transport& transport,
                                   cluster::ServerId server,
                                   const Query& query,
                                   const QueryResult& bucket,
                                   obs::TraceContext trace,
                                   SimTime trace_time);

// `join_strategy` / `merge_fanin` forward the client's plan hints; the
// receiving coordinator re-plans with them against its own stats.
// `pool` (optional) is the admitted claim's normalized pool path,
// stamped on every subquery the remote coordinator fans out. `cancel`
// (optional) is the query-level cancellation token (admission
// preemption); it rides the in-process side-band, not the wire.
DistributedOutcome CallCoordinate(
    net::Transport& transport, cluster::ServerId coordinator,
    const Query& query, SimDuration remaining_budget,
    cache::CachePolicy cache_policy, exec::ScanPath scan_path,
    const std::string* fingerprint, SimTime dispatch_time, Rng& rng,
    obs::TraceContext trace,
    JoinStrategy join_strategy = JoinStrategy::kAuto, int merge_fanin = 0,
    const std::string* pool = nullptr,
    const exec::CancelToken* cancel = nullptr);

// `dims` appends the named dimension tables' epochs after the partition
// epochs (merged-cache validation of join results).
Result<std::vector<uint64_t>> CallEpochs(
    net::Transport& transport, cluster::RegionId region,
    const std::string& table, const std::vector<std::string>& dims = {});

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_NET_SERVICE_H_
