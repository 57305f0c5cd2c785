// Transport endpoints for the cubrick query path.
//
// This module binds cubrick's hop logic to scalewall::net: it names the
// peers, builds the server-side request handlers, and wraps each hop's
// encode → call → decode round-trip in a typed helper. The hops, each
// carried by a RegionContext's transport:
//
//   proxy --kCoordinateRequest--> coordinator   (SubmitInternal)
//   coordinator --kSubqueryRequest--> partition host (FanOutChunks)
//   coordinator --kTreeMergeRequest--> aggregator    (FanOutChunks)
//   coordinator --kShuffleMapRequest--> dim host     (shuffle stage 2)
//   proxy --kEpochRequest--> region             (merged-cache validation)
//
// The subquery and tree-merge hops have one client, FanOutChunks: the
// coordinator (in a Deployment or a node proxy) and every tree
// aggregator run it.
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

#include <functional>
#include <string>
#include <string_view>
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

// A fan-out's caller hooks; each runs on the calling thread.
struct ChunkHooks {
  // Optional: sets chunk [lo, hi)'s trace just before it is sent — its
  // side-band span (sim) or its telemetry block (sockets).
  std::function<void(size_t lo, size_t hi, net::CallSideband* sideband,
                     std::string* telemetry)>
      trace;
  // Optional: computes a chunk whose first leaf `local_host` hosts
  // in-process instead of sending it, folding it itself.
  std::function<Status(size_t lo, size_t hi)> local;
  cluster::ServerId local_host = cluster::kInvalidServer;
  // Receives each sent chunk's reply (a leaf's is one entry wide) and
  // span batch, or why it has none; a non-OK return stops the fan-out.
  std::function<Status(size_t lo, size_t hi,
                       Result<wire::TreeMergeResult> reply,
                       std::string_view span_batch)>
      fold;
};

// Fans leaves [lo, hi) of `base` out in contiguous chunks of
// TreeChunkSize(hi - lo, base.fanin) leaves (one when fanin < 2), chunk
// [a, b) to base.servers[a]: one leaf as a kSubqueryRequest, more as a
// kTreeMergeRequest. A chunk folds once every earlier one has; a local
// one computes at that turn, and the sends after it wait for it, while
// every other chunk is in flight at once. So an inline transport (the
// sim) runs send c, fold c, send c + 1.
// Returns the first hook error; nothing more is sent after it. A null
// `transport` fails every chunk it would send.
Status FanOutChunks(net::Transport* transport,
                    const wire::TreeMergeEnvelope& base, size_t lo, size_t hi,
                    const net::CallOptions& options, const ChunkHooks& hooks);

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
    cache::CachePolicy cache_policy, const std::string* fingerprint,
    SimTime dispatch_time, Rng& rng, obs::TraceContext trace,
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
