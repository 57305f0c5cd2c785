// Wire codecs for cubrick structures (scalewall::net payloads).
//
// scalewall_net owns the frame layout and the primitive field encoders
// (net/wire.h) but sits *below* cubrick in the dependency order, so the
// codecs for cubrick's own types — Query, QueryResult, PartialResult,
// the per-hop request/response envelopes — live here, built on
// net::WireWriter / net::WireReader.
//
// Encoding invariants:
//  * Every codec is lossless for the fields it carries. QueryResult
//    travels column-wise (arity once, the ascending key column, then a
//    column per AggState field, doubles as IEEE-754 bit patterns), and
//    the decoder appends it as one run via QueryResult::AppendRun, which
//    reproduces each state bit-for-bit. So a fan-out over the wire is
//    byte-identical to merging the in-memory partials.
//  * Deadlines cross the wire as *remaining budget* (microseconds),
//    computed at serialization time: the request envelopes zero
//    Query::deadline and carry `deadline_budget_micros` beside it, so
//    an absolute deadline from one clock domain can never extend (or
//    truncate) the budget in another.
//  * Decoders validate with WireReader poisoning plus an exhausted()
//    check: short, oversized and trailing-garbage payloads all fail
//    with kInvalidArgument instead of misdecoding.
//  * Telemetry rides as *opaque* length-prefixed blocks (net/telemetry.h)
//    appended to the envelopes: requests may carry a trace-context
//    block, responses a span batch. The blocks version themselves
//    independently of the payload shape, and their decode failures
//    never fail the enclosing request — the caller drops the block and
//    bumps scalewall_net_decode_errors_total instead.

#ifndef SCALEWALL_CUBRICK_WIRE_H_
#define SCALEWALL_CUBRICK_WIRE_H_

#include <string>
#include <vector>

#include "cubrick/coordinator.h"
#include "cubrick/query.h"
#include "cubrick/request.h"
#include "cubrick/server.h"
#include "net/wire.h"

namespace scalewall::cubrick::wire {

// --- core structures (faithful round-trips) ---

void EncodeQuery(net::WireWriter& w, const Query& query);
Result<Query> DecodeQuery(net::WireReader& r);

void EncodeQueryResult(net::WireWriter& w, const QueryResult& result);
Result<QueryResult> DecodeQueryResult(net::WireReader& r);

void EncodeResultRows(net::WireWriter& w, const std::vector<ResultRow>& rows);
Result<std::vector<ResultRow>> DecodeResultRows(net::WireReader& r);

// Full dimension-table snapshot: name, key domain, attribute schema,
// content epoch, entry count and the raw columns. This is what a
// broadcast join ships — the receiving server joins against the
// snapshot instead of its local replica, so a region that never
// provisioned the dim can still execute the plan.
void EncodeReplicatedTable(net::WireWriter& w, const ReplicatedTable& table);
Result<ReplicatedTable> DecodeReplicatedTable(net::WireReader& r);

// --- hop envelopes ---

// coordinator -> partition host. `remaining_budget` (microseconds of
// budget left at serialization time, 0 = unlimited) travels beside the
// query; the query's own absolute deadline is zeroed in the envelope.
struct SubqueryEnvelope {
  Query query;
  uint32_t partition = 0;
  cache::CachePolicy cache_policy = cache::CachePolicy::kDefault;
  std::string fingerprint;  // "" = none precomputed
  SimDuration remaining_budget = 0;
  // Normalized pool path of the admitted claim ("" = unclaimed): the
  // server charges this subquery's scan work to it.
  std::string pool_path;
  // Broadcast-join dim snapshots, one per Query::joins entry (empty =
  // join against the server's local replicas, the replicated path).
  std::vector<ReplicatedTable> dims;
  // Opaque trace-context block (net::EncodeTraceContext); "" = untraced.
  std::string telemetry;
};
std::string EncodeSubqueryRequest(const SubqueryEnvelope& envelope);
Result<SubqueryEnvelope> DecodeSubqueryRequest(std::string_view payload);

// Successful response: the partial. Failures travel as kError frames.
// `telemetry` is an opaque span-batch block (net::EncodeSpanBatch);
// on decode it is returned raw through the out-param ("" = none) so the
// caller controls how a malformed block is counted and dropped.
std::string EncodeSubqueryResponse(const PartialResult& partial,
                                   std::string_view telemetry = {});
Result<PartialResult> DecodeSubqueryResponse(std::string_view payload,
                                             std::string* telemetry = nullptr);

// coordinator -> aggregator server: merge a subtree of partition
// partials. `partitions`/`servers` are parallel arrays — the
// coordinator's already-resolved assignments, shipped so aggregators
// never re-resolve (a divergent discovery view cannot split the tree).
// The aggregator recursively chunks its range by `fanin`, executes
// local leaves directly, forwards remote leaves as subqueries and
// sub-chunks as nested tree merges, then folds everything in ascending
// partition order — the same fixed order a flat merge uses, which is
// what keeps tree and flat results byte-identical (DESIGN.md §15).
struct TreeMergeEnvelope {
  Query query;
  std::vector<uint32_t> partitions;       // ascending partition ids
  std::vector<uint32_t> servers;          // resolved host per partition
  int fanin = 2;                          // k of the k-ary tree
  cache::CachePolicy cache_policy = cache::CachePolicy::kDefault;
  std::string fingerprint;  // "" = none precomputed
  SimDuration remaining_budget = 0;
  // Normalized pool path of the admitted claim, forwarded to every leaf
  // subquery in the subtree ("" = unclaimed).
  std::string pool_path;
  // Broadcast-join dim snapshots, forwarded down the tree to the leaf
  // subqueries (empty = replicated/shuffle strategies).
  std::vector<ReplicatedTable> dims;
  // Opaque trace-context block (net::EncodeTraceContext); "" = untraced.
  std::string telemetry;
};
std::string EncodeTreeMergeRequest(const TreeMergeEnvelope& envelope);
Result<TreeMergeEnvelope> DecodeTreeMergeRequest(std::string_view payload);

// The subtree's merged partial plus per-leaf metadata aligned with the
// request's `partitions`: freshness epochs and forwarding-hop counts
// (the coordinator's timing model charges each leaf's forward hops).
struct TreeMergeResult {
  QueryResult result;
  std::vector<uint64_t> epochs;
  std::vector<int> forward_hops;
};
std::string EncodeTreeMergeResponse(const TreeMergeResult& merged,
                                    std::string_view telemetry = {});
Result<TreeMergeResult> DecodeTreeMergeResponse(
    std::string_view payload, std::string* telemetry = nullptr);

// coordinator -> dim-replica host: stage 2 of a shuffle join. `bucket`
// holds groups keyed by [plain dims..., raw join keys...]; the handler
// maps the raw keys through its local dim replicas (join filters and
// attribute grouping applied there) and returns the joined groups.
struct ShuffleMapEnvelope {
  Query query;  // the ORIGINAL join query (joins drive the mapping)
  QueryResult bucket;
  // Opaque trace-context block (net::EncodeTraceContext); "" = untraced.
  std::string telemetry;
};
std::string EncodeShuffleMapRequest(const ShuffleMapEnvelope& envelope);
Result<ShuffleMapEnvelope> DecodeShuffleMapRequest(std::string_view payload);
std::string EncodeShuffleMapResponse(const QueryResult& mapped,
                                     std::string_view telemetry = {});
Result<QueryResult> DecodeShuffleMapResponse(std::string_view payload,
                                             std::string* telemetry = nullptr);

// proxy -> coordinator: run the whole in-region distributed attempt.
// `join_strategy` / `merge_fanin` forward the client's plan hints; the
// receiving coordinator re-plans with them (costs come from *its*
// transport stats, the ones that matter for its fan-out).
struct CoordinateEnvelope {
  Query query;
  cache::CachePolicy cache_policy = cache::CachePolicy::kDefault;
  std::string fingerprint;
  SimDuration remaining_budget = 0;  // micros left, 0 = unlimited
  SimTime dispatch_time = -1;        // sim-time anchor for spans
  JoinStrategy join_strategy = JoinStrategy::kAuto;
  int merge_fanin = 0;  // 0 = planner's choice
  // Normalized pool path of the admitted claim ("" = unclaimed); the
  // coordinator stamps it on every subquery it fans out.
  std::string pool_path;
  // Opaque trace-context block (net::EncodeTraceContext); "" = untraced.
  std::string telemetry;
};
std::string EncodeCoordinateRequest(const CoordinateEnvelope& envelope);
Result<CoordinateEnvelope> DecodeCoordinateRequest(std::string_view payload);

// The full DistributedOutcome round-trips (status included): a failed
// attempt still carries latency, counters and the failed server, which
// the proxy's retry/blacklist logic consumes. `telemetry` is an opaque
// span-batch block, as on the subquery response.
std::string EncodeCoordinateResponse(const DistributedOutcome& outcome,
                                     std::string_view telemetry = {});
Result<DistributedOutcome> DecodeCoordinateResponse(
    std::string_view payload, std::string* telemetry = nullptr);

// proxy -> region: collect partition epochs (merged-cache validation).
// `dims` names the joined dimension tables (one per join, duplicates
// preserved) whose epochs are appended after the partition epochs —
// the layout DistributedOutcome reports, so a cached join result
// validates against the exact vector it was stored with.
struct EpochProbe {
  std::string table;
  std::vector<std::string> dims;
};
std::string EncodeEpochRequest(const EpochProbe& probe);
Result<EpochProbe> DecodeEpochRequest(std::string_view payload);
std::string EncodeEpochResponse(const std::vector<uint64_t>& epochs);
Result<std::vector<uint64_t>> DecodeEpochResponse(std::string_view payload);

// client -> node proxy: a full QueryRequest (the one envelope where the
// absolute deadline survives — the node proxy is the budget's origin).
std::string EncodeClientQuery(const QueryRequest& request);
Result<QueryRequest> DecodeClientQuery(std::string_view payload);

// node proxy -> client: materialized rows plus result metadata. When
// the request opted in (QueryRequest::profile / tracing), the proxy
// also ships its rendered per-query profile and stitched span tree —
// text, not structures: the client displays them, it never re-derives.
struct ClientRowsEnvelope {
  std::vector<ResultRow> rows;
  cluster::RegionId region = 0;
  int attempts = 0;
  int fanout = 0;
  SimDuration latency = 0;
  std::string profile_text;  // "" unless QueryRequest::profile
  std::string trace_text;    // "" unless QueryRequest::profile
};
std::string EncodeClientRows(const ClientRowsEnvelope& envelope);
Result<ClientRowsEnvelope> DecodeClientRows(std::string_view payload);

}  // namespace scalewall::cubrick::wire

#endif  // SCALEWALL_CUBRICK_WIRE_H_
