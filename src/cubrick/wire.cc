#include "cubrick/wire.h"

#include <algorithm>
#include <utility>

namespace scalewall::cubrick::wire {

namespace {

// Vectors of int (dimension/join indices) travel as u32-count + i32s.
void EncodeIntVec(net::WireWriter& w, const std::vector<int>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (int x : v) w.I32(x);
}

std::vector<int> DecodeIntVec(net::WireReader& r) {
  const uint32_t n = r.U32();
  if (!r.CheckCount(n, 4)) return {};
  std::vector<int> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) v.push_back(r.I32());
  return v;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed wire payload: ") +
                                 what);
}

// Finishes a fixed-shape decode: the payload must be fully consumed.
Status CheckExhausted(const net::WireReader& r, const char* what) {
  if (!r.ok()) return Malformed(what);
  if (!r.exhausted()) {
    return Status::InvalidArgument(std::string("trailing garbage after ") +
                                   what);
  }
  return Status::Ok();
}

}  // namespace

void EncodeQuery(net::WireWriter& w, const Query& query) {
  w.Str(query.table);
  w.U32(static_cast<uint32_t>(query.filters.size()));
  for (const FilterRange& f : query.filters) {
    w.I32(f.dimension);
    w.U32(f.lo);
    w.U32(f.hi);
  }
  w.U32(static_cast<uint32_t>(query.in_filters.size()));
  for (const FilterIn& f : query.in_filters) {
    w.I32(f.dimension);
    w.U32Vec(f.values);
  }
  EncodeIntVec(w, query.group_by);
  w.U32(static_cast<uint32_t>(query.joins.size()));
  for (const Join& j : query.joins) {
    w.I32(j.fact_dimension);
    w.Str(j.dimension_table);
    w.I32(j.attribute);
  }
  EncodeIntVec(w, query.group_by_joins);
  w.U32(static_cast<uint32_t>(query.join_filters.size()));
  for (const JoinFilter& f : query.join_filters) {
    w.I32(f.join);
    w.U32(f.lo);
    w.U32(f.hi);
  }
  w.U32(static_cast<uint32_t>(query.aggregations.size()));
  for (const Aggregation& a : query.aggregations) {
    w.I32(a.metric);
    w.U8(static_cast<uint8_t>(a.op));
  }
  w.I32(query.order_by);
  w.Bool(query.descending);
  w.U32(query.limit);
  w.I64(query.deadline);
}

Result<Query> DecodeQuery(net::WireReader& r) {
  Query query;
  query.table = r.Str();
  uint32_t n = r.U32();
  if (!r.CheckCount(n, 12)) return Malformed("query filters");
  query.filters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    FilterRange f;
    f.dimension = r.I32();
    f.lo = r.U32();
    f.hi = r.U32();
    query.filters.push_back(f);
  }
  n = r.U32();
  if (!r.CheckCount(n, 8)) return Malformed("query in_filters");
  query.in_filters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    FilterIn f;
    f.dimension = r.I32();
    f.values = r.U32Vec();
    query.in_filters.push_back(std::move(f));
  }
  query.group_by = DecodeIntVec(r);
  n = r.U32();
  if (!r.CheckCount(n, 12)) return Malformed("query joins");
  query.joins.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Join j;
    j.fact_dimension = r.I32();
    j.dimension_table = r.Str();
    j.attribute = r.I32();
    query.joins.push_back(std::move(j));
  }
  query.group_by_joins = DecodeIntVec(r);
  n = r.U32();
  if (!r.CheckCount(n, 12)) return Malformed("query join_filters");
  query.join_filters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    JoinFilter f;
    f.join = r.I32();
    f.lo = r.U32();
    f.hi = r.U32();
    query.join_filters.push_back(f);
  }
  n = r.U32();
  if (!r.CheckCount(n, 5)) return Malformed("query aggregations");
  query.aggregations.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Aggregation a;
    a.metric = r.I32();
    a.op = static_cast<AggOp>(r.U8());
    query.aggregations.push_back(a);
  }
  query.order_by = r.I32();
  query.descending = r.Bool();
  query.limit = r.U32();
  query.deadline = r.I64();
  if (!r.ok()) return Malformed("query");
  return query;
}

void EncodeQueryResult(net::WireWriter& w, const QueryResult& result) {
  w.U32(static_cast<uint32_t>(result.num_aggregations()));
  w.I64(result.rows_scanned);
  w.I64(result.bricks_scanned);
  w.I64(result.bricks_pruned);
  w.I64(result.bricks_rle_skipped);
  // Compacted: ascending keys, bytes a function of the folded groups.
  const std::span<const AggState> states = result.states();
  w.U32(static_cast<uint32_t>(result.num_groups()));
  w.U32(static_cast<uint32_t>(result.key_arity()));
  w.U32Vec(result.keys());
  w.U32(static_cast<uint32_t>(result.num_aggregations()));
  for (const AggState& s : states) w.F64(s.sum);
  for (const AggState& s : states) w.I64(s.count);
  for (const AggState& s : states) w.F64(s.min);
  for (const AggState& s : states) w.F64(s.max);
}

Result<QueryResult> DecodeQueryResult(net::WireReader& r) {
  const uint32_t num_aggs = r.U32();
  QueryResult result(num_aggs);
  result.rows_scanned = r.I64();
  result.bricks_scanned = r.I64();
  result.bricks_pruned = r.I64();
  result.bricks_rle_skipped = r.I64();
  const uint32_t num_groups = r.U32();
  const uint32_t arity = r.U32();
  const std::vector<uint32_t> keys = r.U32Vec();
  // One arity for every key: the column holds groups x arity values.
  if (keys.size() != uint64_t{num_groups} * arity) {
    return Malformed("result key arity");
  }
  // The merge relies on every run being strictly ascending.
  for (uint32_t g = 1; g < num_groups; ++g) {
    const uint32_t* prev = keys.data() + (g - 1) * size_t{arity};
    if (!std::lexicographical_compare(prev, prev + arity, prev + arity,
                                      prev + 2 * size_t{arity})) {
      return Malformed("result key order");
    }
  }
  // Every group carries one state per aggregation; holding the count to
  // the payload bounds the allocation.
  const uint64_t num_states = uint64_t{num_groups} * num_aggs;
  if (r.U32() != num_aggs || num_states > r.remaining() / 32) {
    return Malformed("result states");
  }
  std::vector<AggState> states(num_states);
  for (AggState& s : states) s.sum = r.F64();
  for (AggState& s : states) s.count = r.I64();
  for (AggState& s : states) s.min = r.F64();
  for (AggState& s : states) s.max = r.F64();
  if (!r.ok()) return Malformed("query result");
  result.AppendRun(num_groups, keys, states);
  return result;
}

void EncodeResultRows(net::WireWriter& w, const std::vector<ResultRow>& rows) {
  w.U32(static_cast<uint32_t>(rows.size()));
  for (const ResultRow& row : rows) {
    w.U32Vec(row.key);
    w.F64Vec(row.values);
  }
}

Result<std::vector<ResultRow>> DecodeResultRows(net::WireReader& r) {
  const uint32_t n = r.U32();
  if (!r.CheckCount(n, 8)) return Malformed("result rows");
  std::vector<ResultRow> rows;
  rows.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ResultRow row;
    row.key = r.U32Vec();
    row.values = r.F64Vec();
    rows.push_back(std::move(row));
  }
  if (!r.ok()) return Malformed("result rows");
  return rows;
}

void EncodeReplicatedTable(net::WireWriter& w, const ReplicatedTable& table) {
  w.Str(table.name());
  w.U32(table.key_cardinality());
  w.U32(static_cast<uint32_t>(table.attributes().size()));
  for (const Dimension& attr : table.attributes()) {
    w.Str(attr.name);
    w.U32(attr.cardinality);
    w.U32(attr.range_size);
  }
  w.U64(table.epoch());
  w.U64(table.num_entries());
  // Columns are implicitly attributes.size() x key_cardinality, so no
  // counts: just the raw codes (kNoAttribute where unset).
  for (size_t a = 0; a < table.attributes().size(); ++a) {
    const uint32_t* column = table.column_data(static_cast<int>(a));
    for (uint32_t k = 0; k < table.key_cardinality(); ++k) {
      w.U32(column[k]);
    }
  }
}

Result<ReplicatedTable> DecodeReplicatedTable(net::WireReader& r) {
  std::string name = r.Str();
  const uint32_t key_cardinality = r.U32();
  const uint32_t num_attrs = r.U32();
  if (!r.CheckCount(num_attrs, 9)) return Malformed("dim attributes");
  std::vector<Dimension> attrs;
  attrs.reserve(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    Dimension attr;
    attr.name = r.Str();
    attr.cardinality = r.U32();
    attr.range_size = r.U32();
    attrs.push_back(std::move(attr));
  }
  const uint64_t epoch = r.U64();
  const uint64_t num_entries = r.U64();
  std::vector<std::vector<uint32_t>> columns;
  columns.reserve(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    if (!r.CheckCount(key_cardinality, 4)) return Malformed("dim column");
    std::vector<uint32_t> column;
    column.reserve(key_cardinality);
    for (uint32_t k = 0; k < key_cardinality; ++k) column.push_back(r.U32());
    columns.push_back(std::move(column));
  }
  if (!r.ok()) return Malformed("dim snapshot");
  ReplicatedTable table(std::move(name), key_cardinality, std::move(attrs));
  table.set_epoch(epoch);
  SCALEWALL_RETURN_IF_ERROR(table.RestoreColumns(
      std::move(columns), static_cast<size_t>(num_entries)));
  return table;
}

std::string EncodeSubqueryRequest(const SubqueryEnvelope& envelope) {
  net::WireWriter w;
  // The wire deadline is the *remaining budget*; the absolute deadline
  // never crosses a clock-domain boundary.
  Query query = envelope.query;
  query.deadline = 0;
  EncodeQuery(w, query);
  w.U32(envelope.partition);
  w.U8(static_cast<uint8_t>(envelope.cache_policy));
  w.Str(envelope.fingerprint);
  w.I64(envelope.remaining_budget);
  w.Str(envelope.pool_path);
  w.U32(static_cast<uint32_t>(envelope.dims.size()));
  for (const ReplicatedTable& dim : envelope.dims) {
    EncodeReplicatedTable(w, dim);
  }
  w.Str(envelope.telemetry);
  return std::move(w).str();
}

Result<SubqueryEnvelope> DecodeSubqueryRequest(std::string_view payload) {
  net::WireReader r(payload);
  SubqueryEnvelope envelope;
  auto query = DecodeQuery(r);
  if (!query.ok()) return query.status();
  envelope.query = std::move(query).value();
  envelope.partition = r.U32();
  envelope.cache_policy = r.Enum8(cache::CachePolicy::kAllowStale);
  envelope.fingerprint = r.Str();
  envelope.remaining_budget = r.I64();
  envelope.pool_path = r.Str();
  const uint32_t num_dims = r.U32();
  if (!r.CheckCount(num_dims, 24)) return Malformed("subquery dims");
  envelope.dims.reserve(num_dims);
  for (uint32_t d = 0; d < num_dims; ++d) {
    auto dim = DecodeReplicatedTable(r);
    if (!dim.ok()) return dim.status();
    envelope.dims.push_back(std::move(dim).value());
  }
  envelope.telemetry = r.Str();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "subquery request"));
  return envelope;
}

std::string EncodeSubqueryResponse(const PartialResult& partial,
                                   std::string_view telemetry) {
  net::WireWriter w;
  EncodeQueryResult(w, partial.result);
  w.I32(partial.forward_hops);
  w.U64(partial.epoch);
  w.Bool(partial.cache_hit);
  w.Str(telemetry);
  return std::move(w).str();
}

Result<PartialResult> DecodeSubqueryResponse(std::string_view payload,
                                             std::string* telemetry) {
  net::WireReader r(payload);
  PartialResult partial;
  auto result = DecodeQueryResult(r);
  if (!result.ok()) return result.status();
  partial.result = std::move(result).value();
  partial.forward_hops = r.I32();
  partial.epoch = r.U64();
  partial.cache_hit = r.Bool();
  std::string telemetry_block = r.Str();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "subquery response"));
  if (telemetry != nullptr) *telemetry = std::move(telemetry_block);
  return partial;
}

std::string EncodeTreeMergeRequest(const TreeMergeEnvelope& envelope) {
  net::WireWriter w;
  Query query = envelope.query;
  query.deadline = 0;  // remaining budget travels instead
  EncodeQuery(w, query);
  w.U32Vec(envelope.partitions);
  w.U32Vec(envelope.servers);
  w.I32(envelope.fanin);
  w.U8(static_cast<uint8_t>(envelope.cache_policy));
  w.Str(envelope.fingerprint);
  w.I64(envelope.remaining_budget);
  w.Str(envelope.pool_path);
  w.U32(static_cast<uint32_t>(envelope.dims.size()));
  for (const ReplicatedTable& dim : envelope.dims) {
    EncodeReplicatedTable(w, dim);
  }
  w.Str(envelope.telemetry);
  return std::move(w).str();
}

Result<TreeMergeEnvelope> DecodeTreeMergeRequest(std::string_view payload) {
  net::WireReader r(payload);
  TreeMergeEnvelope envelope;
  auto query = DecodeQuery(r);
  if (!query.ok()) return query.status();
  envelope.query = std::move(query).value();
  envelope.partitions = r.U32Vec();
  envelope.servers = r.U32Vec();
  envelope.fanin = r.I32();
  envelope.cache_policy = r.Enum8(cache::CachePolicy::kAllowStale);
  envelope.fingerprint = r.Str();
  envelope.remaining_budget = r.I64();
  envelope.pool_path = r.Str();
  const uint32_t num_dims = r.U32();
  if (!r.CheckCount(num_dims, 24)) return Malformed("tree merge dims");
  envelope.dims.reserve(num_dims);
  for (uint32_t d = 0; d < num_dims; ++d) {
    auto dim = DecodeReplicatedTable(r);
    if (!dim.ok()) return dim.status();
    envelope.dims.push_back(std::move(dim).value());
  }
  envelope.telemetry = r.Str();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "tree merge request"));
  if (envelope.partitions.size() != envelope.servers.size()) {
    return Malformed("tree merge assignments");
  }
  if (envelope.fanin < 2) return Malformed("tree merge fanin");
  return envelope;
}

std::string EncodeTreeMergeResponse(const TreeMergeResult& merged,
                                    std::string_view telemetry) {
  net::WireWriter w;
  EncodeQueryResult(w, merged.result);
  w.U64Vec(merged.epochs);
  EncodeIntVec(w, merged.forward_hops);
  w.Str(telemetry);
  return std::move(w).str();
}

Result<TreeMergeResult> DecodeTreeMergeResponse(std::string_view payload,
                                                std::string* telemetry) {
  net::WireReader r(payload);
  TreeMergeResult merged;
  auto result = DecodeQueryResult(r);
  if (!result.ok()) return result.status();
  merged.result = std::move(result).value();
  merged.epochs = r.U64Vec();
  merged.forward_hops = DecodeIntVec(r);
  std::string telemetry_block = r.Str();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "tree merge response"));
  if (telemetry != nullptr) *telemetry = std::move(telemetry_block);
  return merged;
}

std::string EncodeShuffleMapRequest(const ShuffleMapEnvelope& envelope) {
  net::WireWriter w;
  Query query = envelope.query;
  query.deadline = 0;
  EncodeQuery(w, query);
  EncodeQueryResult(w, envelope.bucket);
  w.Str(envelope.telemetry);
  return std::move(w).str();
}

Result<ShuffleMapEnvelope> DecodeShuffleMapRequest(std::string_view payload) {
  net::WireReader r(payload);
  ShuffleMapEnvelope envelope;
  auto query = DecodeQuery(r);
  if (!query.ok()) return query.status();
  envelope.query = std::move(query).value();
  auto bucket = DecodeQueryResult(r);
  if (!bucket.ok()) return bucket.status();
  envelope.bucket = std::move(bucket).value();
  envelope.telemetry = r.Str();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "shuffle map request"));
  return envelope;
}

std::string EncodeShuffleMapResponse(const QueryResult& mapped,
                                     std::string_view telemetry) {
  net::WireWriter w;
  EncodeQueryResult(w, mapped);
  w.Str(telemetry);
  return std::move(w).str();
}

Result<QueryResult> DecodeShuffleMapResponse(std::string_view payload,
                                             std::string* telemetry) {
  net::WireReader r(payload);
  auto result = DecodeQueryResult(r);
  if (!result.ok()) return result.status();
  QueryResult mapped = std::move(result).value();
  std::string telemetry_block = r.Str();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "shuffle map response"));
  if (telemetry != nullptr) *telemetry = std::move(telemetry_block);
  return mapped;
}

std::string EncodeCoordinateRequest(const CoordinateEnvelope& envelope) {
  net::WireWriter w;
  Query query = envelope.query;
  query.deadline = 0;  // remaining budget travels instead
  EncodeQuery(w, query);
  w.U8(static_cast<uint8_t>(envelope.cache_policy));
  w.Str(envelope.fingerprint);
  w.I64(envelope.remaining_budget);
  w.I64(envelope.dispatch_time);
  w.U8(static_cast<uint8_t>(envelope.join_strategy));
  w.I32(envelope.merge_fanin);
  w.Str(envelope.pool_path);
  w.Str(envelope.telemetry);
  return std::move(w).str();
}

Result<CoordinateEnvelope> DecodeCoordinateRequest(std::string_view payload) {
  net::WireReader r(payload);
  CoordinateEnvelope envelope;
  auto query = DecodeQuery(r);
  if (!query.ok()) return query.status();
  envelope.query = std::move(query).value();
  envelope.cache_policy = r.Enum8(cache::CachePolicy::kAllowStale);
  envelope.fingerprint = r.Str();
  envelope.remaining_budget = r.I64();
  envelope.dispatch_time = r.I64();
  envelope.join_strategy = r.Enum8(JoinStrategy::kShuffle);
  envelope.merge_fanin = r.I32();
  envelope.pool_path = r.Str();
  envelope.telemetry = r.Str();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "coordinate request"));
  return envelope;
}

std::string EncodeCoordinateResponse(const DistributedOutcome& outcome,
                                     std::string_view telemetry) {
  net::WireWriter w;
  net::EncodeStatus(w, outcome.status);
  w.I64(outcome.latency);
  w.I32(outcome.fanout);
  w.U32(outcome.num_partitions);
  w.U64Vec(outcome.partition_epochs);
  w.U64Vec(outcome.dim_epochs);
  w.U8(static_cast<uint8_t>(outcome.strategy));
  w.I32(outcome.merge_fanin);
  w.I32(outcome.tree_depth);
  w.U32(outcome.failed_server);
  w.I64(outcome.subquery_retries);
  w.I64(outcome.hedges_fired);
  w.I64(outcome.hedge_wins);
  w.I64(outcome.cache_hits);
  w.I64(outcome.cache_stale_serves);
  EncodeQueryResult(w, outcome.result);
  w.Str(telemetry);
  return std::move(w).str();
}

Result<DistributedOutcome> DecodeCoordinateResponse(std::string_view payload,
                                                    std::string* telemetry) {
  net::WireReader r(payload);
  DistributedOutcome outcome;
  outcome.status = net::DecodeStatus(r);
  outcome.latency = r.I64();
  outcome.fanout = r.I32();
  outcome.num_partitions = r.U32();
  outcome.partition_epochs = r.U64Vec();
  outcome.dim_epochs = r.U64Vec();
  outcome.strategy = r.Enum8(JoinStrategy::kShuffle);
  outcome.merge_fanin = r.I32();
  outcome.tree_depth = r.I32();
  outcome.failed_server = r.U32();
  outcome.subquery_retries = static_cast<int>(r.I64());
  outcome.hedges_fired = static_cast<int>(r.I64());
  outcome.hedge_wins = static_cast<int>(r.I64());
  outcome.cache_hits = static_cast<int>(r.I64());
  outcome.cache_stale_serves = static_cast<int>(r.I64());
  auto result = DecodeQueryResult(r);
  if (!result.ok()) return result.status();
  outcome.result = std::move(result).value();
  std::string telemetry_block = r.Str();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "coordinate response"));
  if (telemetry != nullptr) *telemetry = std::move(telemetry_block);
  return outcome;
}

std::string EncodeEpochRequest(const EpochProbe& probe) {
  net::WireWriter w;
  w.Str(probe.table);
  w.U32(static_cast<uint32_t>(probe.dims.size()));
  for (const std::string& dim : probe.dims) w.Str(dim);
  return std::move(w).str();
}

Result<EpochProbe> DecodeEpochRequest(std::string_view payload) {
  net::WireReader r(payload);
  EpochProbe probe;
  probe.table = r.Str();
  const uint32_t num_dims = r.U32();
  if (!r.CheckCount(num_dims, 4)) return Malformed("epoch request dims");
  probe.dims.reserve(num_dims);
  for (uint32_t d = 0; d < num_dims; ++d) probe.dims.push_back(r.Str());
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "epoch request"));
  return probe;
}

std::string EncodeEpochResponse(const std::vector<uint64_t>& epochs) {
  net::WireWriter w;
  w.U64Vec(epochs);
  return std::move(w).str();
}

Result<std::vector<uint64_t>> DecodeEpochResponse(std::string_view payload) {
  net::WireReader r(payload);
  std::vector<uint64_t> epochs = r.U64Vec();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "epoch response"));
  return epochs;
}

std::string EncodeClientQuery(const QueryRequest& request) {
  net::WireWriter w;
  EncodeQuery(w, request.query);
  w.U16(request.preferred_region);
  w.I64(request.deadline);
  w.Bool(request.tracing);
  w.U8(static_cast<uint8_t>(request.cache_policy));
  w.Str(request.claim.pool_path);
  w.U8(static_cast<uint8_t>(request.claim.priority));
  w.F64(request.claim.weight_hint);
  w.Bool(request.profile);
  w.U8(static_cast<uint8_t>(request.join_strategy));
  w.I32(request.merge_fanin);
  return std::move(w).str();
}

Result<QueryRequest> DecodeClientQuery(std::string_view payload) {
  net::WireReader r(payload);
  QueryRequest request;
  auto query = DecodeQuery(r);
  if (!query.ok()) return query.status();
  request.query = std::move(query).value();
  request.preferred_region = r.U16();
  request.deadline = r.I64();
  request.tracing = r.Bool();
  request.cache_policy = r.Enum8(cache::CachePolicy::kAllowStale);
  request.claim.pool_path = r.Str();
  request.claim.priority = r.Enum8(admit::Priority::kBestEffort);
  request.claim.weight_hint = r.F64();
  request.profile = r.Bool();
  request.join_strategy = r.Enum8(JoinStrategy::kShuffle);
  request.merge_fanin = r.I32();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "client query"));
  return request;
}

std::string EncodeClientRows(const ClientRowsEnvelope& envelope) {
  net::WireWriter w;
  EncodeResultRows(w, envelope.rows);
  w.U16(envelope.region);
  w.I32(envelope.attempts);
  w.I32(envelope.fanout);
  w.I64(envelope.latency);
  w.Str(envelope.profile_text);
  w.Str(envelope.trace_text);
  return std::move(w).str();
}

Result<ClientRowsEnvelope> DecodeClientRows(std::string_view payload) {
  net::WireReader r(payload);
  ClientRowsEnvelope envelope;
  auto rows = DecodeResultRows(r);
  if (!rows.ok()) return rows.status();
  envelope.rows = std::move(rows).value();
  envelope.region = r.U16();
  envelope.attempts = r.I32();
  envelope.fanout = r.I32();
  envelope.latency = r.I64();
  envelope.profile_text = r.Str();
  envelope.trace_text = r.Str();
  SCALEWALL_RETURN_IF_ERROR(CheckExhausted(r, "client rows"));
  return envelope;
}

}  // namespace scalewall::cubrick::wire
