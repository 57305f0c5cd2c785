// Wire-format tests: stable status codes, frame robustness, and the
// randomized differential suite — every cubrick codec is driven with
// randomized structures, round-tripped, and the re-encoded bytes are
// compared to the originals (encode∘decode must be the identity on the
// wire). Truncations, trailing garbage, oversized lengths and version
// skew must all be rejected, never misdecoded.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "cubrick/wire.h"
#include "net/telemetry.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace scalewall {
namespace {

using cubrick::Query;
using cubrick::QueryResult;

// --- satellite: stable integer code <-> enum mapping ---

TEST(StatusCodeTest, StableIntegerMapping) {
  // These values are wire-stable; changing any is a protocol break.
  EXPECT_EQ(0, StatusCodeToInt(StatusCode::kOk));
  EXPECT_EQ(1, StatusCodeToInt(StatusCode::kInvalidArgument));
  EXPECT_EQ(2, StatusCodeToInt(StatusCode::kNotFound));
  EXPECT_EQ(3, StatusCodeToInt(StatusCode::kAlreadyExists));
  EXPECT_EQ(4, StatusCodeToInt(StatusCode::kUnavailable));
  EXPECT_EQ(5, StatusCodeToInt(StatusCode::kNonRetryable));
  EXPECT_EQ(6, StatusCodeToInt(StatusCode::kResourceExhausted));
  EXPECT_EQ(7, StatusCodeToInt(StatusCode::kFailedPrecondition));
  EXPECT_EQ(8, StatusCodeToInt(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(9, StatusCodeToInt(StatusCode::kInternal));
  EXPECT_EQ(10, StatusCodeToInt(StatusCode::kPermissionDenied));
  EXPECT_EQ(11, StatusCodeToInt(StatusCode::kCancelled));
  EXPECT_EQ(12, StatusCodeToInt(StatusCode::kUnimplemented));
}

TEST(StatusCodeTest, RoundTripsEveryCode) {
  for (int code = 0; code <= 12; ++code) {
    EXPECT_EQ(code, StatusCodeToInt(StatusCodeFromInt(code))) << code;
  }
}

TEST(StatusCodeTest, UnknownIntsDegradeToInternalNeverOk) {
  EXPECT_EQ(StatusCode::kInternal, StatusCodeFromInt(13));
  EXPECT_EQ(StatusCode::kInternal, StatusCodeFromInt(255));
  EXPECT_EQ(StatusCode::kInternal, StatusCodeFromInt(-1));
}

TEST(StatusCodeTest, FromCodeConstructor) {
  Status s = Status::FromCode(4, "backend down");
  EXPECT_EQ(StatusCode::kUnavailable, s.code());
  EXPECT_EQ("backend down", s.message());
  EXPECT_TRUE(Status::FromCode(0, "").ok());
}

TEST(StatusCodeTest, StatusWireRoundTrip) {
  for (int code = 1; code <= 12; ++code) {
    Status original = Status::FromCode(code, "msg " + std::to_string(code));
    net::WireWriter w;
    net::EncodeStatus(w, original);
    net::WireReader r(w.str());
    Status decoded = net::DecodeStatus(r);
    EXPECT_EQ(original.code(), decoded.code());
    EXPECT_EQ(original.message(), decoded.message());
  }
}

// --- frame layer ---

TEST(FrameTest, RoundTrip) {
  std::string bytes =
      net::EncodeFrame(net::FrameType::kSubqueryRequest, 77, "payload!");
  net::FrameDecoder decoder;
  decoder.Feed(bytes);
  net::Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(net::FrameType::kSubqueryRequest, frame.type);
  EXPECT_EQ(77u, frame.correlation);
  EXPECT_EQ("payload!", frame.payload);
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_TRUE(decoder.ok());
}

TEST(FrameTest, ByteAtATimeDelivery) {
  std::string bytes = net::EncodeFrame(net::FrameType::kPong, 5, "abc");
  net::FrameDecoder decoder;
  net::Frame frame;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(std::string_view(&bytes[i], 1));
    EXPECT_FALSE(decoder.Next(&frame)) << "frame complete early at " << i;
    EXPECT_TRUE(decoder.ok());
  }
  decoder.Feed(std::string_view(&bytes[bytes.size() - 1], 1));
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ("abc", frame.payload);
}

TEST(FrameTest, OversizedLengthPoisons) {
  net::WireWriter w;
  w.U32(net::kMaxFramePayload + 11);
  w.U8(net::kWireVersion);
  w.U8(1);
  w.U64(1);
  net::FrameDecoder decoder;
  decoder.Feed(w.str());
  net::Frame frame;
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_FALSE(decoder.ok());
  // Poisoned permanently: even a valid frame is not parsed afterwards.
  decoder.Feed(net::EncodeFrame(net::FrameType::kPing, 1, ""));
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_FALSE(decoder.ok());
}

TEST(FrameTest, VersionSkewPoisons) {
  std::string bytes = net::EncodeFrame(net::FrameType::kPing, 9, "x");
  bytes[4] = static_cast<char>(net::kWireVersion + 1);
  net::FrameDecoder decoder;
  decoder.Feed(bytes);
  net::Frame frame;
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_FALSE(decoder.ok());
}

TEST(FrameTest, ResourceClaimGenerationBumpedWireVersion) {
  // The fair-share release replaced the flat tenant_id/priority pair
  // with ResourceClaim{pool_path, priority, weight_hint} and stamped
  // pool_path on the subquery/tree-merge/coordinate envelopes, so the
  // frame version moved to 3 (2 was the planner generation). An
  // older peer's frames must be rejected at the frame layer — never
  // field-misaligned.
  EXPECT_GE(net::kWireVersion, 3);
  for (uint8_t old_version : {1, 2}) {
    std::string bytes = net::EncodeFrame(net::FrameType::kSubqueryRequest, 3,
                                         "payload from an old peer");
    bytes[4] = static_cast<char>(old_version);
    net::FrameDecoder decoder;
    decoder.Feed(bytes);
    net::Frame frame;
    EXPECT_FALSE(decoder.Next(&frame));
    EXPECT_FALSE(decoder.ok());
  }
}

TEST(FrameTest, ColumnarResultGenerationBumpedWireVersion) {
  // Query results moved from one record per group to columns (arity
  // once, the key column, then one column per state field), so the
  // frame version moved to 4; dropping the scan-path byte from the
  // request payloads moved it to 5. Older peers' frames must be
  // rejected at the frame layer, never decoded as columns or read one
  // byte off.
  EXPECT_EQ(5, net::kWireVersion);
  for (uint8_t old_version : {1, 2, 3, 4}) {
    std::string bytes = net::EncodeFrame(net::FrameType::kSubqueryResponse, 4,
                                         "per-group result from a v3 peer");
    bytes[4] = static_cast<char>(old_version);
    net::FrameDecoder decoder;
    decoder.Feed(bytes);
    net::Frame frame;
    EXPECT_FALSE(decoder.Next(&frame)) << int{old_version};
    EXPECT_FALSE(decoder.ok());
  }
}

TEST(FrameTest, NewFrameTypesHaveNames) {
  EXPECT_EQ("tree_merge_request",
            net::FrameTypeName(net::FrameType::kTreeMergeRequest));
  EXPECT_EQ("tree_merge_response",
            net::FrameTypeName(net::FrameType::kTreeMergeResponse));
  EXPECT_EQ("shuffle_map_request",
            net::FrameTypeName(net::FrameType::kShuffleMapRequest));
  EXPECT_EQ("shuffle_map_response",
            net::FrameTypeName(net::FrameType::kShuffleMapResponse));
}

TEST(FrameTest, GarbageBytesPoison) {
  // 32 bytes of 0xFF: the length prefix alone exceeds the cap.
  net::FrameDecoder decoder;
  decoder.Feed(std::string(32, '\xff'));
  net::Frame frame;
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_FALSE(decoder.ok());
}

// --- randomized differential round-trips ---

Query RandomQuery(Rng& rng) {
  Query q;
  q.table = "t" + std::to_string(rng.NextBounded(1000));
  for (uint64_t i = 0, n = rng.NextBounded(4); i < n; ++i) {
    cubrick::FilterRange f;
    f.dimension = static_cast<int>(rng.NextBounded(6));
    f.lo = static_cast<uint32_t>(rng.Next());
    f.hi = static_cast<uint32_t>(rng.Next());
    q.filters.push_back(f);
  }
  for (uint64_t i = 0, n = rng.NextBounded(3); i < n; ++i) {
    cubrick::FilterIn f;
    f.dimension = static_cast<int>(rng.NextBounded(6));
    for (uint64_t j = 0, m = rng.NextBounded(5); j < m; ++j) {
      f.values.push_back(static_cast<uint32_t>(rng.Next()));
    }
    q.in_filters.push_back(f);
  }
  for (uint64_t i = 0, n = rng.NextBounded(4); i < n; ++i) {
    q.group_by.push_back(static_cast<int>(rng.NextBounded(6)));
  }
  for (uint64_t i = 0, n = rng.NextBounded(3); i < n; ++i) {
    cubrick::Join join;
    join.fact_dimension = static_cast<int>(rng.NextBounded(6));
    join.dimension_table = "dim" + std::to_string(rng.NextBounded(50));
    join.attribute = static_cast<int>(rng.NextBounded(4));
    q.joins.push_back(join);
    if (rng.NextBool(0.5)) {
      q.group_by_joins.push_back(static_cast<int>(i));
    }
    if (rng.NextBool(0.3)) {
      cubrick::JoinFilter jf;
      jf.join = static_cast<int>(i);
      jf.lo = static_cast<uint32_t>(rng.Next());
      jf.hi = static_cast<uint32_t>(rng.Next());
      q.join_filters.push_back(jf);
    }
  }
  for (uint64_t i = 0, n = 1 + rng.NextBounded(3); i < n; ++i) {
    cubrick::Aggregation agg;
    agg.metric = static_cast<int>(rng.NextBounded(4));
    agg.op = static_cast<cubrick::AggOp>(rng.NextBounded(5));
    q.aggregations.push_back(agg);
  }
  q.order_by = static_cast<int>(rng.NextBounded(q.aggregations.size() + 1)) - 1;
  q.descending = rng.NextBool(0.5);
  q.limit = static_cast<uint32_t>(rng.NextBounded(100));
  q.deadline = static_cast<SimDuration>(rng.NextBounded(1000000));
  return q;
}

QueryResult RandomResult(Rng& rng, size_t num_aggs) {
  QueryResult result(num_aggs);
  // Every key of one result has the same arity.
  const uint64_t arity = rng.NextBounded(4);
  for (uint64_t g = 0, n = rng.NextBounded(20); g < n; ++g) {
    QueryResult::GroupKey key;
    for (uint64_t k = 0; k < arity; ++k) {
      key.push_back(static_cast<uint32_t>(rng.Next()));
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      cubrick::AggState state;
      // Accumulate a few raw values: sum/min/max land on non-trivial
      // doubles whose full mantissas must survive the trip.
      for (uint64_t v = 0, c = 1 + rng.NextBounded(5); v < c; ++v) {
        state.Add(rng.NextDouble() * 1e6 - 5e5);
      }
      result.AccumulateState(key, a, state);
    }
  }
  result.rows_scanned = static_cast<int64_t>(rng.NextBounded(1 << 20));
  result.bricks_scanned = static_cast<int64_t>(rng.NextBounded(1 << 10));
  result.bricks_pruned = static_cast<int64_t>(rng.NextBounded(1 << 10));
  return result;
}

cubrick::ReplicatedTable RandomReplicatedTable(Rng& rng) {
  const uint32_t key_cardinality = 1 + static_cast<uint32_t>(rng.NextBounded(64));
  std::vector<cubrick::Dimension> attrs;
  for (uint64_t a = 0, n = 1 + rng.NextBounded(3); a < n; ++a) {
    cubrick::Dimension d;
    d.name = "attr" + std::to_string(a);
    d.cardinality = 1 + static_cast<uint32_t>(rng.NextBounded(32));
    d.range_size = 1 + static_cast<uint32_t>(rng.NextBounded(8));
    attrs.push_back(d);
  }
  cubrick::ReplicatedTable table("dim" + std::to_string(rng.NextBounded(50)),
                                 key_cardinality, attrs);
  for (uint32_t k = 0; k < key_cardinality; ++k) {
    if (rng.NextBool(0.3)) continue;  // unset keys must survive the trip
    cubrick::DimensionEntry entry;
    entry.key = k;
    for (const cubrick::Dimension& d : attrs) {
      entry.attributes.push_back(
          static_cast<uint32_t>(rng.NextBounded(d.cardinality)));
    }
    table.Set(entry);
  }
  table.set_epoch(rng.Next());
  return table;
}

// Re-encoding the decoded value must reproduce the original bytes.
template <typename T, typename Encode, typename Decode>
void ExpectByteStableRoundTrip(const T& value, Encode encode, Decode decode,
                               const char* what) {
  std::string bytes = encode(value);
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().ToString();
  EXPECT_EQ(bytes, encode(*decoded)) << what << ": re-encode mismatch";

  // Every truncation must fail, never misdecode. (Boundaries sampled:
  // every prefix would be O(n^2) over the suite.)
  for (size_t cut : {size_t{0}, bytes.size() / 3, bytes.size() / 2,
                     bytes.size() - 1}) {
    if (cut >= bytes.size()) continue;
    auto truncated = decode(bytes.substr(0, cut));
    EXPECT_FALSE(truncated.ok()) << what << ": truncation at " << cut;
  }
  // Trailing garbage must fail too (fixed-shape payloads).
  auto padded = decode(bytes + std::string("\x01", 1));
  EXPECT_FALSE(padded.ok()) << what << ": trailing garbage accepted";
}

TEST(WireDifferentialTest, QueryRoundTripsByteStable) {
  Rng rng(0xC0DEC);
  for (int i = 0; i < 200; ++i) {
    Query q = RandomQuery(rng);
    ExpectByteStableRoundTrip(
        q,
        [](const Query& v) {
          net::WireWriter w;
          cubrick::wire::EncodeQuery(w, v);
          return std::move(w).str();
        },
        [](std::string_view bytes) -> Result<Query> {
          net::WireReader r(bytes);
          auto decoded = cubrick::wire::DecodeQuery(r);
          if (decoded.ok() && !r.exhausted()) {
            return Status::InvalidArgument("trailing bytes");
          }
          return decoded;
        },
        "Query");
  }
}

TEST(WireDifferentialTest, QueryResultRoundTripsByteStable) {
  Rng rng(0xAB5);
  for (int i = 0; i < 200; ++i) {
    size_t num_aggs = 1 + rng.NextBounded(3);
    QueryResult result = RandomResult(rng, num_aggs);
    ExpectByteStableRoundTrip(
        result,
        [](const QueryResult& v) {
          net::WireWriter w;
          cubrick::wire::EncodeQueryResult(w, v);
          return std::move(w).str();
        },
        [](std::string_view bytes) -> Result<QueryResult> {
          net::WireReader r(bytes);
          auto decoded = cubrick::wire::DecodeQueryResult(r);
          if (decoded.ok() && !r.exhausted()) {
            return Status::InvalidArgument("trailing bytes");
          }
          return decoded;
        },
        "QueryResult");
  }
}

TEST(WireDifferentialTest, QueryResultStateCountMustMatchAggregations) {
  // A forged aggregation count would make every decoded group allocate
  // that many states; a group whose state count differs is rejected, so
  // the allocation stays bounded by the payload.
  QueryResult result(2);
  result.Accumulate({1, 2}, 0, 3.0);
  result.Accumulate({1, 2}, 1, 4.0);
  net::WireWriter w;
  cubrick::wire::EncodeQueryResult(w, result);
  std::string bytes = std::move(w).str();
  for (uint32_t forged : {1u, 3u, 1u << 24}) {
    std::memcpy(bytes.data(), &forged, sizeof(forged));  // leading u32
    net::WireReader r(bytes);
    EXPECT_FALSE(cubrick::wire::DecodeQueryResult(r).ok()) << forged;
  }
}

// A hand-built column-wise result payload: header, key column, state
// count, then `num_states` zeroed entries in each of the four field
// columns.
std::string ResultColumns(uint32_t num_aggs, uint32_t num_groups,
                          uint32_t arity, const std::vector<uint32_t>& keys,
                          uint32_t states_per_group, size_t num_states) {
  net::WireWriter w;
  w.U32(num_aggs);
  for (int i = 0; i < 4; ++i) w.I64(0);
  w.U32(num_groups);
  w.U32(arity);
  w.U32Vec(keys);
  w.U32(states_per_group);
  for (size_t i = 0; i < 4 * num_states; ++i) w.U64(0);
  return std::move(w).str();
}

Status DecodeColumns(const std::string& bytes) {
  net::WireReader r(bytes);
  auto decoded = cubrick::wire::DecodeQueryResult(r);
  if (!decoded.ok()) return decoded.status();
  return r.exhausted() ? Status::Ok() : Status::InvalidArgument("trailing");
}

TEST(WireDifferentialTest, QueryResultColumnsAcceptWellFormedRuns) {
  EXPECT_TRUE(DecodeColumns(ResultColumns(1, 2, 2, {1, 2, 1, 3}, 1, 2)).ok());
  EXPECT_TRUE(DecodeColumns(ResultColumns(2, 1, 0, {}, 2, 2)).ok());
  EXPECT_TRUE(DecodeColumns(ResultColumns(3, 0, 5, {}, 3, 0)).ok());
}

TEST(WireDifferentialTest, QueryResultRejectsMixedArityKeys) {
  // Two groups of arity 2 need 4 key values; 5 means a key of arity 3
  // (or 3 values, one of arity 1) rode along.
  for (const std::vector<uint32_t>& keys :
       {std::vector<uint32_t>{1, 2, 1, 3, 4}, std::vector<uint32_t>{1, 2, 3}}) {
    const Status status = DecodeColumns(ResultColumns(1, 2, 2, keys, 1, 2));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  }
}

TEST(WireDifferentialTest, QueryResultRejectsUnsortedRuns) {
  // Descending, duplicate, and two empty (arity 0) keys: the merge
  // relies on strictly ascending runs.
  EXPECT_EQ(DecodeColumns(ResultColumns(1, 2, 2, {1, 3, 1, 2}, 1, 2)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeColumns(ResultColumns(1, 2, 2, {1, 2, 1, 2}, 1, 2)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeColumns(ResultColumns(1, 2, 0, {}, 1, 2)).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireDifferentialTest, QueryResultRejectsOverflowingCounts) {
  // groups x arity past 2^32 cannot match any u32 key count, and a key
  // count past the payload is refused before any allocation.
  EXPECT_FALSE(
      DecodeColumns(ResultColumns(1, 1u << 31, 2, {0}, 1, 0)).ok());
  EXPECT_FALSE(
      DecodeColumns(ResultColumns(1, 1u << 16, 1u << 16, {}, 1, 0)).ok());
  std::string short_keys = ResultColumns(1, 1u << 24, 1, {}, 1, 0);
  std::memcpy(short_keys.data() + 44, "\x00\x00\x00\x01", 4);  // 1 << 24
  EXPECT_FALSE(DecodeColumns(short_keys).ok());
  // groups x aggs past the payload (and past 2^32) is refused the same
  // way: num_aggs 2^32 - 1 with one group would allocate ~128 GiB.
  const uint32_t huge = 0xFFFFFFFFu;
  EXPECT_FALSE(DecodeColumns(ResultColumns(huge, 1, 1, {5}, huge, 1)).ok());
  // Two states per group, one group, but only one state's columns sent.
  EXPECT_FALSE(DecodeColumns(ResultColumns(2, 1, 1, {5}, 2, 1)).ok());
}

TEST(WireDifferentialTest, QueryResultRejectsStateCountMismatch) {
  for (uint32_t states_per_group : {0u, 1u, 3u, 1u << 24}) {
    const Status status =
        DecodeColumns(ResultColumns(2, 1, 1, {7}, states_per_group, 2));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << states_per_group;
  }
}

TEST(WireDifferentialTest, ReplicatedTableRejectsOutOfDomainCodes) {
  // Scans size dense group slots by attribute cardinality: a snapshot
  // code at or above it must not decode.
  cubrick::ReplicatedTable table("dim", 4, {{"attr", 3, 1}});
  ASSERT_TRUE(table.Set({1, {2}}).ok());
  net::WireWriter w;
  cubrick::wire::EncodeReplicatedTable(w, table);
  std::string bytes = std::move(w).str();
  // Column codes are the trailing key_cardinality u32s; key 1's is the
  // third from the end.
  const uint32_t bad = 3;
  std::memcpy(bytes.data() + bytes.size() - 12, &bad, sizeof(bad));
  net::WireReader r(bytes);
  EXPECT_FALSE(cubrick::wire::DecodeReplicatedTable(r).ok());
}

TEST(WireDifferentialTest, SubqueryEnvelopeRoundTripsByteStable) {
  Rng rng(0x5B5);
  for (int i = 0; i < 100; ++i) {
    cubrick::wire::SubqueryEnvelope envelope;
    envelope.query = RandomQuery(rng);
    envelope.partition = static_cast<uint32_t>(rng.NextBounded(64));
    envelope.cache_policy =
        static_cast<cache::CachePolicy>(rng.NextBounded(4));
    if (rng.NextBool(0.5)) envelope.fingerprint = "fp" + std::to_string(i);
    envelope.remaining_budget =
        static_cast<SimDuration>(rng.NextBounded(10000000));
    for (uint64_t d = 0, n = rng.NextBounded(3); d < n; ++d) {
      envelope.dims.push_back(RandomReplicatedTable(rng));
    }
    std::string bytes = cubrick::wire::EncodeSubqueryRequest(envelope);
    auto decoded = cubrick::wire::DecodeSubqueryRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    // The envelope zeroes the query's absolute deadline (budget travels
    // separately), so re-encoding reproduces the bytes exactly.
    EXPECT_EQ(0, decoded->query.deadline);
    EXPECT_EQ(envelope.remaining_budget, decoded->remaining_budget);
    EXPECT_EQ(bytes, cubrick::wire::EncodeSubqueryRequest(*decoded));
    EXPECT_FALSE(
        cubrick::wire::DecodeSubqueryRequest(bytes.substr(0, bytes.size() / 2))
            .ok());
    EXPECT_FALSE(cubrick::wire::DecodeSubqueryRequest(bytes + "x").ok());
  }
}

TEST(WireDifferentialTest, PartialResultRoundTripsByteStable) {
  Rng rng(0x9A77);
  for (int i = 0; i < 100; ++i) {
    cubrick::PartialResult partial;
    partial.result = RandomResult(rng, 2);
    partial.forward_hops = static_cast<int>(rng.NextBounded(4));
    partial.epoch = rng.Next();
    partial.cache_hit = rng.NextBool(0.5);
    std::string bytes = cubrick::wire::EncodeSubqueryResponse(partial);
    auto decoded = cubrick::wire::DecodeSubqueryResponse(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(bytes, cubrick::wire::EncodeSubqueryResponse(*decoded));
    EXPECT_FALSE(
        cubrick::wire::DecodeSubqueryResponse(bytes.substr(0, bytes.size() - 1))
            .ok());
  }
}

TEST(WireDifferentialTest, CoordinateEnvelopesRoundTripByteStable) {
  Rng rng(0xC123);
  for (int i = 0; i < 100; ++i) {
    cubrick::wire::CoordinateEnvelope envelope;
    envelope.query = RandomQuery(rng);
    envelope.cache_policy = static_cast<cache::CachePolicy>(rng.NextBounded(4));
    envelope.remaining_budget =
        static_cast<SimDuration>(rng.NextBounded(10000000));
    envelope.dispatch_time = static_cast<SimTime>(rng.NextBounded(1u << 30));
    envelope.join_strategy =
        static_cast<cubrick::JoinStrategy>(rng.NextBounded(4));
    envelope.merge_fanin = static_cast<int>(rng.NextBounded(16));
    std::string bytes = cubrick::wire::EncodeCoordinateRequest(envelope);
    auto decoded = cubrick::wire::DecodeCoordinateRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(envelope.join_strategy, decoded->join_strategy);
    EXPECT_EQ(envelope.merge_fanin, decoded->merge_fanin);
    EXPECT_EQ(bytes, cubrick::wire::EncodeCoordinateRequest(*decoded));

    cubrick::DistributedOutcome outcome;
    outcome.status = rng.NextBool(0.3)
                         ? Status::Unavailable("server 3 failed")
                         : Status::Ok();
    outcome.result = RandomResult(rng, 2);
    outcome.latency = static_cast<SimDuration>(rng.NextBounded(1u << 30));
    outcome.fanout = static_cast<int>(rng.NextBounded(40));
    outcome.num_partitions = static_cast<uint32_t>(rng.NextBounded(64));
    for (uint64_t p = 0; p < outcome.num_partitions; ++p) {
      outcome.partition_epochs.push_back(rng.Next());
    }
    for (uint64_t d = 0, n = rng.NextBounded(3); d < n; ++d) {
      outcome.dim_epochs.push_back(rng.Next());
    }
    outcome.strategy = static_cast<cubrick::JoinStrategy>(
        1 + rng.NextBounded(3));  // executed plans are never kAuto
    outcome.merge_fanin = static_cast<int>(rng.NextBounded(16));
    outcome.tree_depth = static_cast<int>(rng.NextBounded(6));
    outcome.failed_server = rng.NextBool(0.3)
                                ? static_cast<cluster::ServerId>(rng.Next())
                                : cluster::kInvalidServer;
    outcome.subquery_retries = static_cast<int>(rng.NextBounded(10));
    outcome.hedges_fired = static_cast<int>(rng.NextBounded(10));
    outcome.hedge_wins = static_cast<int>(rng.NextBounded(10));
    outcome.cache_hits = static_cast<int>(rng.NextBounded(10));
    outcome.cache_stale_serves = static_cast<int>(rng.NextBounded(10));
    std::string rbytes = cubrick::wire::EncodeCoordinateResponse(outcome);
    auto rdecoded = cubrick::wire::DecodeCoordinateResponse(rbytes);
    ASSERT_TRUE(rdecoded.ok());
    EXPECT_EQ(rbytes, cubrick::wire::EncodeCoordinateResponse(*rdecoded));
    EXPECT_FALSE(cubrick::wire::DecodeCoordinateResponse(
                     rbytes.substr(0, rbytes.size() / 2))
                     .ok());
  }
}

TEST(WireDifferentialTest, EpochMessagesRoundTrip) {
  Rng rng(0xE9);
  for (int i = 0; i < 50; ++i) {
    cubrick::wire::EpochProbe probe;
    probe.table = "table" + std::to_string(rng.Next());
    for (uint64_t d = 0, n = rng.NextBounded(4); d < n; ++d) {
      probe.dims.push_back("dim" + std::to_string(rng.NextBounded(8)));
    }
    std::string bytes = cubrick::wire::EncodeEpochRequest(probe);
    auto decoded = cubrick::wire::DecodeEpochRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(probe.table, decoded->table);
    EXPECT_EQ(probe.dims, decoded->dims);

    std::vector<uint64_t> epochs;
    for (uint64_t p = 0, n = rng.NextBounded(64); p < n; ++p) {
      epochs.push_back(rng.Next());
    }
    std::string ebytes = cubrick::wire::EncodeEpochResponse(epochs);
    auto edecoded = cubrick::wire::DecodeEpochResponse(ebytes);
    ASSERT_TRUE(edecoded.ok());
    EXPECT_EQ(epochs, *edecoded);
    EXPECT_FALSE(cubrick::wire::DecodeEpochResponse(ebytes + "zz").ok());
  }
}

TEST(WireDifferentialTest, ReplicatedTableRoundTripsByteStable) {
  Rng rng(0xD1117);
  for (int i = 0; i < 50; ++i) {
    cubrick::ReplicatedTable table = RandomReplicatedTable(rng);
    ExpectByteStableRoundTrip(
        table,
        [](const cubrick::ReplicatedTable& v) {
          net::WireWriter w;
          cubrick::wire::EncodeReplicatedTable(w, v);
          return std::move(w).str();
        },
        [](std::string_view bytes) -> Result<cubrick::ReplicatedTable> {
          net::WireReader r(bytes);
          auto decoded = cubrick::wire::DecodeReplicatedTable(r);
          if (decoded.ok() && !r.exhausted()) {
            return Status::InvalidArgument("trailing bytes");
          }
          return decoded;
        },
        "ReplicatedTable");
    // The snapshot must probe identically to the original: epoch,
    // every set key and every unset key.
    net::WireWriter w;
    cubrick::wire::EncodeReplicatedTable(w, table);
    net::WireReader r(w.str());
    auto decoded = cubrick::wire::DecodeReplicatedTable(r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(table.epoch(), decoded->epoch());
    EXPECT_EQ(table.num_entries(), decoded->num_entries());
    for (uint32_t k = 0; k < table.key_cardinality(); ++k) {
      for (int a = 0; a < static_cast<int>(table.attributes().size()); ++a) {
        EXPECT_EQ(table.Attribute(k, a), decoded->Attribute(k, a));
      }
    }
  }
}

TEST(WireDifferentialTest, TreeMergeEnvelopesRoundTripByteStable) {
  Rng rng(0x7EE);
  for (int i = 0; i < 100; ++i) {
    cubrick::wire::TreeMergeEnvelope envelope;
    envelope.query = RandomQuery(rng);
    const uint64_t n = 2 + rng.NextBounded(30);
    for (uint64_t p = 0; p < n; ++p) {
      envelope.partitions.push_back(static_cast<uint32_t>(rng.NextBounded(64)));
      envelope.servers.push_back(static_cast<uint32_t>(rng.NextBounded(16)));
    }
    envelope.fanin = 2 + static_cast<int>(rng.NextBounded(14));
    envelope.cache_policy = static_cast<cache::CachePolicy>(rng.NextBounded(4));
    if (rng.NextBool(0.5)) envelope.fingerprint = "fp" + std::to_string(i);
    envelope.remaining_budget =
        static_cast<SimDuration>(rng.NextBounded(10000000));
    if (rng.NextBool(0.3)) {
      envelope.dims.push_back(RandomReplicatedTable(rng));
    }
    std::string bytes = cubrick::wire::EncodeTreeMergeRequest(envelope);
    auto decoded = cubrick::wire::DecodeTreeMergeRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(0, decoded->query.deadline);
    EXPECT_EQ(envelope.partitions, decoded->partitions);
    EXPECT_EQ(envelope.servers, decoded->servers);
    EXPECT_EQ(envelope.fanin, decoded->fanin);
    EXPECT_EQ(bytes, cubrick::wire::EncodeTreeMergeRequest(*decoded));
    EXPECT_FALSE(
        cubrick::wire::DecodeTreeMergeRequest(bytes.substr(0, bytes.size() / 2))
            .ok());
    EXPECT_FALSE(cubrick::wire::DecodeTreeMergeRequest(bytes + "x").ok());

    cubrick::wire::TreeMergeResult merged;
    merged.result = RandomResult(rng, 2);
    for (uint64_t p = 0; p < n; ++p) {
      merged.epochs.push_back(rng.Next());
      merged.forward_hops.push_back(static_cast<int>(rng.NextBounded(4)));
    }
    std::string rbytes = cubrick::wire::EncodeTreeMergeResponse(merged);
    auto rdecoded = cubrick::wire::DecodeTreeMergeResponse(rbytes);
    ASSERT_TRUE(rdecoded.ok());
    EXPECT_EQ(merged.epochs, rdecoded->epochs);
    EXPECT_EQ(merged.forward_hops, rdecoded->forward_hops);
    EXPECT_EQ(rbytes, cubrick::wire::EncodeTreeMergeResponse(*rdecoded));
    EXPECT_FALSE(cubrick::wire::DecodeTreeMergeResponse(
                     rbytes.substr(0, rbytes.size() - 1))
                     .ok());
  }
}

TEST(WireDifferentialTest, TreeMergeRequestRejectsMalformedShapes) {
  Rng rng(0x7EF);
  cubrick::wire::TreeMergeEnvelope envelope;
  envelope.query = RandomQuery(rng);
  envelope.partitions = {0, 1, 2};
  envelope.servers = {0, 1, 0};
  envelope.fanin = 2;
  std::string good = cubrick::wire::EncodeTreeMergeRequest(envelope);
  ASSERT_TRUE(cubrick::wire::DecodeTreeMergeRequest(good).ok());

  // A fanin < 2 cannot describe a tree; the decoder must reject it
  // rather than divide by a degenerate chunk width.
  cubrick::wire::TreeMergeEnvelope flat = envelope;
  flat.fanin = 1;
  EXPECT_FALSE(
      cubrick::wire::DecodeTreeMergeRequest(
          cubrick::wire::EncodeTreeMergeRequest(flat))
          .ok());

  // Mismatched partition/server arrays must be rejected.
  cubrick::wire::TreeMergeEnvelope skewed = envelope;
  skewed.servers.pop_back();
  EXPECT_FALSE(
      cubrick::wire::DecodeTreeMergeRequest(
          cubrick::wire::EncodeTreeMergeRequest(skewed))
          .ok());
}

TEST(WireDifferentialTest, OutOfRangeEnumBytesRejected) {
  // An enum byte past the last enumerator must be rejected as
  // InvalidArgument, never cast into a value no switch names. Each
  // enum is probed at its first invalid value and at 255.
  Rng rng(0xE7E7);
  const Query query = RandomQuery(rng);
  const auto expect_invalid = [](const auto& decoded, const char* what,
                                 int byte) {
    EXPECT_EQ(StatusCode::kInvalidArgument, decoded.status().code())
        << what << " byte " << byte;
  };
  for (int byte : {4, 255}) {
    const auto policy = static_cast<cache::CachePolicy>(byte);
    const auto strategy = static_cast<cubrick::JoinStrategy>(byte);

    cubrick::wire::SubqueryEnvelope subquery;
    subquery.query = query;
    subquery.cache_policy = policy;
    expect_invalid(cubrick::wire::DecodeSubqueryRequest(
                       cubrick::wire::EncodeSubqueryRequest(subquery)),
                   "subquery cache policy", byte);

    cubrick::wire::TreeMergeEnvelope tree;
    tree.query = query;
    tree.cache_policy = policy;
    expect_invalid(cubrick::wire::DecodeTreeMergeRequest(
                       cubrick::wire::EncodeTreeMergeRequest(tree)),
                   "tree merge cache policy", byte);

    cubrick::wire::CoordinateEnvelope coordinate;
    coordinate.query = query;
    coordinate.cache_policy = policy;
    expect_invalid(cubrick::wire::DecodeCoordinateRequest(
                       cubrick::wire::EncodeCoordinateRequest(coordinate)),
                   "coordinate cache policy", byte);
    coordinate.cache_policy = cache::CachePolicy::kDefault;
    coordinate.join_strategy = strategy;
    expect_invalid(cubrick::wire::DecodeCoordinateRequest(
                       cubrick::wire::EncodeCoordinateRequest(coordinate)),
                   "coordinate join strategy", byte);

    cubrick::DistributedOutcome outcome;
    outcome.strategy = strategy;
    expect_invalid(cubrick::wire::DecodeCoordinateResponse(
                       cubrick::wire::EncodeCoordinateResponse(outcome)),
                   "coordinate response strategy", byte);

    cubrick::QueryRequest request;
    request.query = query;
    request.cache_policy = policy;
    expect_invalid(cubrick::wire::DecodeClientQuery(
                       cubrick::wire::EncodeClientQuery(request)),
                   "client cache policy", byte);
    request.cache_policy = cache::CachePolicy::kDefault;
    request.join_strategy = strategy;
    expect_invalid(cubrick::wire::DecodeClientQuery(
                       cubrick::wire::EncodeClientQuery(request)),
                   "client join strategy", byte);
  }
  for (int byte : {3, 255}) {
    cubrick::QueryRequest request;
    request.query = query;
    request.claim.priority = static_cast<admit::Priority>(byte);
    expect_invalid(cubrick::wire::DecodeClientQuery(
                       cubrick::wire::EncodeClientQuery(request)),
                   "client priority", byte);
  }
}

TEST(WireDifferentialTest, OutOfRangeAggOpFailsValidation) {
  // The query codec carries an op byte verbatim; Query::Validate, which
  // the SQL and the wire entry points both run, must reject one past
  // kAvg — it would otherwise finalize to 0.0 without a word.
  cubrick::TableSchema schema;
  schema.dimensions = {cubrick::Dimension{"day", 8, 1}};
  schema.metrics = {cubrick::Metric{"clicks"}};
  cubrick::QueryRequest request;
  request.query.table = "t";
  request.query.aggregations = {
      cubrick::Aggregation{0, cubrick::AggOp::kAvg}};
  ASSERT_TRUE(request.query.Validate(schema).ok());
  for (int byte : {5, 9, 255}) {
    request.query.aggregations[0].op = static_cast<cubrick::AggOp>(byte);
    auto decoded = cubrick::wire::DecodeClientQuery(
        cubrick::wire::EncodeClientQuery(request));
    ASSERT_TRUE(decoded.ok()) << byte;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              decoded->query.Validate(schema).code())
        << "op byte " << byte;
  }
}

TEST(WireDifferentialTest, ShuffleMapEnvelopesRoundTripByteStable) {
  Rng rng(0x5FF);
  for (int i = 0; i < 100; ++i) {
    cubrick::wire::ShuffleMapEnvelope envelope;
    envelope.query = RandomQuery(rng);
    envelope.bucket = RandomResult(rng, envelope.query.aggregations.size());
    std::string bytes = cubrick::wire::EncodeShuffleMapRequest(envelope);
    auto decoded = cubrick::wire::DecodeShuffleMapRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(0, decoded->query.deadline);
    EXPECT_EQ(envelope.bucket.num_groups(), decoded->bucket.num_groups());
    EXPECT_EQ(bytes, cubrick::wire::EncodeShuffleMapRequest(*decoded));
    EXPECT_FALSE(cubrick::wire::DecodeShuffleMapRequest(
                     bytes.substr(0, bytes.size() / 2))
                     .ok());
    EXPECT_FALSE(cubrick::wire::DecodeShuffleMapRequest(bytes + "x").ok());

    QueryResult mapped = RandomResult(rng, envelope.query.aggregations.size());
    std::string rbytes = cubrick::wire::EncodeShuffleMapResponse(mapped);
    auto rdecoded = cubrick::wire::DecodeShuffleMapResponse(rbytes);
    ASSERT_TRUE(rdecoded.ok());
    EXPECT_EQ(rbytes, cubrick::wire::EncodeShuffleMapResponse(*rdecoded));
    EXPECT_FALSE(cubrick::wire::DecodeShuffleMapResponse(
                     rbytes.substr(0, rbytes.size() - 1))
                     .ok());
  }
}

TEST(WireDifferentialTest, ClientMessagesRoundTripByteStable) {
  Rng rng(0xC11E);
  for (int i = 0; i < 100; ++i) {
    cubrick::QueryRequest request;
    request.query = RandomQuery(rng);
    request.preferred_region =
        static_cast<cluster::RegionId>(rng.NextBounded(8));
    request.deadline = static_cast<SimDuration>(rng.NextBounded(1u << 30));
    request.tracing = rng.NextBool(0.5);
    request.cache_policy = static_cast<cache::CachePolicy>(rng.NextBounded(4));
    request.claim.pool_path =
        rng.NextBool(0.5) ? "org/tenant" + std::to_string(i) : "";
    request.claim.priority = static_cast<admit::Priority>(rng.NextBounded(3));
    request.claim.weight_hint =
        rng.NextBool(0.25) ? 1.0 + rng.NextDouble() * 7.0 : 0.0;
    request.join_strategy =
        static_cast<cubrick::JoinStrategy>(rng.NextBounded(4));
    request.merge_fanin = static_cast<int>(rng.NextBounded(16));
    std::string bytes = cubrick::wire::EncodeClientQuery(request);
    auto decoded = cubrick::wire::DecodeClientQuery(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(request.join_strategy, decoded->join_strategy);
    EXPECT_EQ(request.merge_fanin, decoded->merge_fanin);
    // The client envelope keeps the absolute deadline: the node proxy is
    // the budget's origin.
    EXPECT_EQ(request.deadline, decoded->deadline);
    EXPECT_EQ(request.query.deadline, decoded->query.deadline);
    EXPECT_EQ(request.claim.pool_path, decoded->claim.pool_path);
    EXPECT_EQ(request.claim.priority, decoded->claim.priority);
    EXPECT_DOUBLE_EQ(request.claim.weight_hint, decoded->claim.weight_hint);
    EXPECT_EQ(bytes, cubrick::wire::EncodeClientQuery(*decoded));

    cubrick::wire::ClientRowsEnvelope rows;
    for (uint64_t r = 0, n = rng.NextBounded(20); r < n; ++r) {
      cubrick::ResultRow row;
      for (uint64_t k = 0, m = rng.NextBounded(4); k < m; ++k) {
        row.key.push_back(static_cast<uint32_t>(rng.Next()));
      }
      for (uint64_t v = 0, m = 1 + rng.NextBounded(3); v < m; ++v) {
        row.values.push_back(rng.NextDouble() * 1e9 - 5e8);
      }
      rows.rows.push_back(std::move(row));
    }
    rows.region = static_cast<cluster::RegionId>(rng.NextBounded(8));
    rows.attempts = static_cast<int>(rng.NextBounded(5));
    rows.fanout = static_cast<int>(rng.NextBounded(40));
    rows.latency = static_cast<SimDuration>(rng.NextBounded(1u << 30));
    std::string rbytes = cubrick::wire::EncodeClientRows(rows);
    auto rdecoded = cubrick::wire::DecodeClientRows(rbytes);
    ASSERT_TRUE(rdecoded.ok());
    EXPECT_EQ(rbytes, cubrick::wire::EncodeClientRows(*rdecoded));
    EXPECT_FALSE(
        cubrick::wire::DecodeClientRows(rbytes.substr(0, rbytes.size() / 3))
            .ok());
  }
}

TEST(WireDifferentialTest, GarbagePayloadsRejected) {
  Rng rng(0xBAD);
  for (int i = 0; i < 200; ++i) {
    std::string garbage;
    for (uint64_t n = rng.NextBounded(64); garbage.size() < n;) {
      garbage.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    // None of these may crash; nearly all must reject. (A tiny garbage
    // payload can decode as a degenerate-but-valid message; the
    // re-encode byte-compare in the suites above is what catches any
    // such false accept drifting from the canonical encoding.)
    (void)cubrick::wire::DecodeSubqueryRequest(garbage);
    (void)cubrick::wire::DecodeSubqueryResponse(garbage);
    (void)cubrick::wire::DecodeCoordinateRequest(garbage);
    (void)cubrick::wire::DecodeCoordinateResponse(garbage);
    (void)cubrick::wire::DecodeEpochRequest(garbage);
    (void)cubrick::wire::DecodeEpochResponse(garbage);
    (void)cubrick::wire::DecodeClientQuery(garbage);
    (void)cubrick::wire::DecodeClientRows(garbage);
  }
}

// --- telemetry blocks (net/telemetry.h): version-skew hardening ---
//
// Telemetry blocks are advisory riders: every malformed block must
// yield a *stable* Status the caller can count and drop — never a
// crash, never a silent misdecode, and never a failure of the
// enclosing request (that part is enforced in node_telemetry_test).

std::vector<obs::SpanRecord> SampleSpans() {
  obs::TraceSink sink;
  obs::TraceContext root = sink.StartTrace("partition ads/p3", 100);
  root.Annotate("server", "s1");
  root.Annotate("rows_scanned", "1234");
  obs::TraceContext morsel = root.Child("morsel 0", 110);
  morsel.End(150);
  root.End(200);
  return sink.Spans(root.trace);
}

TEST(TelemetryCodecTest, TraceContextRoundTrip) {
  net::TraceContextBlock ctx;
  ctx.want_spans = true;
  ctx.trace_id = 0xDEADBEEFCAFEF00Dull;
  ctx.span_id = 42;
  ctx.origin = "proxy";
  const std::string block = net::EncodeTraceContext(ctx);
  ASSERT_FALSE(block.empty());

  net::TraceContextBlock decoded;
  ASSERT_TRUE(net::DecodeTraceContext(block, &decoded).ok());
  EXPECT_TRUE(decoded.want_spans);
  EXPECT_EQ(ctx.trace_id, decoded.trace_id);
  EXPECT_EQ(ctx.span_id, decoded.span_id);
  EXPECT_EQ("proxy", decoded.origin);

  // Disabled context encodes to the empty block; the empty block
  // decodes as "no telemetry", not as an error.
  EXPECT_TRUE(net::EncodeTraceContext({}).empty());
  ASSERT_TRUE(net::DecodeTraceContext("", &decoded).ok());
  EXPECT_FALSE(decoded.want_spans);
}

TEST(TelemetryCodecTest, SpanBatchRoundTrip) {
  const std::vector<obs::SpanRecord> spans = SampleSpans();
  ASSERT_GE(spans.size(), 2u);
  const std::string block = net::EncodeSpanBatch(spans);

  std::vector<obs::SpanRecord> decoded;
  ASSERT_TRUE(net::DecodeSpanBatch(block, &decoded).ok());
  ASSERT_EQ(spans.size(), decoded.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, decoded[i].id);
    EXPECT_EQ(spans[i].parent, decoded[i].parent);
    EXPECT_EQ(spans[i].name, decoded[i].name);
    EXPECT_EQ(spans[i].start, decoded[i].start);
    EXPECT_EQ(spans[i].end, decoded[i].end);
    EXPECT_EQ(spans[i].tags, decoded[i].tags);
  }
  // Re-encode is byte-stable.
  EXPECT_EQ(block, net::EncodeSpanBatch(decoded));
  // Empty batch <-> empty block.
  EXPECT_TRUE(net::EncodeSpanBatch({}).empty());
  ASSERT_TRUE(net::DecodeSpanBatch("", &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(TelemetryCodecTest, UnknownVersionRejectedAsVersionSkew) {
  std::string trace_block = net::EncodeTraceContext(
      {/*want_spans=*/true, /*trace_id=*/1, /*span_id=*/2, "proxy"});
  trace_block[0] = static_cast<char>(net::kTelemetryVersion + 1);
  net::TraceContextBlock ctx;
  Status status = net::DecodeTraceContext(trace_block, &ctx);
  EXPECT_EQ(StatusCode::kUnimplemented, status.code());
  EXPECT_EQ("version", net::TelemetryDecodeErrorKind(status));
  EXPECT_FALSE(ctx.want_spans) << "a rejected block must leave no state";

  std::string span_block = net::EncodeSpanBatch(SampleSpans());
  span_block[0] = static_cast<char>(0xFF);
  std::vector<obs::SpanRecord> spans;
  status = net::DecodeSpanBatch(span_block, &spans);
  EXPECT_EQ(StatusCode::kUnimplemented, status.code());
  EXPECT_EQ("version", net::TelemetryDecodeErrorKind(status));
  EXPECT_TRUE(spans.empty());
}

TEST(TelemetryCodecTest, TruncationAtEveryByteYieldsStableStatus) {
  const std::string trace_block = net::EncodeTraceContext(
      {/*want_spans=*/true, /*trace_id=*/7, /*span_id=*/9, "proxy"});
  // Every strict nonempty prefix must fail (the empty block is the
  // legitimate "no telemetry" encoding, not a truncation).
  for (size_t cut = 1; cut < trace_block.size(); ++cut) {
    net::TraceContextBlock ctx;
    Status status =
        net::DecodeTraceContext(trace_block.substr(0, cut), &ctx);
    EXPECT_EQ(StatusCode::kInvalidArgument, status.code()) << "cut " << cut;
    EXPECT_EQ("truncated", net::TelemetryDecodeErrorKind(status));
    EXPECT_FALSE(ctx.want_spans);
  }

  const std::string span_block = net::EncodeSpanBatch(SampleSpans());
  for (size_t cut = 1; cut < span_block.size(); ++cut) {
    std::vector<obs::SpanRecord> spans;
    Status status = net::DecodeSpanBatch(span_block.substr(0, cut), &spans);
    EXPECT_FALSE(status.ok()) << "cut " << cut;
    EXPECT_TRUE(spans.empty()) << "cut " << cut;
  }

  // Trailing garbage is rejected too: exhausted() means *exact*.
  std::vector<obs::SpanRecord> spans;
  EXPECT_FALSE(net::DecodeSpanBatch(span_block + "x", &spans).ok());
  net::TraceContextBlock ctx;
  EXPECT_FALSE(net::DecodeTraceContext(trace_block + "x", &ctx).ok());
}

TEST(TelemetryCodecTest, ForgedCountsRejectedBeforeAllocation) {
  // A forged span count larger than the cap fails kResourceExhausted.
  net::WireWriter oversize;
  oversize.U8(net::kTelemetryVersion);
  oversize.U32(net::kMaxSpansPerBatch + 1);
  std::vector<obs::SpanRecord> spans;
  Status status = net::DecodeSpanBatch(std::move(oversize).str(), &spans);
  EXPECT_EQ(StatusCode::kResourceExhausted, status.code());
  EXPECT_EQ("oversize", net::TelemetryDecodeErrorKind(status));

  // A count under the cap but far beyond the payload's bytes fails as
  // truncated *before* any per-span allocation happens.
  net::WireWriter forged;
  forged.U8(net::kTelemetryVersion);
  forged.U32(net::kMaxSpansPerBatch);
  status = net::DecodeSpanBatch(std::move(forged).str(), &spans);
  EXPECT_EQ(StatusCode::kInvalidArgument, status.code());

  // A forged per-span tag count beyond kMaxTagsPerSpan is oversize.
  net::WireWriter tags;
  tags.U8(net::kTelemetryVersion);
  tags.U32(1);
  tags.U64(1);                           // id
  tags.U64(0);                           // parent
  tags.Str("partition ads/p0");          // name
  tags.I64(0);                           // start
  tags.I64(1);                           // end
  tags.U32(net::kMaxTagsPerSpan + 1);    // forged tag count
  status = net::DecodeSpanBatch(std::move(tags).str(), &spans);
  EXPECT_EQ(StatusCode::kResourceExhausted, status.code());
  EXPECT_EQ("oversize", net::TelemetryDecodeErrorKind(status));
}

TEST(TelemetryCodecTest, RandomGarbageNeverCrashesOrMisdecodes) {
  Rng rng(0x7E1E);
  const std::string valid = net::EncodeSpanBatch(SampleSpans());
  for (int i = 0; i < 500; ++i) {
    std::string garbage;
    for (uint64_t n = rng.NextBounded(96); garbage.size() < n;) {
      garbage.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    net::TraceContextBlock ctx;
    (void)net::DecodeTraceContext(garbage, &ctx);
    std::vector<obs::SpanRecord> spans;
    (void)net::DecodeSpanBatch(garbage, &spans);

    // Bit-flip fuzz over a valid block: decode either rejects cleanly
    // or round-trips to a canonical re-encoding — never crashes.
    std::string flipped = valid;
    flipped[rng.NextBounded(flipped.size())] ^=
        static_cast<char>(1u << rng.NextBounded(8));
    if (net::DecodeSpanBatch(flipped, &spans).ok()) {
      EXPECT_EQ(flipped, net::EncodeSpanBatch(spans));
    } else {
      EXPECT_TRUE(spans.empty());
    }
  }
}

TEST(TelemetryCodecTest, DecodeCountersClassifyAndExport) {
  obs::MetricsRegistry registry;
  net::TelemetryDecodeCounters counters(&registry);

  counters.Bump(Status::Unimplemented("v2"));
  counters.Bump(Status::InvalidArgument("short"));
  counters.Bump(Status::InvalidArgument("short"));
  counters.Bump(Status::ResourceExhausted("big"));
  counters.Bump(Status::Ok());  // never counted

  const std::string exported = registry.ExportPrometheus();
  EXPECT_NE(std::string::npos,
            exported.find(
                "scalewall_net_decode_errors_total{kind=\"version\"} 1"));
  EXPECT_NE(std::string::npos,
            exported.find(
                "scalewall_net_decode_errors_total{kind=\"truncated\"} 2"));
  EXPECT_NE(std::string::npos,
            exported.find(
                "scalewall_net_decode_errors_total{kind=\"oversize\"} 1"));

  // Registry-less counters are inert, not unsafe.
  net::TelemetryDecodeCounters orphan(nullptr);
  orphan.Bump(Status::InvalidArgument("short"));
}

}  // namespace
}  // namespace scalewall
