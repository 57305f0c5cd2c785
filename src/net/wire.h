// scalewall::net wire format: length-prefixed binary frames.
//
// Every message on a scalewall transport — sim backend and real sockets
// alike — is one frame:
//
//   offset  size  field
//   0       4     payload length N (little-endian u32; bytes after this
//                 field, i.e. version + type + correlation + payload)
//   4       1     wire version (kWireVersion)
//   5       1     frame type (FrameType)
//   6       8     correlation id (little-endian u64; a response echoes
//                 its request's id)
//   14      N-10  payload (message-specific, see cubrick/wire.h)
//
// The payload encoding is fixed-width little-endian throughout: no
// varints, no alignment, doubles as their IEEE-754 bit pattern (so
// aggregation states round-trip bit-for-bit — the property the
// byte-identical-results guarantee rests on). Strings and vectors are
// u32-length-prefixed.
//
// Robustness rules (enforced by FrameDecoder and tested in
// net_wire_test): a frame longer than kMaxFramePayload is rejected
// before buffering (a 4-byte header cannot commit us to unbounded
// memory), a version byte other than kWireVersion rejects the frame,
// and a WireReader that runs off the end of a payload poisons itself —
// all subsequent reads return defaults and ok() is false, so decoders
// check once at the end instead of after every field.

#ifndef SCALEWALL_NET_WIRE_H_
#define SCALEWALL_NET_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace scalewall::net {

// Bumped whenever the frame layout or any payload encoding changes
// incompatibly. Decoders reject other versions outright: a mixed-version
// cluster fails loudly at the first frame instead of misdecoding.
// v3: ResourceClaim (pool_path/priority/weight_hint) replaced the flat
// tenant_id+priority pair in the client-query payload, and the
// coordinate/subquery/tree-merge envelopes gained a pool_path field.
// v4: query results travel column-wise (arity once, the key column,
// then one column per AggState field).
// v5: the scan-path byte left the client-query payload and the
// coordinate/subquery/tree-merge envelopes.
inline constexpr uint8_t kWireVersion = 5;

// Hard cap on one frame's payload. Large enough for any merged result
// the coordinator ships today; small enough that a garbage length
// prefix cannot commit a connection to buffering gigabytes.
inline constexpr uint32_t kMaxFramePayload = 32u << 20;  // 32 MiB

// Bytes preceding the payload: length(4) + version(1) + type(1) +
// correlation(8).
inline constexpr size_t kFrameHeaderBytes = 14;

// Frame types. Values are wire-stable: never renumber, only append.
enum class FrameType : uint8_t {
  kPing = 1,
  kPong = 2,
  // coordinator -> partition host: execute one partition's partial.
  kSubqueryRequest = 10,
  kSubqueryResponse = 11,
  // proxy -> coordinator: run the whole in-region distributed attempt.
  kCoordinateRequest = 12,
  kCoordinateResponse = 13,
  // proxy -> region: collect partition epochs (merged-cache validation).
  kEpochRequest = 14,
  kEpochResponse = 15,
  // client -> proxy node: a full QueryRequest; response carries rows.
  kClientQuery = 16,
  kClientRows = 17,
  // coordinator -> aggregator server: merge a subtree of partition
  // partials (k-ary tree merge) and return the combined AggStates.
  kTreeMergeRequest = 18,
  kTreeMergeResponse = 19,
  // coordinator -> dim-replica host: map a shuffle bucket's raw join
  // keys to dimension attributes (stage 2 of a shuffle join).
  kShuffleMapRequest = 20,
  kShuffleMapResponse = 21,
  // A handler-side failure: payload is a wire-encoded Status.
  kError = 63,
};

std::string_view FrameTypeName(FrameType type);

// U32Vec copies host values as they lie: the wire's little-endian order.
static_assert(std::endian::native == std::endian::little);

// Appends fixed-width little-endian fields to a byte buffer.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I32(int32_t v) { AppendLe(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  // IEEE-754 bit pattern: NaN payloads, signed zeros and all round-trip
  // exactly.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void U32Vec(std::span<const uint32_t> v) {
    U32(static_cast<uint32_t>(v.size()));
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
  }
  void U64Vec(const std::vector<uint64_t>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (uint64_t x : v) U64(x);
  }
  void F64Vec(const std::vector<double>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (double x : v) F64(x);
  }

  const std::string& str() const& { return buf_; }
  std::string str() && { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void AppendLe(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
};

// Bounds-checked reader over one payload. A read past the end (or a
// length prefix pointing past the end) poisons the reader: every
// subsequent read returns a default value and ok() is false. Decoders
// validate with a single ok() check after reading all fields.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint16_t U16() { return ReadLe<uint16_t>(); }
  uint32_t U32() { return ReadLe<uint32_t>(); }
  uint64_t U64() { return ReadLe<uint64_t>(); }
  int32_t I32() { return static_cast<int32_t>(ReadLe<uint32_t>()); }
  int64_t I64() { return static_cast<int64_t>(ReadLe<uint64_t>()); }
  bool Bool() { return U8() != 0; }
  // A one-byte enum whose values run 0..`last`: a larger byte poisons
  // the reader like a truncation, so an unnamed value never decodes.
  template <typename Enum>
  Enum Enum8(Enum last) {
    const uint8_t v = U8();
    if (v > static_cast<uint8_t>(last)) ok_ = false;
    return ok_ ? static_cast<Enum>(v) : Enum{};
  }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!Need(n)) return {};
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  std::vector<uint32_t> U32Vec() {
    uint32_t n = U32();
    if (!NeedElems(n, 4)) return {};
    std::vector<uint32_t> v(n);
    if (n > 0) std::memcpy(v.data(), data_.data() + pos_, 4 * size_t{n});
    pos_ += 4 * size_t{n};
    return v;
  }
  std::vector<uint64_t> U64Vec() {
    uint32_t n = U32();
    if (!NeedElems(n, 8)) return {};
    std::vector<uint64_t> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i) v.push_back(U64());
    return v;
  }
  std::vector<double> F64Vec() {
    uint32_t n = U32();
    if (!NeedElems(n, 8)) return {};
    std::vector<double> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i) v.push_back(F64());
    return v;
  }

  // Guards a count prefix before a loop of per-element decodes whose
  // element size isn't fixed (e.g. vectors of strings): ensures at
  // least `min_bytes_each * n` bytes remain, so a forged count cannot
  // drive a multi-gigabyte reserve().
  bool CheckCount(uint32_t n, size_t min_bytes_each) {
    return NeedElems(n, min_bytes_each);
  }

  bool ok() const { return ok_; }
  // True when the whole payload was consumed (trailing garbage is a
  // decode error for fixed-shape messages).
  bool exhausted() const { return ok_ && pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  bool NeedElems(uint64_t n, uint64_t elem_bytes) {
    if (!ok_ || (data_.size() - pos_) < n * elem_bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }
  template <typename T>
  T ReadLe() {
    if (!Need(sizeof(T))) return 0;
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// One decoded frame.
struct Frame {
  FrameType type = FrameType::kPing;
  uint64_t correlation = 0;
  std::string payload;
};

// Renders a complete frame (header + payload) ready for a socket.
std::string EncodeFrame(FrameType type, uint64_t correlation,
                        std::string_view payload);

// Incremental frame parser over a connection's receive buffer.
// Feed() appends raw bytes; Next() pops the next complete frame.
// A malformed frame (bad version, oversized length) poisons the decoder
// permanently — the owning connection must be torn down, since the byte
// stream can no longer be trusted to be frame-aligned.
class FrameDecoder {
 public:
  void Feed(std::string_view bytes) { buf_.append(bytes.data(), bytes.size()); }

  // Returns true and fills `frame` when a complete frame was buffered.
  // Returns false with ok() still true when more bytes are needed, and
  // false with ok() false (and a diagnostic in error()) on garbage.
  bool Next(Frame* frame);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  bool ok_ = true;
  std::string error_;
};

// Status <-> wire. The code travels as its stable integer
// (StatusCodeToInt / Status::FromCode), never as a string: codes
// survive serialization without string parsing, and unknown integers
// from newer peers degrade to kInternal instead of misclassifying.
void EncodeStatus(WireWriter& w, const Status& status);
Status DecodeStatus(WireReader& r);

}  // namespace scalewall::net

#endif  // SCALEWALL_NET_WIRE_H_
