// Brick: one Granular Partitioning data block.
//
// A brick stores, column-wise, all rows whose dimension values fall into
// one combination of per-dimension ranges. Its id encodes that range
// combination, so a filter can decide from the id alone whether the brick
// can contain matching rows (pruning). Bricks are the unit of adaptive
// compression: each carries a hotness counter, can be compressed in place
// (freeing memory) and transparently decompressed when a query touches it,
// and in the third storage generation can additionally be evicted to SSD.

#ifndef SCALEWALL_CUBRICK_BRICK_H_
#define SCALEWALL_CUBRICK_BRICK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "cubrick/codec.h"
#include "cubrick/query.h"
#include "cubrick/replicated_table.h"
#include "cubrick/schema.h"

namespace scalewall::cubrick {

struct VecScanPlan;
struct VecExecState;

using BrickId = uint64_t;

// Computes the brick id for a row's dimension values under `schema`
// (mixed-radix over per-dimension bucket indices).
BrickId BrickIdForRow(const TableSchema& schema,
                      const std::vector<uint32_t>& dims);

// Decodes the per-dimension bucket index of `id` for dimension `dim`.
uint32_t BrickBucket(const TableSchema& schema, BrickId id, int dim);

// Total number of addressable bricks for a schema (product of bucket
// counts; callers should keep this within uint64).
uint64_t BrickSpace(const TableSchema& schema);

// Storage tier a brick currently occupies.
enum class BrickState {
  kUncompressed,  // raw columnar vectors in memory
  kCompressed,    // codec-encoded buffers in memory
  kOnSsd,         // codec-encoded buffers accounted against SSD, not RAM
};

class Brick {
 public:
  Brick(BrickId id, size_t num_dims, size_t num_metrics)
      : id_(id), dims_(num_dims), metrics_(num_metrics) {}

  // Movable (bricks live in maps built single-threaded); the
  // decompression latch is never moved — the destination gets a fresh
  // one. Not copyable.
  Brick(Brick&& other) noexcept;
  Brick& operator=(Brick&& other) noexcept;
  Brick(const Brick&) = delete;
  Brick& operator=(const Brick&) = delete;

  BrickId id() const { return id_; }
  BrickState state() const { return state_.load(std::memory_order_acquire); }
  size_t num_rows() const { return num_rows_; }

  // Appends one row (must belong to this brick). Appending to a
  // compressed brick decompresses it first.
  void Append(const std::vector<uint32_t>& dims,
              const std::vector<double>& metrics);

  // Rollup insert: if a cell with the same dimension vector exists, sums
  // `metrics` into it and returns false; otherwise appends a new cell and
  // returns true. Maintains a lazy dims->row index (rebuilt after
  // decompression as needed).
  bool AppendOrMerge(const std::vector<uint32_t>& dims,
                     const std::vector<double>& metrics);

  // Interpreted (row-at-a-time) scan of rows [row_begin, row_end):
  // accumulates the rows matching every filter into `result`'s group
  // states and rows_scanned. Decompresses transparently if needed
  // (recorded in `decompressions`). `join` must align with query.joins
  // when the query joins replicated tables (inner-join semantics: rows
  // with unmatched keys are dropped). bricks_scanned and the hotness
  // bump are the caller's business — a brick split into many morsels
  // is still one brick scanned once. Safe to call concurrently with
  // other ScanRange calls on the same brick: decompression is
  // serialized behind a latch and the scan itself only reads.
  void ScanRange(const TableSchema& schema, const Query& query,
                 QueryResult& result, std::atomic<int64_t>* decompressions,
                 const JoinContext* join, size_t row_begin, size_t row_end);

  // Vectorized morsel scan (defined in vec_scan.cc): evaluates the
  // compiled `plan` over rows [row_begin, row_end) batch-at-a-time,
  // accumulating into `state`. Selection vectors stay in ascending row
  // order, so each group's aggregation state receives exactly the Add()
  // sequence ScanRange would issue — results are byte-identical. Same
  // concurrency contract as ScanRange.
  void ScanRangeVec(const VecScanPlan& plan, VecExecState& state,
                    std::atomic<int64_t>* decompressions, size_t row_begin,
                    size_t row_end);

  // RLE prefilter (defined in vec_scan.cc): for a *compressed* brick,
  // walks the run-length encoded dimension columns that carry filters,
  // evaluating each predicate once per run, and returns true when no row
  // can pass — the caller may then skip the brick without decompressing
  // it. Returns false for uncompressed/SSD bricks, filterless plans, and
  // on any decode problem (never-skip is always safe). Takes the
  // decompression latch, so it is safe against concurrent state changes.
  bool CanSkipCompressed(const VecScanPlan& plan);

  // --- adaptive compression ---

  // Encodes columns and frees raw vectors. No-op when not uncompressed.
  void Compress();
  // Restores raw vectors. No-op when already uncompressed.
  void Decompress();
  // Moves a compressed brick's accounting to SSD (generation 3). The
  // brick must be compressed first.
  Status EvictToSsd();
  // Brings an SSD brick back to in-memory compressed state.
  void LoadFromSsd();

  // Hotness counter: incremented on access, stochastically decayed by the
  // memory monitor (Section IV-F2). Atomic so concurrent read-scans can
  // bump it without tearing; Decay stays deterministic — it is driven by
  // the monitor's RNG, never by scan interleaving.
  uint32_t hotness() const { return hotness_.load(std::memory_order_relaxed); }
  void Touch() { hotness_.fetch_add(1, std::memory_order_relaxed); }
  void Decay() {
    uint32_t h = hotness_.load(std::memory_order_relaxed);
    while (h > 0 && !hotness_.compare_exchange_weak(
                        h, h - 1, std::memory_order_relaxed)) {
    }
  }

  // --- size accounting ---

  // Bytes currently resident in RAM.
  size_t MemoryFootprint() const;
  // Bytes this brick would occupy fully decompressed (the deterministic
  // generation-2 load-balancing metric).
  size_t DecompressedSize() const;
  // Bytes on SSD (generation 3 metric).
  size_t SsdFootprint() const;

  // Copies all rows out (used for shard migration / recovery).
  void ExportRows(std::vector<Row>& out) const;

 private:
  // Transparent decompression ahead of a scan. Concurrent morsels race
  // here, so the state check + decode runs behind `decompress_mu_` with
  // a lock-free fast path for the (overwhelmingly common) already-
  // uncompressed case; exactly one morsel pays the decode and the
  // counter bump.
  void EnsureUncompressed(std::atomic<int64_t>* decompressions);

  BrickId id_;
  std::atomic<BrickState> state_{BrickState::kUncompressed};
  size_t num_rows_ = 0;
  std::atomic<uint32_t> hotness_{0};
  std::mutex decompress_mu_;

  // Returns the row index holding exactly `dims`, or -1. Builds the
  // rollup index on first use.
  int64_t FindRow(const std::vector<uint32_t>& dims);

  // Raw columns (valid when kUncompressed).
  std::vector<std::vector<uint32_t>> dims_;
  std::vector<std::vector<double>> metrics_;
  // Rollup index: hash(dims) -> row indices (collision chains). Cleared
  // on compression; rebuilt lazily.
  std::unordered_map<uint64_t, std::vector<uint32_t>> rollup_index_;
  bool rollup_index_valid_ = false;
  // Encoded columns (valid when kCompressed/kOnSsd).
  std::vector<std::vector<uint8_t>> encoded_dims_;
  std::vector<std::vector<uint8_t>> encoded_metrics_;
};

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_BRICK_H_
