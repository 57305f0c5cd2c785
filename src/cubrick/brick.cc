#include "cubrick/brick.h"

#include <algorithm>

#include "common/logging.h"

namespace scalewall::cubrick {

BrickId BrickIdForRow(const TableSchema& schema,
                      const std::vector<uint32_t>& dims) {
  BrickId id = 0;
  for (size_t d = 0; d < schema.dimensions.size(); ++d) {
    const Dimension& dim = schema.dimensions[d];
    uint32_t bucket = dims[d] / dim.range_size;
    id = id * dim.num_buckets() + bucket;
  }
  return id;
}

uint32_t BrickBucket(const TableSchema& schema, BrickId id, int dim) {
  // Walk the mixed radix from the least significant (last) dimension.
  for (int d = static_cast<int>(schema.dimensions.size()) - 1; d >= 0; --d) {
    uint32_t buckets = schema.dimensions[d].num_buckets();
    uint32_t digit = static_cast<uint32_t>(id % buckets);
    if (d == dim) return digit;
    id /= buckets;
  }
  return 0;
}

uint64_t BrickSpace(const TableSchema& schema) {
  uint64_t total = 1;
  for (const Dimension& d : schema.dimensions) {
    total *= d.num_buckets();
  }
  return total;
}

Brick::Brick(Brick&& other) noexcept
    : id_(other.id_),
      state_(other.state_.load(std::memory_order_relaxed)),
      num_rows_(other.num_rows_),
      hotness_(other.hotness_.load(std::memory_order_relaxed)),
      dims_(std::move(other.dims_)),
      metrics_(std::move(other.metrics_)),
      rollup_index_(std::move(other.rollup_index_)),
      rollup_index_valid_(other.rollup_index_valid_),
      encoded_dims_(std::move(other.encoded_dims_)),
      encoded_metrics_(std::move(other.encoded_metrics_)) {}

Brick& Brick::operator=(Brick&& other) noexcept {
  if (this == &other) return *this;
  id_ = other.id_;
  state_.store(other.state_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  num_rows_ = other.num_rows_;
  hotness_.store(other.hotness_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  dims_ = std::move(other.dims_);
  metrics_ = std::move(other.metrics_);
  rollup_index_ = std::move(other.rollup_index_);
  rollup_index_valid_ = other.rollup_index_valid_;
  encoded_dims_ = std::move(other.encoded_dims_);
  encoded_metrics_ = std::move(other.encoded_metrics_);
  return *this;
}

void Brick::Append(const std::vector<uint32_t>& dims,
                   const std::vector<double>& metrics) {
  EnsureUncompressed(nullptr);
  SCALEWALL_CHECK(dims.size() == dims_.size()) << "dimension arity mismatch";
  SCALEWALL_CHECK(metrics.size() == metrics_.size()) << "metric arity mismatch";
  for (size_t d = 0; d < dims.size(); ++d) dims_[d].push_back(dims[d]);
  for (size_t m = 0; m < metrics.size(); ++m) metrics_[m].push_back(metrics[m]);
  if (rollup_index_valid_) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint32_t v : dims) h = (h ^ v) * 0x100000001b3ULL;
    rollup_index_[h].push_back(static_cast<uint32_t>(num_rows_));
  }
  ++num_rows_;
}

int64_t Brick::FindRow(const std::vector<uint32_t>& dims) {
  if (!rollup_index_valid_) {
    rollup_index_.clear();
    for (size_t row = 0; row < num_rows_; ++row) {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (size_t d = 0; d < dims_.size(); ++d) {
        h = (h ^ dims_[d][row]) * 0x100000001b3ULL;
      }
      rollup_index_[h].push_back(static_cast<uint32_t>(row));
    }
    rollup_index_valid_ = true;
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t v : dims) h = (h ^ v) * 0x100000001b3ULL;
  auto it = rollup_index_.find(h);
  if (it == rollup_index_.end()) return -1;
  for (uint32_t row : it->second) {
    bool match = true;
    for (size_t d = 0; d < dims.size(); ++d) {
      if (dims_[d][row] != dims[d]) {
        match = false;
        break;
      }
    }
    if (match) return row;
  }
  return -1;
}

bool Brick::AppendOrMerge(const std::vector<uint32_t>& dims,
                          const std::vector<double>& metrics) {
  EnsureUncompressed(nullptr);
  int64_t row = FindRow(dims);
  if (row < 0) {
    Append(dims, metrics);
    return true;
  }
  for (size_t m = 0; m < metrics.size(); ++m) {
    metrics_[m][static_cast<size_t>(row)] += metrics[m];
  }
  return false;
}

void Brick::EnsureUncompressed(std::atomic<int64_t>* decompressions) {
  // Fast path: already raw. The release store at the end of the slow
  // path makes the decoded columns visible to any thread that observes
  // kUncompressed here.
  if (state_.load(std::memory_order_acquire) == BrickState::kUncompressed) {
    return;
  }
  std::lock_guard<std::mutex> lock(decompress_mu_);
  if (state_.load(std::memory_order_acquire) == BrickState::kUncompressed) {
    return;  // another morsel decompressed while we queued on the latch
  }
  if (state() == BrickState::kOnSsd) LoadFromSsd();
  Decompress();
  if (decompressions != nullptr) {
    decompressions->fetch_add(1, std::memory_order_relaxed);
  }
}

void Brick::ScanRange(const TableSchema& schema, const Query& query,
                      QueryResult& result,
                      std::atomic<int64_t>* decompressions,
                      const JoinContext* join, size_t row_begin,
                      size_t row_end) {
  EnsureUncompressed(decompressions);
  QueryResult::GroupKey key(query.group_by.size() +
                            query.group_by_joins.size());
  for (size_t row = row_begin; row < row_end; ++row) {
    bool pass = true;
    for (const FilterRange& f : query.filters) {
      uint32_t v = dims_[f.dimension][row];
      if (v < f.lo || v > f.hi) {
        pass = false;
        break;
      }
    }
    for (const FilterIn& f : query.in_filters) {
      if (!pass) break;
      uint32_t v = dims_[f.dimension][row];
      pass = std::find(f.values.begin(), f.values.end(), v) !=
             f.values.end();
    }
    // Joined-attribute filters: inner-join semantics, so a key with no
    // dimension-table entry fails the row.
    for (const JoinFilter& f : query.join_filters) {
      if (!pass) break;
      const Join& j = query.joins[f.join];
      uint32_t attr = join->tables[f.join]->Attribute(
          dims_[j.fact_dimension][row], j.attribute);
      pass = attr != kNoAttribute && attr >= f.lo && attr <= f.hi;
    }
    if (!pass) continue;
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      key[g] = dims_[query.group_by[g]][row];
    }
    bool matched = true;
    for (size_t g = 0; g < query.group_by_joins.size(); ++g) {
      const Join& j = query.joins[query.group_by_joins[g]];
      uint32_t attr = join->tables[query.group_by_joins[g]]->Attribute(
          dims_[j.fact_dimension][row], j.attribute);
      if (attr == kNoAttribute) {
        matched = false;  // inner join: unmatched keys drop out
        break;
      }
      key[query.group_by.size() + g] = attr;
    }
    if (!matched) continue;
    for (size_t a = 0; a < query.aggregations.size(); ++a) {
      const Aggregation& agg = query.aggregations[a];
      double v = agg.op == AggOp::kCount
                     ? 1.0
                     : metrics_[agg.metric][row];
      result.Accumulate(key, a, v);
    }
  }
  result.rows_scanned += static_cast<int64_t>(row_end - row_begin);
  (void)schema;
}

void Brick::Compress() {
  if (state_ != BrickState::kUncompressed) return;
  encoded_dims_.clear();
  encoded_metrics_.clear();
  encoded_dims_.reserve(dims_.size());
  encoded_metrics_.reserve(metrics_.size());
  for (const auto& col : dims_) {
    encoded_dims_.push_back(EncodeDimColumn(col));
  }
  for (const auto& col : metrics_) {
    encoded_metrics_.push_back(EncodeMetricColumn(col));
  }
  for (auto& col : dims_) {
    col.clear();
    col.shrink_to_fit();
  }
  for (auto& col : metrics_) {
    col.clear();
    col.shrink_to_fit();
  }
  // The rollup index references raw row positions; drop it with them.
  rollup_index_.clear();
  rollup_index_valid_ = false;
  state_ = BrickState::kCompressed;
}

void Brick::Decompress() {
  if (state_ == BrickState::kUncompressed) return;
  SCALEWALL_CHECK(state_ != BrickState::kOnSsd)
      << "load from SSD before decompressing";
  for (size_t d = 0; d < encoded_dims_.size(); ++d) {
    auto decoded = DecodeDimColumn(encoded_dims_[d]);
    SCALEWALL_CHECK(decoded.ok()) << decoded.status().ToString();
    dims_[d] = std::move(decoded).value();
  }
  for (size_t m = 0; m < encoded_metrics_.size(); ++m) {
    auto decoded = DecodeMetricColumn(encoded_metrics_[m]);
    SCALEWALL_CHECK(decoded.ok()) << decoded.status().ToString();
    metrics_[m] = std::move(decoded).value();
  }
  encoded_dims_.clear();
  encoded_dims_.shrink_to_fit();
  encoded_metrics_.clear();
  encoded_metrics_.shrink_to_fit();
  state_ = BrickState::kUncompressed;
}

Status Brick::EvictToSsd() {
  if (state_ == BrickState::kOnSsd) return Status::Ok();
  if (state_ == BrickState::kUncompressed) {
    return Status::FailedPrecondition("compress before evicting to SSD");
  }
  state_ = BrickState::kOnSsd;
  return Status::Ok();
}

void Brick::LoadFromSsd() {
  if (state_ != BrickState::kOnSsd) return;
  state_ = BrickState::kCompressed;
}

size_t Brick::MemoryFootprint() const {
  size_t bytes = 0;
  switch (state_) {
    case BrickState::kUncompressed:
      for (const auto& col : dims_) bytes += col.size() * sizeof(uint32_t);
      for (const auto& col : metrics_) bytes += col.size() * sizeof(double);
      break;
    case BrickState::kCompressed:
      for (const auto& col : encoded_dims_) bytes += col.size();
      for (const auto& col : encoded_metrics_) bytes += col.size();
      break;
    case BrickState::kOnSsd:
      bytes = 0;  // resident on SSD only
      break;
  }
  return bytes;
}

size_t Brick::DecompressedSize() const {
  return num_rows_ * (dims_.size() * sizeof(uint32_t) +
                      metrics_.size() * sizeof(double));
}

size_t Brick::SsdFootprint() const {
  if (state_ != BrickState::kOnSsd) return 0;
  size_t bytes = 0;
  for (const auto& col : encoded_dims_) bytes += col.size();
  for (const auto& col : encoded_metrics_) bytes += col.size();
  return bytes;
}

void Brick::ExportRows(std::vector<Row>& out) const {
  // Exporting must not disturb compression state: work on a copy when the
  // brick is compressed.
  if (state_ == BrickState::kUncompressed) {
    for (size_t row = 0; row < num_rows_; ++row) {
      Row r;
      r.dims.reserve(dims_.size());
      r.metrics.reserve(metrics_.size());
      for (const auto& col : dims_) r.dims.push_back(col[row]);
      for (const auto& col : metrics_) r.metrics.push_back(col[row]);
      out.push_back(std::move(r));
    }
    return;
  }
  std::vector<std::vector<uint32_t>> dims(encoded_dims_.size());
  std::vector<std::vector<double>> metrics(encoded_metrics_.size());
  for (size_t d = 0; d < encoded_dims_.size(); ++d) {
    auto decoded = DecodeDimColumn(encoded_dims_[d]);
    SCALEWALL_CHECK(decoded.ok()) << decoded.status().ToString();
    dims[d] = std::move(decoded).value();
  }
  for (size_t m = 0; m < encoded_metrics_.size(); ++m) {
    auto decoded = DecodeMetricColumn(encoded_metrics_[m]);
    SCALEWALL_CHECK(decoded.ok()) << decoded.status().ToString();
    metrics[m] = std::move(decoded).value();
  }
  for (size_t row = 0; row < num_rows_; ++row) {
    Row r;
    for (const auto& col : dims) r.dims.push_back(col[row]);
    for (const auto& col : metrics) r.metrics.push_back(col[row]);
    out.push_back(std::move(r));
  }
}

}  // namespace scalewall::cubrick
