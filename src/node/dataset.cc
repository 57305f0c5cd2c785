#include "node/dataset.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/hash.h"
#include "common/random.h"

namespace scalewall::node {

const std::string& DatasetTable() {
  static const std::string kTable = "ads";
  return kTable;
}

cubrick::TableSchema DatasetSchema() {
  cubrick::TableSchema schema;
  schema.dimensions = {
      {"day", /*cardinality=*/32, /*range_size=*/8},
      {"region", /*cardinality=*/8, /*range_size=*/2},
      {"product", /*cardinality=*/64, /*range_size=*/16},
  };
  schema.metrics = {{"spend"}, {"clicks"}};
  return schema;
}

std::vector<cubrick::Row> GenerateRows(const DatasetOptions& options) {
  Rng rng(options.seed);
  const cubrick::TableSchema schema = DatasetSchema();
  std::vector<cubrick::Row> rows;
  rows.reserve(options.num_rows);
  for (uint64_t i = 0; i < options.num_rows; ++i) {
    cubrick::Row row;
    row.dims.reserve(schema.dimensions.size());
    for (const cubrick::Dimension& dim : schema.dimensions) {
      row.dims.push_back(
          static_cast<uint32_t>(rng.NextBounded(dim.cardinality)));
    }
    // Metric values with full double mantissas, so an encoder that is
    // lossy in any bit shows up as a result mismatch.
    row.metrics.push_back(rng.NextDouble() * 1000.0);
    row.metrics.push_back(static_cast<double>(rng.NextBounded(50)));
    rows.push_back(std::move(row));
  }
  return rows;
}

const std::string& DatasetDimTable() {
  static const std::string kTable = "product_dim";
  return kTable;
}

cubrick::ReplicatedTable BuildDimTable() {
  cubrick::ReplicatedTable dim(DatasetDimTable(), /*key_cardinality=*/64,
                               {{"category", /*cardinality=*/8,
                                 /*range_size=*/2}});
  for (uint32_t k = 0; k < 64; ++k) {
    if (k % 13 == 0) continue;  // unset keys: inner-join drops
    dim.Set({k, {(k * 7 + 3) % 8}});
  }
  dim.set_epoch(1);
  return dim;
}

cubrick::Catalog BuildCatalog(uint32_t num_partitions) {
  cubrick::Catalog catalog(/*max_shards=*/std::max(64u, num_partitions));
  (void)catalog.CreateTable(DatasetTable(), DatasetSchema(), num_partitions);
  (void)catalog.CreateReplicatedTable(DatasetDimTable(),
                                      /*key_cardinality=*/64,
                                      {{"category", /*cardinality=*/8,
                                        /*range_size=*/2}});
  return catalog;
}

const cubrick::Catalog& DatasetCatalog() {
  static const cubrick::Catalog* catalog =
      new cubrick::Catalog(BuildCatalog(DatasetOptions().num_partitions));
  return *catalog;
}

uint32_t PartitionForRow(const std::string& table, const cubrick::Row& row,
                         uint32_t num_partitions) {
  uint64_t h = HashString(table);
  for (uint32_t v : row.dims) h = HashCombine(h, HashInt(v));
  return static_cast<uint32_t>(h % num_partitions);
}

uint32_t ServerForPartition(uint32_t partition, uint32_t num_servers) {
  return num_servers == 0 ? 0 : partition % num_servers;
}

std::vector<std::vector<cubrick::Row>> PartitionRows(
    const DatasetOptions& options) {
  std::vector<std::vector<cubrick::Row>> buckets(options.num_partitions);
  if (buckets.empty()) return buckets;
  for (cubrick::Row& row : GenerateRows(options)) {
    buckets[PartitionForRow(DatasetTable(), row, options.num_partitions)]
        .push_back(std::move(row));
  }
  return buckets;
}

Result<cubrick::TablePartition> BuildPartition(const DatasetOptions& options,
                                               uint32_t partition) {
  cubrick::TablePartition part(DatasetTable(), partition, DatasetSchema());
  for (const cubrick::Row& row : GenerateRows(options)) {
    if (PartitionForRow(DatasetTable(), row, options.num_partitions) ==
        partition) {
      SCALEWALL_RETURN_IF_ERROR(part.Insert(row));
    }
  }
  return part;
}

Result<std::vector<cubrick::ResultRow>> ExecuteLocal(
    const DatasetOptions& options, const cubrick::Query& query) {
  SCALEWALL_RETURN_IF_ERROR(query.Validate(DatasetSchema()));
  const cubrick::ReplicatedTable dim = BuildDimTable();
  cubrick::JoinContext join;
  for (const cubrick::Join& j : query.joins) {
    if (j.dimension_table != DatasetDimTable()) {
      return Status::NotFound("unknown dimension table " + j.dimension_table);
    }
    join.tables.push_back(&dim);
  }
  const cubrick::JoinContext* jctx = query.joins.empty() ? nullptr : &join;
  cubrick::QueryResult merged(query.aggregations.size());
  const std::vector<std::vector<cubrick::Row>> buckets = PartitionRows(options);
  for (uint32_t p = 0; p < buckets.size(); ++p) {
    cubrick::TablePartition part(DatasetTable(), p, DatasetSchema());
    for (const cubrick::Row& row : buckets[p]) {
      SCALEWALL_RETURN_IF_ERROR(part.Insert(row));
    }
    cubrick::QueryResult partial(query.aggregations.size());
    SCALEWALL_RETURN_IF_ERROR(part.Execute(query, partial, jctx));
    merged.Merge(partial);
  }
  return cubrick::MaterializeRows(merged, query);
}

std::string FormatResultRows(const std::vector<cubrick::ResultRow>& rows) {
  std::string out;
  char buf[64];
  for (const cubrick::ResultRow& row : rows) {
    for (size_t i = 0; i < row.key.size(); ++i) {
      if (i > 0) out += ',';
      std::snprintf(buf, sizeof(buf), "%" PRIu32, row.key[i]);
      out += buf;
    }
    out += " |";
    for (double v : row.values) {
      std::snprintf(buf, sizeof(buf), " %.17g", v);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace scalewall::node
