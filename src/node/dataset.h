// Deterministic demo dataset shared by every scalewall_node role.
//
// All roles of a local cluster (servers, proxy, client, oracle) must
// agree on the data without any coordination, so the dataset is a pure
// function of (seed, num_partitions, num_rows): the same fixed "ads"
// schema, the same generated rows, the same record -> partition
// assignment (the hash core::Deployment uses) and the same
// partition -> server placement. That is what makes a fan-out query
// against real scalewall_node processes byte-comparable to an oracle
// run in a single process — and to a sim Deployment loaded with the
// same rows.

#ifndef SCALEWALL_NODE_DATASET_H_
#define SCALEWALL_NODE_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "cubrick/catalog.h"
#include "cubrick/partition.h"
#include "cubrick/query.h"
#include "cubrick/replicated_table.h"
#include "cubrick/schema.h"

namespace scalewall::node {

struct DatasetOptions {
  uint64_t seed = 42;
  uint32_t num_partitions = 8;
  uint64_t num_rows = 20000;
};

// Table name ("ads") and its fixed schema: dimensions day(32)/region(8)/
// product(64), metrics spend/clicks.
const std::string& DatasetTable();
cubrick::TableSchema DatasetSchema();

// Replicated dimension table every role rebuilds identically:
// "product_dim" maps the product key domain [0, 64) to a "category"
// attribute (cardinality 8). Keys divisible by 13 are deliberately
// unset so join queries exercise the inner-join drop path. The content
// epoch is fixed at 1 — node processes never draw from the
// process-global epoch counter (each process has its own), a fixed
// stamp is what keeps cache validation coherent across the cluster.
const std::string& DatasetDimTable();
cubrick::ReplicatedTable BuildDimTable();

// Catalog holding the "ads" table at `num_partitions` partitions and
// "product_dim": what a node server resolves partitions and joins
// against. Without the table when `num_partitions` is 0 or above the
// catalog's shard space.
cubrick::Catalog BuildCatalog(uint32_t num_partitions);

// BuildCatalog at the default partition count — what the SQL front-end
// needs to resolve JOIN clauses in the client/oracle roles.
const cubrick::Catalog& DatasetCatalog();

// All rows of the dataset, in generation order.
std::vector<cubrick::Row> GenerateRows(const DatasetOptions& options);

// Deterministic record -> partition assignment; must match
// core::Deployment's (hash of table name and all dimension values).
uint32_t PartitionForRow(const std::string& table, const cubrick::Row& row,
                         uint32_t num_partitions);

// Static partition -> server placement for node clusters: partition p
// lives on server (p mod num_servers).
uint32_t ServerForPartition(uint32_t partition, uint32_t num_servers);

// All rows bucketed by partition in one pass over the dataset: bucket p
// holds partition p's share in generation order, as Deployment::LoadRows
// buckets them.
std::vector<std::vector<cubrick::Row>> PartitionRows(
    const DatasetOptions& options);

// Builds partition `partition` loaded with its share of the rows.
// Generates the whole dataset per call: loading many partitions goes
// through PartitionRows instead.
Result<cubrick::TablePartition> BuildPartition(const DatasetOptions& options,
                                               uint32_t partition);

// Oracle: executes `query` directly against every partition, merging
// partials in ascending partition order — the coordinator's merge order
// — and materializing with the query's ORDER BY / LIMIT. Join queries
// probe BuildDimTable() replicas, exactly as the servers do, so the
// oracle stays the byte-level reference for every join strategy whose
// aggregation states are exact (see DESIGN.md §15 on float sums).
Result<std::vector<cubrick::ResultRow>> ExecuteLocal(
    const DatasetOptions& options, const cubrick::Query& query);

// Canonical text form of materialized rows: one row per line, dimension
// codes then `|` then aggregate values rendered with %.17g (lossless
// for doubles). The client and oracle roles print exactly this, so a
// shell diff is a bit-level result comparison.
std::string FormatResultRows(const std::vector<cubrick::ResultRow>& rows);

}  // namespace scalewall::node

#endif  // SCALEWALL_NODE_DATASET_H_
