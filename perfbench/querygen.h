// Seeded workload generator. Everything the program under test receives
// — SQL text, plan hints, ingest rows, the order of operations — is a
// pure function of the --seed argument, so one seed always replays the
// same inputs. Templates fix each query's selectivity and shape and the
// seed picks only positions and values, so the cost of a run's query mix
// stays level from seed to seed.

#ifndef PERFBENCH_QUERYGEN_H_
#define PERFBENCH_QUERYGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cubrick/schema.h"

namespace perfbench {

// One client query: its SQL and the merge-topology hint it pins
// (QueryRequest::merge_fanin: 1 = flat merge, >= 2 = k-ary tree).
struct GeneratedQuery {
  std::string sql;
  int merge_fanin = 0;
};

// socket_scan: filtered group-bys, IN-lists, a product_dim replicated
// join and ORDER BY/LIMIT top-k, `count` distinct queries in rotation
// order (templates interleaved). Every filter keeps about half the rows.
std::vector<GeneratedQuery> ScanQueries(uint64_t seed, int count);

// socket_fanout: GROUP BY day, region, product (up to 12,288 of the
// 16,384 groups) with aggregates that are exact under any merge order,
// so tree and flat merges return the same bytes. Even indices pin the
// flat merge, odd ones a tree of fan-in 8.
std::vector<GeneratedQuery> FanoutQueries(uint64_t seed, int count);

// The order a run issues queries in: `length` indices into a set of
// `distinct` queries, each pass over the set in a fresh seeded shuffle.
std::vector<size_t> Rotation(uint64_t seed, size_t distinct, size_t length);

// sim_mixed: one step of the single-threaded script.
struct SimOp {
  enum class Kind { kDashboard, kAdhoc, kIngest, kRunFor };
  Kind kind = Kind::kDashboard;
  // kDashboard: index into the dashboard set; kAdhoc: index into the
  // ad-hoc SQL list; kIngest: ingest batch seed.
  uint64_t arg = 0;
};

struct SimScript {
  std::vector<std::string> dashboards;  // the repeated set (Zipf-ranked)
  std::vector<std::string> adhoc;       // one-off random-filter queries
  std::vector<SimOp> ops;
  int queries = 0;
};

// sim_mixed's script of `windows` windows. Each window is 250 queries,
// 90% of them Zipf(1.1) draws over 32 repeated dashboards and the rest
// one-off ad-hoc queries, with one ingest batch mid-window and one
// background RunFor at its end.
SimScript MakeSimScript(uint64_t seed, int windows);

}  // namespace perfbench

#endif  // PERFBENCH_QUERYGEN_H_
