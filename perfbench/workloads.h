// The three perfbench workloads. Each runs in a fresh process, builds its
// own inputs from the seed, measures closed-loop windows of a fixed
// query count for about `seconds`, checks every answer, and returns the
// end-to-end metrics (trace off) or the per-layer metrics (trace on).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// socket_scan: 1 proxy + 2 servers over real sockets, 8 partitions of
// 250k rows (2M in all), 4 clients. Why: the servers' brick scan is
// almost all of the CPU and partials are small, while the proxy's single
// handler thread queues the 4 clients — scan-kernel and
// proxy-concurrency changes show. Run by hand only: host CPU steal
// swings its QPS and latencies far past any bound (NOTES.md).
RunResult RunSocketScan(const RunOptions& options);

// socket_fanout: the same processes over 64 partitions of 500 rows,
// 1 client, GROUP BY day, region, product (about 10,600 of the 16,384
// groups; each partial holds ~165 of the 192 a partition can), half
// flat merges and half trees of fan-in 8. Why: the paper's wall —
// per-query cost is subquery encode/decode, frames, bytes, merge and
// materialize, and with one client nothing queues at the proxy.
RunResult RunSocketFanout(const RunOptions& options);

// sim_mixed: core::Deployment on the sim transport (2 regions x 2 racks
// x 4 servers) with result caching and two-pool admission, driven by a
// single-threaded script of Zipf dashboard repeats, ad-hoc misses,
// ingest batches and background RunFor. Why: the only path through
// proxy -> admit -> planner -> coordinator -> server caches -> SM, with
// writes beside reads so a cache change that costs ingest shows.
RunResult RunSimMixed(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
