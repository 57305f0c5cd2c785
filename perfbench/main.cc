// perfbench: end-to-end and per-layer benchmark of the scalewall stack.
//
//   perfbench --workload socket_scan|socket_fanout|sim_mixed --seed N
//             --seconds S --trace 0|1
//
// Prints one line per metric (value, unit and what it rests on), then,
// as the last line of stdout, the JSON result
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer ones. Exits non-zero if
// any answer differs from its oracle. perfbench/run.py builds and runs
// this binary; see perfbench/NOTES.md for the design.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

struct Name {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks).
const std::vector<Name>& EndToEnd() {
  static const std::vector<Name> kNames = {
      {"qps", "1/s"},
      {"latency_p50_us", "us"},
      {"latency_p95_us", "us"},
      {"cpu_us_per_query", "us"},
      {"success_ratio", "ratio"},
      {"setup_s", "s"},
      {"rss_mb", "MiB"},
      {"ingest_rows_per_s", "rows/s"},
  };
  return kNames;
}

const std::vector<Name>& PerLayer() {
  static const std::vector<Name> kNames = {
      {"node.proxy_queue_us", "us"},
      {"node.proxy_handle_us", "us"},
      {"node.fanout_wait_us", "us"},
      {"node.proxy_self_us", "us"},
      {"node.server_handle_us", "us"},
      {"node.unattributed_us", "us"},
      {"net.subquery_call_us", "us"},
      {"net.subquery_wait_us", "us"},
      {"net.frames_per_query", "count"},
      {"net.bytes_per_query", "bytes"},
      {"net.failed_calls", "count"},
      {"cubrick.sql_parse_us", "us"},
      {"cubrick.wire_encode_us", "us"},
      {"cubrick.wire_decode_us", "us"},
      {"cubrick.partial_bytes", "bytes"},
      {"cubrick.partition_execute_us", "us"},
      {"cubrick.scan_rows_per_s", "rows/s"},
      {"cubrick.rows_scanned_per_query", "count"},
      {"cubrick.bricks_scanned_per_query", "count"},
      {"cubrick.bricks_skipped_per_query", "count"},
      {"cubrick.merge_us", "us"},
      {"cubrick.materialize_us", "us"},
      {"cubrick.planner_us", "us"},
      {"core.query_hit_us", "us"},
      {"core.query_miss_us", "us"},
      {"core.load_rows_us_per_krow", "us"},
      {"core.repartitions", "count"},
      {"cache.proxy_hit_ratio", "ratio"},
      {"cache.server_hit_ratio", "ratio"},
      {"cache.evictions", "count"},
      {"cache.invalidations", "count"},
      {"admit.admitted", "count"},
      {"admit.rejected", "count"},
      {"sim.run_for_us", "us"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return kNames;
}

// Puts the workload's metrics in canonical order. A per-layer metric
// the workload's path never reaches (the sim path has no node proxy,
// the socket path no caches) is reported as 0 and marked n/a.
bool Canonicalize(const std::vector<Name>& names, bool fill_missing,
                  const std::string& workload, RunResult* result) {
  std::map<std::string, Metric> by_name;
  for (Metric& m : result->metrics) by_name[m.name] = std::move(m);
  std::vector<Metric> ordered;
  bool ok = true;
  for (const Name& n : names) {
    auto it = by_name.find(n.name);
    if (it == by_name.end()) {
      if (!fill_missing) {
        std::fprintf(stderr, "metric %s missing\n", n.name);
        ok = false;
      }
      ordered.push_back(Metric{n.name, 0.0, n.unit,
                               "n/a: this layer does no work in " + workload});
      continue;
    }
    if (it->second.unit != n.unit) {
      std::fprintf(stderr, "metric %s has unit %s, expected %s\n", n.name,
                   it->second.unit.c_str(), n.unit);
      ok = false;
    }
    ordered.push_back(std::move(it->second));
    by_name.erase(it);
  }
  for (const auto& [name, m] : by_name) {
    std::fprintf(stderr, "unexpected metric %s\n", name.c_str());
    ok = false;
  }
  result->metrics = std::move(ordered);
  return ok;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// Numbers from an unoptimized or instrumented binary are not the
// system's numbers; refuse to produce them.
bool OptimizedBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  return !kSanitized && (type == "Release" || type == "RelWithDebInfo");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload socket_scan|socket_fanout|"
               "sim_mixed --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return Usage();
  if (!OptimizedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build%s\n",
                 PERFBENCH_BUILD_TYPE, kSanitized ? " with sanitizers" : "");
    return 3;
  }

  RunResult result;
  if (workload == "socket_scan") {
    result = perfbench::RunSocketScan(options);
  } else if (workload == "socket_fanout") {
    result = perfbench::RunSocketFanout(options);
  } else if (workload == "sim_mixed") {
    result = perfbench::RunSimMixed(options);
  } else {
    return Usage();
  }
  const bool canonical =
      Canonicalize(options.trace ? PerLayer() : EndToEnd(), options.trace,
                   workload, &result);
  if (!canonical) result.correct = false;

  for (const Metric& m : result.metrics) {
    std::printf("%-34s %16.6g %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.detail.c_str());
  }
  std::printf("errors: %lld of %lld attempted (error_ratio %.6g)\n",
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted),
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0);
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}
