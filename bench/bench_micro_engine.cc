// Engine microbenchmarks (google-benchmark): brick scan/aggregate
// throughput, codec encode/decode, shard-mapper throughput, histogram
// ingestion. These back the "interactive" claim: partition-local scans
// must run at memory bandwidth-ish rates for millisecond dashboards.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/histogram.h"
#include "common/random.h"
#include "core/deployment.h"
#include "cubrick/codec.h"
#include "cubrick/partition.h"
#include "cubrick/server.h"
#include "cubrick/shard_mapper.h"
#include "sim/simulation.h"
#include "exec/morsel.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "workload/generators.h"

using namespace scalewall;

namespace {

cubrick::TableSchema BenchSchema() {
  return workload::MakeSchema(/*dims=*/3, /*cardinality=*/256,
                              /*range_size=*/16, /*metrics=*/2);
}

cubrick::TablePartition MakePartition(size_t rows) {
  cubrick::TablePartition part("bench", 0, BenchSchema());
  Rng rng(7);
  for (const auto& row : workload::GenerateRows(BenchSchema(), rows, rng)) {
    part.Insert(row);
  }
  return part;
}

void BM_PartitionScanFullTable(benchmark::State& state) {
  cubrick::TablePartition part = MakePartition(state.range(0));
  cubrick::Query q;
  q.table = "bench";
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kSum},
                    cubrick::Aggregation{0, cubrick::AggOp::kCount}};
  for (auto _ : state) {
    cubrick::QueryResult result(2);
    part.Execute(q, result);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionScanFullTable)->Arg(10000)->Arg(100000);

void BM_PartitionScanFiltered(benchmark::State& state) {
  cubrick::TablePartition part = MakePartition(100000);
  cubrick::Query q;
  q.table = "bench";
  // Selective range filter on the first dimension: pruning kicks in.
  q.filters = {cubrick::FilterRange{0, 240, 255}};
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kSum}};
  for (auto _ : state) {
    cubrick::QueryResult result(1);
    part.Execute(q, result);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PartitionScanFiltered);

void BM_PartitionGroupBy(benchmark::State& state) {
  cubrick::TablePartition part = MakePartition(100000);
  cubrick::Query q;
  q.table = "bench";
  q.group_by = {1};
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kSum}};
  for (auto _ : state) {
    cubrick::QueryResult result(1);
    part.Execute(q, result);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PartitionGroupBy);

// The row-at-a-time oracle on the identical workload: the ratio of this
// to BM_PartitionGroupBy is the vectorization speedup that
// scripts/check_perf_regression.py gates on.
void BM_PartitionGroupByInterpreted(benchmark::State& state) {
  cubrick::TablePartition part = MakePartition(100000);
  exec::ExecOptions opts;
  opts.scan_path = exec::ScanPath::kInterpreted;
  cubrick::Query q;
  q.table = "bench";
  q.group_by = {1};
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kSum}};
  for (auto _ : state) {
    cubrick::QueryResult result(1);
    part.Execute(q, result, nullptr, &opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PartitionGroupByInterpreted);

void BM_PartitionGroupByParallel(benchmark::State& state) {
  cubrick::TablePartition part = MakePartition(100000);
  const int workers = static_cast<int>(state.range(0));
  exec::ThreadPool pool(workers);
  exec::ExecOptions opts;
  opts.num_workers = workers;
  opts.pool = &pool;
  cubrick::Query q;
  q.table = "bench";
  q.group_by = {1};
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kSum}};
  for (auto _ : state) {
    cubrick::QueryResult result(1);
    part.Execute(q, result, nullptr, &opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PartitionGroupByParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- coordinator fan-in merge: flat fold vs k-ary tree root fold ---
//
// The planner's tree topology (DESIGN.md §15) moves subtree merges off
// the coordinator: with P partials and fan-in k, the coordinator folds
// ceil(P/k) pre-merged roots instead of all P partials. The pair below
// measures exactly that coordinator-side fold (64 partials, 256 groups
// each, 2 aggregations); their ratio is the fan-out-64 / fan-in-8
// offload factor the perf gate keeps.

cubrick::QueryResult MakeMergePartial(uint64_t seed) {
  Rng rng(seed);
  cubrick::QueryResult r(2);
  for (uint32_t g = 0; g < 256; ++g) {
    const double v = static_cast<double>(rng.NextBounded(1000));
    r.Accumulate({g}, 0, v);
    r.Accumulate({g}, 1, v * 0.5);
  }
  return r;
}

void BM_CoordinatorMergeFlat(benchmark::State& state) {
  std::vector<cubrick::QueryResult> partials;
  for (uint64_t p = 0; p < 64; ++p) partials.push_back(MakeMergePartial(p));
  for (auto _ : state) {
    cubrick::QueryResult merged(2);
    for (const cubrick::QueryResult& p : partials) merged.Merge(p);
    // Reading compacts: the lazy fold of the appended runs is timed.
    benchmark::DoNotOptimize(merged.num_groups());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CoordinatorMergeFlat);

void BM_CoordinatorMergeTreeRoot(benchmark::State& state) {
  // The 8 subtree roots arrive pre-merged (that fold ran on the
  // aggregator servers); only the root fold is the coordinator's.
  std::vector<cubrick::QueryResult> roots;
  for (uint64_t chunk = 0; chunk < 8; ++chunk) {
    cubrick::QueryResult root(2);
    for (uint64_t p = chunk * 8; p < chunk * 8 + 8; ++p) {
      root.Merge(MakeMergePartial(p));
    }
    root.Compact();  // an aggregator ships its root compacted
    roots.push_back(std::move(root));
  }
  for (auto _ : state) {
    cubrick::QueryResult merged(2);
    for (const cubrick::QueryResult& r : roots) merged.Merge(r);
    benchmark::DoNotOptimize(merged.num_groups());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_CoordinatorMergeTreeRoot);

void BM_DimCodecEncode(benchmark::State& state) {
  Rng rng(3);
  std::vector<uint32_t> column(100000);
  for (auto& v : column) {
    v = static_cast<uint32_t>(rng.NextZipf(256, 1.2));
  }
  for (auto _ : state) {
    auto encoded = cubrick::EncodeDimColumn(column);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(state.iterations() * column.size() *
                          sizeof(uint32_t));
}
BENCHMARK(BM_DimCodecEncode);

void BM_DimCodecDecode(benchmark::State& state) {
  Rng rng(3);
  std::vector<uint32_t> column(100000);
  for (auto& v : column) {
    v = static_cast<uint32_t>(rng.NextZipf(256, 1.2));
  }
  auto encoded = cubrick::EncodeDimColumn(column);
  for (auto _ : state) {
    auto decoded = cubrick::DecodeDimColumn(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * column.size() *
                          sizeof(uint32_t));
}
BENCHMARK(BM_DimCodecDecode);

void BM_MetricCodecRoundtrip(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> column(50000);
  for (auto& v : column) v = std::floor(rng.NextLognormal(3, 1));
  for (auto _ : state) {
    auto decoded =
        cubrick::DecodeMetricColumn(cubrick::EncodeMetricColumn(column));
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * column.size() *
                          sizeof(double));
}
BENCHMARK(BM_MetricCodecRoundtrip);

void BM_BrickCompressDecompress(benchmark::State& state) {
  cubrick::TablePartition part = MakePartition(50000);
  for (auto _ : state) {
    for (cubrick::Brick* b : part.BricksByHotness(true)) b->Compress();
    for (cubrick::Brick* b : part.BricksByHotness(true)) b->Decompress();
  }
}
BENCHMARK(BM_BrickCompressDecompress);

void BM_ShardMapper(benchmark::State& state) {
  cubrick::ShardMapper mapper(100000);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mapper.ShardFor("table_" + std::to_string(i++ % 1000), 3));
  }
}
BENCHMARK(BM_ShardMapper);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.Add(rng.NextLognormal(3, 1));
  }
  benchmark::DoNotOptimize(h);
}
BENCHMARK(BM_HistogramAdd);

void BM_RowInsert(benchmark::State& state) {
  Rng rng(7);
  auto rows = workload::GenerateRows(BenchSchema(), 10000, rng);
  for (auto _ : state) {
    cubrick::TablePartition part("bench", 0, BenchSchema());
    for (const auto& row : rows) part.Insert(row);
    benchmark::DoNotOptimize(part);
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_RowInsert);

// --- partial-result cache series (epoch-invalidated caching) ---

// One standalone server hosting a 100k-row partition with the
// partial-result cache on. Cached vs uncached is the identical query
// run under kDefault (a validated hit after the first scan) vs kBypass
// (always rescans): the gap is the brick scan the cache replaces.
struct CachedServerBench {
  CachedServerBench()
      : sim(11),
        cluster(cluster::Cluster::Build({.regions = 1,
                                         .racks_per_region = 1,
                                         .servers_per_rack = 1,
                                         .memory_bytes = 1u << 30,
                                         .ssd_bytes = 1u << 30})),
        catalog(1000) {
    cubrick::CubrickServerOptions options;
    options.result_cache_bytes = 32u << 20;
    server = std::make_unique<cubrick::CubrickServer>(&sim, &cluster,
                                                      &catalog, 0, options);
    cubrick::TableSchema schema = BenchSchema();
    catalog.CreateTable("bench", schema, /*partitions=*/1);
    server->AddShard(catalog.ShardsForTable("bench")[0],
                     sm::ShardRole::kPrimary);
    Rng rng(7);
    server->InsertRows("bench", 0,
                       workload::GenerateRows(schema, 100000, rng));
  }

  static cubrick::Query GroupByQuery() {
    cubrick::Query q;
    q.table = "bench";
    q.group_by = {1};
    q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kSum},
                      cubrick::Aggregation{1, cubrick::AggOp::kMax}};
    return q;
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  cubrick::Catalog catalog;
  std::unique_ptr<cubrick::CubrickServer> server;
};

void BM_ServerPartialScan(benchmark::State& state) {
  CachedServerBench bench;
  cubrick::Query q = CachedServerBench::GroupByQuery();
  const cache::CachePolicy policy = state.range(0) != 0
                                        ? cache::CachePolicy::kDefault
                                        : cache::CachePolicy::kBypass;
  for (auto _ : state) {
    auto result = bench.server->ExecutePartial(q, /*partition=*/0,
                                               /*hop_budget=*/-1,
                                               /*cancel=*/nullptr, {},
                                               /*trace_time=*/-1, policy);
    benchmark::DoNotOptimize(result);
  }
  auto snap = bench.server->ResultCacheSnapshot();
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(snap.hits));
  state.counters["cache_misses"] =
      benchmark::Counter(static_cast<double>(snap.misses));
  state.SetLabel(state.range(0) != 0 ? "cached" : "uncached");
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_ServerPartialScan)->Arg(0)->Arg(1);

// --- thread-scaling series (morsel-driven execution, ISSUE 2) ---

// Byte-identical comparison of finalized rows: the exec subsystem's
// determinism contract, not approximate equality.
bool SameFinalizedRows(const cubrick::QueryResult& a,
                       const cubrick::QueryResult& b,
                       const cubrick::Query& q) {
  auto ra = cubrick::MaterializeRows(a, q);
  auto rb = cubrick::MaterializeRows(b, q);
  if (ra.size() != rb.size()) return false;
  for (size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].key != rb[i].key) return false;
    if (ra[i].values.size() != rb[i].values.size()) return false;
    for (size_t j = 0; j < ra[i].values.size(); ++j) {
      if (std::memcmp(&ra[i].values[j], &rb[i].values[j], sizeof(double)) !=
          0) {
        return false;
      }
    }
  }
  return true;
}

// Group-by scan at 1/2/4/8 workers over one big partition, reporting
// wall-clock speedup vs the serial path and checking every worker count
// produces byte-identical finalized rows. Few bricks + many rows per
// brick so row-range splitting (not just brick fan-out) carries the
// parallelism.
void RunThreadScalingSeries() {
  bench::Header("exec-scaling",
                "morsel-driven partition scan, 1/2/4/8 workers");
  const size_t rows = bench::QuickMode() ? 200000 : 2000000;
  cubrick::TableSchema schema = workload::MakeSchema(
      /*dims=*/3, /*cardinality=*/256, /*range_size=*/128, /*metrics=*/2);
  cubrick::TablePartition part("bench", 0, schema);
  Rng rng(7);
  for (const auto& row : workload::GenerateRows(schema, rows, rng)) {
    part.Insert(row);
  }
  std::printf("rows=%zu bricks=%zu morsel_rows=%zu hardware_threads=%u\n",
              part.num_rows(), part.num_bricks(), exec::kDefaultMorselRows,
              std::thread::hardware_concurrency());

  cubrick::Query q;
  q.table = "bench";
  q.group_by = {1};
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kSum},
                    cubrick::Aggregation{1, cubrick::AggOp::kMax}};

  auto time_execute = [&](const exec::ExecOptions* opts) {
    double best_ms = 0;
    cubrick::QueryResult kept(q.aggregations.size());
    for (int rep = 0; rep < 3; ++rep) {
      cubrick::QueryResult result(q.aggregations.size());
      auto start = std::chrono::steady_clock::now();
      part.Execute(q, result, nullptr, opts);
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
      kept = std::move(result);
    }
    return std::make_pair(best_ms, std::move(kept));
  };

  auto [serial_ms, serial] = time_execute(nullptr);
  // Cross-check the vectorized kernels against the interpreted oracle on
  // this workload before reporting scaling numbers built on top of them.
  exec::ExecOptions interp_opts;
  interp_opts.scan_path = exec::ScanPath::kInterpreted;
  auto [interp_ms, interp] = time_execute(&interp_opts);
  std::printf("vectorized == interpreted: %s (%.2fms vs %.2fms, %.2fx)\n",
              SameFinalizedRows(serial, interp, q) ? "PASS" : "FAIL",
              serial_ms, interp_ms,
              serial_ms > 0 ? interp_ms / serial_ms : 0.0);
  std::printf("%-8s %10s %9s %s\n", "workers", "best_ms", "speedup",
              "result");
  std::printf("%-8s %10.2f %9s %s\n", "serial", serial_ms, "1.00x",
              "reference");
  bool all_identical = true;
  for (int workers : {1, 2, 4, 8}) {
    exec::ThreadPool pool(workers);
    exec::ExecOptions opts;
    opts.num_workers = workers;
    opts.pool = &pool;
    auto [ms, result] = time_execute(&opts);
    bool same = SameFinalizedRows(serial, result, q);
    all_identical = all_identical && same;
    std::printf("%-8d %10.2f %8.2fx %s\n", workers, ms,
                ms > 0 ? serial_ms / ms : 0.0,
                same ? "identical" : "DIVERGED");
  }
  std::printf("result equality across worker counts: %s\n",
              all_identical ? "PASS" : "FAIL");
  bench::PaperNote(
      "speedup tracks min(workers, physical cores); on a single-core "
      "host all worker counts degenerate to ~1x and only the "
      "identical-result check is meaningful.");
  std::printf("\n");
}

// --- trace dump (--trace_json=PATH, ISSUE 3) ---

// Runs one traced query through a tiny deployment (morsel-parallel
// scans) and writes the Chrome trace-event JSON to `path` — load it in
// chrome://tracing or Perfetto to see the proxy attempt -> subquery ->
// partition -> morsel breakdown behind the latency numbers above.
int DumpQueryTrace(const std::string& path) {
  core::DeploymentOptions options;
  options.seed = 7;
  options.topology.regions = 1;
  options.topology.racks_per_region = 2;
  options.topology.servers_per_rack = 5;
  options.max_shards = 5000;
  options.per_host_failure_probability = 0.0;
  options.enable_query_tracing = true;
  options.trace_options.max_spans_per_trace = 1 << 16;  // keep every morsel
  options.server_options.scan_workers = 2;
  options.server_options.morsel_rows = 512;
  core::Deployment dep(options);

  cubrick::TableSchema schema = BenchSchema();
  if (!dep.CreateTable("bench", schema).ok()) return 1;
  Rng rng(7);
  if (!dep.LoadRows("bench", workload::GenerateRows(schema, 20000, rng))
           .ok()) {
    return 1;
  }
  dep.RunFor(15 * kSecond);
  cubrick::Query q;
  q.table = "bench";
  q.group_by = {1};
  q.aggregations = {cubrick::Aggregation{0, cubrick::AggOp::kSum}};
  auto outcome = dep.Query(cubrick::QueryRequest(q));
  if (!outcome.status.ok()) return 1;

  obs::TraceSink& sink = dep.trace_sink();
  std::string json = sink.ExportChromeTrace(sink.LastTraceId());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %zu bytes of Chrome trace JSON to %s (%zu spans)\n",
              json.size(), path.c_str(),
              sink.NumSpans(sink.LastTraceId()));
  std::fputs(sink.ExportTextTree(sink.LastTraceId()).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flag before google-benchmark sees the argument list.
  std::string trace_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr char kFlag[] = "--trace_json=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      trace_path = argv[i] + sizeof(kFlag) - 1;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!trace_path.empty()) return DumpQueryTrace(trace_path);

  RunThreadScalingSeries();
  // Emit machine-readable results by default so tooling (the perf
  // regression gate) can parse them; explicit --benchmark_out wins.
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  char default_out[] = "--benchmark_out=BENCH_micro_engine.json";
  char default_fmt[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(default_out);
    args.push_back(default_fmt);
  }
  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
