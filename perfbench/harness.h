// Measurement plumbing shared by every perfbench workload: clocks,
// process CPU and memory, percentiles with their sample counts, and the
// result record the benchmark prints.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "cubrick/query.h"

namespace perfbench {

// Wall clock (steady), microseconds since an arbitrary epoch.
double NowMicros();
// User + system CPU of the whole process so far, microseconds.
double ProcessCpuMicros();
// Peak resident set of the process so far, MiB.
double PeakRssMb();

// Pins the calling thread to the `step`-th (mod their count) of the CPUs
// the process was allowed to use at its first call. On a shared VM each
// vCPU can switch between full speed and a contended state up to ~1.7x
// slower for seconds at a time; a single-threaded loop that moves to the
// next CPU every window samples all of them, instead of taking one
// vCPU's luck for the whole run.
void PinToCpu(size_t step);

// Nearest-rank percentile of `samples` (q in [0, 1]); 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// The highest of the ladder 50/90/95/99/99.9 that still has at least
// 10 samples above it among `n` samples (0 if even the median has
// fewer). A tail percentile is only as good as the number of
// samples beyond it; reporting p99 from 200 samples reads two values.
double HighestSupportedPercentile(size_t n);

// One reported metric. `detail` carries what the number rests on (its
// sample count, or a ratio's numerator and base) and is printed on the
// human-readable report, never in the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string detail;
};

// Everything one workload run produces.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit,
           std::string detail = {});
};

// "p95 of 1234 samples" style helper for Metric::detail.
std::string SampleDetail(double q, size_t n);
// "12 / 345" style helper for ratio details.
std::string RatioDetail(double numerator, double base);

// One timed window of a fixed query count.
struct Window {
  std::vector<double> latency_us;  // one per query issued
  double wall_us = 0;              // busy wall time of the window
  double cpu_us = 0;               // process CPU spent in it
  int64_t completed = 0;           // queries answered correctly
};

// Adds qps, latency_p50_us, latency_p95_us and cpu_us_per_query, each the
// median over `windows` of that window's own value. A host stall that
// slows fewer than half of a run's windows moves none of them; the
// pooled percentiles over every sample are printed beside them.
void AddWindowMetrics(const std::vector<Window>& windows,
                      const std::string& load, RunResult* result);

// A run that could not measure: reports `what` and `status` on stderr
// and returns a result with correct = false and one failed attempt.
RunResult FailedRun(const std::string& what, const scalewall::Status& status);

// Bit-level equality of two answers: same keys, same doubles bit for
// bit — what node::FormatResultRows's lossless %.17g text compares,
// without formatting thousands of rows inside a timed loop.
bool SameRows(const std::vector<scalewall::cubrick::ResultRow>& a,
              const std::vector<scalewall::cubrick::ResultRow>& b);

// Renders `result` as the single-line JSON result:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
