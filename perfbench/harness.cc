#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

namespace perfbench {

namespace {

// 1-based nearest rank of quantile q among n samples. The epsilon keeps
// 0.95 * 200 at rank 190 despite binary rounding.
double NearestRank(double q, size_t n) {
  return std::ceil(q * static_cast<double>(n) - 1e-9);
}

}  // namespace

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto micros = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PinToCpu(size_t step) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[step % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const double rank = NearestRank(q, samples.size());
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    // Samples strictly above the nearest-rank q-th sample.
    const size_t at = static_cast<size_t>(NearestRank(q, n));
    if (n >= at && n - at >= 10) best = q;
  }
  return best;
}

void RunResult::Add(std::string name, double value, std::string unit,
                    std::string detail) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(detail)});
}

std::string SampleDetail(double q, size_t n) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %zu samples (highest supported p%g)",
                q * 100.0, n, HighestSupportedPercentile(n) * 100.0);
  return buf;
}

std::string RatioDetail(double numerator, double base) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g / %.17g", numerator, base);
  return buf;
}

void AddWindowMetrics(const std::vector<Window>& windows,
                      const std::string& load, RunResult* result) {
  std::vector<double> qps, p50, p95, cpu, pooled;
  size_t smallest = windows.empty() ? 0 : windows.front().latency_us.size();
  for (const Window& w : windows) {
    const double n = static_cast<double>(w.latency_us.size());
    qps.push_back(n / (w.wall_us / 1e6));
    p50.push_back(Percentile(w.latency_us, 0.5));
    p95.push_back(Percentile(w.latency_us, 0.95));
    cpu.push_back(w.cpu_us /
                  static_cast<double>(std::max<int64_t>(1, w.completed)));
    pooled.insert(pooled.end(), w.latency_us.begin(), w.latency_us.end());
    smallest = std::min(smallest, w.latency_us.size());
  }
  const std::string of = "median of " + std::to_string(windows.size()) +
                         " windows of " + load;
  char buf[160];
  result->Add("qps", Median(qps), "1/s", of);
  for (double q : {0.5, 0.95}) {
    std::snprintf(buf, sizeof(buf),
                  "; each %s; pooled p%g of %zu samples: %.1f us",
                  SampleDetail(q, smallest).c_str(), q * 100.0, pooled.size(),
                  Percentile(pooled, q));
    result->Add(q == 0.5 ? "latency_p50_us" : "latency_p95_us",
                Median(q == 0.5 ? p50 : p95), "us", of + buf);
  }
  result->Add("cpu_us_per_query", Median(cpu), "us",
              of + "; process CPU us / queries answered");
}

RunResult FailedRun(const std::string& what, const scalewall::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  RunResult result;
  result.correct = false;
  result.attempted = 1;
  result.failed = 1;
  return result;
}

bool SameRows(const std::vector<scalewall::cubrick::ResultRow>& a,
              const std::vector<scalewall::cubrick::ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].values.size() != b[i].values.size()) {
      return false;
    }
    if (!a[i].values.empty() &&
        std::memcmp(a[i].values.data(), b[i].values.data(),
                    a[i].values.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    // %.17g keeps every digit; JSON has no NaN/inf, so those print 0.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
