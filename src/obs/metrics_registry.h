// Unified metrics registry (scalewall::obs).
//
// Every component's statistics live here: a component asks for a
// Counter / Gauge / HistogramMetric handle by (name, labels), or
// registers a callback series whose value is computed when the registry
// is scraped, and ExportPrometheus renders every registered series in
// one sorted Prometheus text exposition. The shell, Deployment
// (core::ExportMetricsText) and the nodes' /metrics all render through
// that one exporter.
//
// Handles are value types over shared cells: a default-constructed
// handle owns a private standalone cell, so Stats structs stay directly
// constructible in unit tests with no registry attached — registration
// just makes the same cell visible to the exporter. Counter mimics
// enough of int64/std::atomic<int64_t> (operator++, +=, fetch_add, load,
// implicit conversion) that call sites read like plain integers.

#ifndef SCALEWALL_OBS_METRICS_REGISTRY_H_
#define SCALEWALL_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace scalewall::obs {

// Label sets are small (0-2 pairs); kept sorted by key for identity.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Monotonic integer counter. Thread-safe; all operations are relaxed
// atomics — counters are statistics, never synchronization.
class Counter {
 public:
  Counter() : cell_(std::make_shared<std::atomic<int64_t>>(0)) {}

  void Add(int64_t delta) { cell_->fetch_add(delta, std::memory_order_relaxed); }
  Counter& operator++() {
    Add(1);
    return *this;
  }
  Counter& operator+=(int64_t delta) {
    Add(delta);
    return *this;
  }
  int64_t fetch_add(int64_t delta,
                    std::memory_order order = std::memory_order_relaxed) {
    return cell_->fetch_add(delta, order);
  }
  int64_t load(std::memory_order order = std::memory_order_relaxed) const {
    return cell_->load(order);
  }
  int64_t value() const { return load(); }
  operator int64_t() const { return load(); }  // NOLINT(runtime/explicit)

 private:
  friend class MetricsRegistry;
  std::shared_ptr<std::atomic<int64_t>> cell_;
};

// Last-write-wins double value (queue depth, utilization, ...).
class Gauge {
 public:
  Gauge() : cell_(std::make_shared<std::atomic<double>>(0.0)) {}

  void Set(double value) { cell_->store(value, std::memory_order_relaxed); }
  double value() const { return cell_->load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::shared_ptr<std::atomic<double>> cell_;
};

// Registry-visible wrapper over common::Histogram (log-bucketed).
// Thread-safe via an internal mutex; Add is rare (per-query, not
// per-row), so a mutex is fine.
class HistogramMetric {
 public:
  HistogramMetric() : cell_(std::make_shared<Cell>(0.001)) {}
  explicit HistogramMetric(double min_value)
      : cell_(std::make_shared<Cell>(min_value)) {}

  void Add(double value) {
    std::lock_guard<std::mutex> lock(cell_->mu);
    cell_->histogram.Add(value);
  }
  int64_t count() const {
    std::lock_guard<std::mutex> lock(cell_->mu);
    return static_cast<int64_t>(cell_->histogram.count());
  }
  // Consistent copy of the underlying histogram (bucket-level export).
  Histogram Snapshot() const {
    std::lock_guard<std::mutex> lock(cell_->mu);
    return cell_->histogram;
  }

 private:
  friend class MetricsRegistry;
  struct Cell {
    explicit Cell(double min_value) : histogram(min_value) {}
    mutable std::mutex mu;
    Histogram histogram;
  };
  std::shared_ptr<Cell> cell_;
};

class MetricsRegistry;

// One registered callback series; destroying it removes the series.
class CallbackRegistration {
 public:
  CallbackRegistration(MetricsRegistry* registry, std::string name,
                       MetricLabels labels, uint64_t id);
  CallbackRegistration(const CallbackRegistration&) = delete;
  CallbackRegistration& operator=(const CallbackRegistration&) = delete;
  ~CallbackRegistration();

 private:
  MetricsRegistry* registry_;
  std::string name_;
  MetricLabels labels_;  // sorted
  uint64_t id_;
};
// Move-only handle to a callback series. Declare it after the state its
// callback reads, so the series is removed first.
using CallbackSeries = std::unique_ptr<CallbackRegistration>;

// Name+labels -> series. Getting the same (name, labels) twice returns
// handles over the same cell; distinct label sets are distinct series.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter GetCounter(const std::string& name, MetricLabels labels = {});
  Gauge GetGauge(const std::string& name, MetricLabels labels = {});
  HistogramMetric GetHistogram(const std::string& name, MetricLabels labels = {},
                               double min_value = 0.001);

  // A counter or gauge series whose value `read` computes at scrape
  // time: for state another object already keeps (pool queue depth,
  // cache size, fleet health), so nothing has to mirror it into a cell.
  // Callbacks run under the registry lock — a scrape can never outlive
  // the object a callback reads, as long as the returned handle is
  // destroyed first — so a callback must never call into the registry.
  // Registering an existing (name, labels) takes that series over.
  CallbackSeries CallbackCounter(const std::string& name, MetricLabels labels,
                                 std::function<double()> read) {
    return AddCallback(name, std::move(labels), Series::Kind::kCounter,
                       std::move(read));
  }
  CallbackSeries CallbackGauge(const std::string& name, MetricLabels labels,
                               std::function<double()> read) {
    return AddCallback(name, std::move(labels), Series::Kind::kGauge,
                       std::move(read));
  }

  // Prometheus text exposition of every registered series, sorted by
  // (name, labels), one `# TYPE` header per family. Counters and gauges
  // render as `name{labels} value` (integral values as integers, others
  // in the shortest round-trip form); histograms render as cumulative
  // `_bucket{le="..."}` series over a fixed 1-2-5 ladder plus `_sum` and
  // `_count`.
  std::string ExportPrometheus() const;

  size_t num_series() const;

 private:
  struct SeriesKey {
    std::string name;
    MetricLabels labels;
    bool operator<(const SeriesKey& other) const {
      if (name != other.name) return name < other.name;
      return labels < other.labels;
    }
  };
  struct Series {
    Counter counter;
    Gauge gauge;
    HistogramMetric histogram;
    enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
    // Set for callback series (kCounter/kGauge): read instead of the cell.
    std::function<double()> read;
    uint64_t callback_id = 0;  // the registration that owns `read`
  };
  friend class CallbackRegistration;

  CallbackSeries AddCallback(const std::string& name, MetricLabels labels,
                             Series::Kind kind, std::function<double()> read);
  void RemoveCallback(const std::string& name, const MetricLabels& labels,
                      uint64_t id);

  mutable std::mutex mu_;
  std::map<SeriesKey, Series> series_;
  uint64_t next_callback_id_ = 1;
};

}  // namespace scalewall::obs

#endif  // SCALEWALL_OBS_METRICS_REGISTRY_H_
