#include "obs/metrics_registry.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <string_view>

namespace scalewall::obs {

namespace {

MetricLabels Normalize(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

void EmitSeriesName(std::ostringstream& out, const std::string& name,
                    const MetricLabels& labels,
                    const char* extra_key = nullptr,
                    const std::string& extra_value = "") {
  out << name;
  if (labels.empty() && extra_key == nullptr) return;
  char separator = '{';
  auto emit = [&](std::string_view key, std::string_view value) {
    out << separator << key << "=\"";
    separator = ',';
    for (char c : value) {  // escaped as the text format requires
      if (c == '\\' || c == '"' || c == '\n') out << '\\';
      out << (c == '\n' ? 'n' : c);
    }
    out << '"';
  };
  for (const auto& [key, value] : labels) emit(key, value);
  if (extra_key != nullptr) emit(extra_key, extra_value);
  out << '}';
}

// Integral values render as integers ("48", "123456789"); every other
// value in the shortest form that parses back to the same double.
std::string FormatValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (value == std::trunc(value) && std::fabs(value) < 1e15) {
    return std::to_string(static_cast<int64_t>(value));
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace

CallbackRegistration::CallbackRegistration(MetricsRegistry* registry,
                                           std::string name,
                                           MetricLabels labels, uint64_t id)
    : registry_(registry),
      name_(std::move(name)),
      labels_(std::move(labels)),
      id_(id) {}

CallbackRegistration::~CallbackRegistration() {
  registry_->RemoveCallback(name_, labels_, id_);
}

Counter MetricsRegistry::GetCounter(const std::string& name,
                                    MetricLabels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& series = series_[SeriesKey{name, Normalize(std::move(labels))}];
  series.kind = Series::Kind::kCounter;
  return series.counter;
}

Gauge MetricsRegistry::GetGauge(const std::string& name, MetricLabels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& series = series_[SeriesKey{name, Normalize(std::move(labels))}];
  series.kind = Series::Kind::kGauge;
  return series.gauge;
}

HistogramMetric MetricsRegistry::GetHistogram(const std::string& name,
                                              MetricLabels labels,
                                              double min_value) {
  std::lock_guard<std::mutex> lock(mu_);
  SeriesKey key{name, Normalize(std::move(labels))};
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(std::move(key), Series{}).first;
    it->second.histogram = HistogramMetric(min_value);
  }
  it->second.kind = Series::Kind::kHistogram;
  return it->second.histogram;
}

CallbackSeries MetricsRegistry::AddCallback(const std::string& name,
                                            MetricLabels labels,
                                            Series::Kind kind,
                                            std::function<double()> read) {
  labels = Normalize(std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_callback_id_++;
  Series& series = series_[SeriesKey{name, labels}];
  series.kind = kind;
  series.read = std::move(read);
  series.callback_id = id;
  return std::make_unique<CallbackRegistration>(this, name, std::move(labels),
                                                id);
}

void MetricsRegistry::RemoveCallback(const std::string& name,
                                     const MetricLabels& labels, uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(SeriesKey{name, labels});
  // A later registration of the same key owns the series now.
  if (it != series_.end() && it->second.callback_id == id) series_.erase(it);
}

std::string MetricsRegistry::ExportPrometheus() const {
  // The `le` ladder, in the unit the histogram was fed (milliseconds for
  // every latency series in this codebase): 1-2-5 steps over 8 decades.
  static constexpr double kBuckets[] = {
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,  0.2,  0.5,  1.0,
      2.0,   5.0,   10.0,  20.0, 50.0, 100,  200,  500,  1000, 2000,
      5000,  10000, 20000, 50000};
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  const std::string* last_type_name = nullptr;
  auto type_line = [&](const std::string& name, const char* type) {
    // One # TYPE header per metric name (series of one name are
    // contiguous: the map is sorted by name first).
    if (last_type_name != nullptr && *last_type_name == name) return;
    out << "# TYPE " << name << " " << type << "\n";
    last_type_name = &name;
  };
  for (const auto& [key, series] : series_) {
    switch (series.kind) {
      case Series::Kind::kCounter:
        type_line(key.name, "counter");
        EmitSeriesName(out, key.name, key.labels);
        out << " "
            << (series.read ? FormatValue(series.read())
                            : std::to_string(series.counter.load()))
            << "\n";
        break;
      case Series::Kind::kGauge:
        type_line(key.name, "gauge");
        EmitSeriesName(out, key.name, key.labels);
        out << " "
            << FormatValue(series.read ? series.read() : series.gauge.value())
            << "\n";
        break;
      case Series::Kind::kHistogram: {
        type_line(key.name, "histogram");
        const Histogram snapshot = series.histogram.Snapshot();
        for (double upper : kBuckets) {
          EmitSeriesName(out, key.name + "_bucket", key.labels, "le",
                         FormatValue(upper));
          out << " " << snapshot.CumulativeLessEqual(upper) << "\n";
        }
        EmitSeriesName(out, key.name + "_bucket", key.labels, "le", "+Inf");
        out << " " << snapshot.count() << "\n";
        EmitSeriesName(out, key.name + "_sum", key.labels);
        out << " " << FormatValue(snapshot.sum()) << "\n";
        EmitSeriesName(out, key.name + "_count", key.labels);
        out << " " << snapshot.count() << "\n";
        break;
      }
    }
  }
  return out.str();
}

size_t MetricsRegistry::num_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

}  // namespace scalewall::obs
