// Operational metrics export.
//
// "Because it is broadly used at Facebook, SM has full-fledged management
// consoles and monitoring dashboards" (Section IV). A deployment's
// operational state — fleet health, per-region shard-manager activity,
// proxy traffic, storage-engine counters — lives in its metrics registry
// (the deployment-level lines as scrape-time series), so it renders as
// Prometheus text for any dashboarding stack.

#ifndef SCALEWALL_CORE_METRICS_H_
#define SCALEWALL_CORE_METRICS_H_

#include <string>

#include "core/deployment.h"

namespace scalewall::core {

// The deployment's Prometheus text exposition (the same format a
// scalewall_node serves on /metrics).
inline std::string ExportMetricsText(Deployment& deployment) {
  return deployment.metrics().ExportPrometheus();
}

}  // namespace scalewall::core

#endif  // SCALEWALL_CORE_METRICS_H_
