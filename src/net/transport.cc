#include "net/transport.h"

namespace scalewall::net {

Status ExpectFrame(const Message& message, FrameType want) {
  if (message.type == want) return Status::Ok();
  return Status::Internal("unexpected frame type " +
                          std::string(FrameTypeName(message.type)) +
                          ", want " + std::string(FrameTypeName(want)));
}

TransportStats::TransportStats(obs::MetricsRegistry* registry,
                               std::string_view backend) {
  if (registry == nullptr) return;
  const obs::MetricLabels base = {{"backend", std::string(backend)}};
  auto labeled = [&](std::string_view key, std::string_view value) {
    obs::MetricLabels labels = base;
    labels.emplace_back(std::string(key), std::string(value));
    return labels;
  };
  frames_out =
      registry->GetCounter("scalewall_net_frames_total", labeled("dir", "out"));
  frames_in =
      registry->GetCounter("scalewall_net_frames_total", labeled("dir", "in"));
  bytes_out =
      registry->GetCounter("scalewall_net_bytes_total", labeled("dir", "out"));
  bytes_in =
      registry->GetCounter("scalewall_net_bytes_total", labeled("dir", "in"));
  connects = registry->GetCounter("scalewall_net_connects_total", base);
  accepts = registry->GetCounter("scalewall_net_accepts_total", base);
  timeouts = registry->GetCounter("scalewall_net_timeouts_total", base);
  errors = registry->GetCounter("scalewall_net_errors_total", base);
  rejected = registry->GetCounter("scalewall_net_rejected_total", base);
  handler_errors =
      registry->GetCounter("scalewall_net_handler_errors_total", base);
  rtt_ms = registry->GetHistogram("scalewall_net_rtt_ms", base,
                                  /*min_value=*/0.0001);
  inflight = registry->GetGauge("scalewall_net_inflight", base);
  queue_depth = registry->GetGauge("scalewall_net_queue_depth", base);
}

}  // namespace scalewall::net
