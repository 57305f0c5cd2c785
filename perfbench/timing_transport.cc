#include "timing_transport.h"

#include <memory>
#include <utility>

#include "harness.h"
#include "net/wire.h"

namespace perfbench {

uint64_t PayloadHash(std::string_view payload) {
  return std::hash<std::string_view>{}(payload);
}

std::function<void(Result<net::Message>&)> TimingTransport::Begin(
    const net::Message& request) {
  const int64_t request_bytes =
      static_cast<int64_t>(net::kFrameHeaderBytes + request.payload.size());
  ++frames_out_;
  bytes_out_ += request_bytes;
  CallRecord record;
  record.request_bytes = request_bytes;
  Sink sink;
  if (observer_) {
    record.request_hash = PayloadHash(request.payload);
    sink = observer_(record.request_hash);
  }
  record.send_micros = NowMicros();
  return [this, sink = std::move(sink),
          record](Result<net::Message>& result) mutable {
    record.reply_micros = NowMicros();
    record.ok = result.ok();
    if (result.ok()) {
      record.response_bytes = static_cast<int64_t>(net::kFrameHeaderBytes +
                                                   result->payload.size());
      ++frames_in_;
      bytes_in_ += record.response_bytes;
    } else {
      ++failed_calls_;
    }
    if (sink) sink(record);
  };
}

Result<net::Message> TimingTransport::Call(const std::string& peer,
                                           net::Message request,
                                           const net::CallOptions& options) {
  auto finish = Begin(request);
  Result<net::Message> result = inner_->Call(peer, std::move(request), options);
  finish(result);
  return result;
}

void TimingTransport::CallAsync(
    const std::string& peer, net::Message request,
    const net::CallOptions& options,
    std::function<void(Result<net::Message>)> done) {
  auto finish = Begin(request);
  inner_->CallAsync(
      peer, std::move(request), options,
      [finish = std::move(finish),
       done = std::move(done)](Result<net::Message> result) mutable {
        finish(result);
        done(std::move(result));
      });
}

net::Handler TimedHandler(
    std::function<Result<net::Message>(const net::Message&)> handle,
    const std::atomic<bool>* enabled,
    std::function<void(const HandleRecord&)> sink) {
  return [handle = std::move(handle), enabled, sink = std::move(sink)](
             const net::Message& request,
             const net::CallSideband&) -> Result<net::Message> {
    if (!enabled->load(std::memory_order_relaxed)) return handle(request);
    HandleRecord record;
    record.request_hash = PayloadHash(request.payload);
    record.start_micros = NowMicros();
    Result<net::Message> response = handle(request);
    record.end_micros = NowMicros();
    sink(record);
    return response;
  };
}

}  // namespace perfbench
