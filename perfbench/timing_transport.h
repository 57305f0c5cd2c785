// Timing instruments the traced run wraps around the node stack from the
// outside: a net::Transport decorator that times every call a core makes
// through it, a request-handler wrapper that times Handle, and a small
// FIFO correlator that joins the two ends of one message by the hash of
// its payload. None of them changes a byte on the wire.

#ifndef PERFBENCH_TIMING_TRANSPORT_H_
#define PERFBENCH_TIMING_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/transport.h"

namespace perfbench {

namespace net = scalewall::net;
using scalewall::Result;

// Hash that identifies one message's payload across both ends of a hop.
uint64_t PayloadHash(std::string_view payload);

// What the decorator saw of one call.
struct CallRecord {
  double send_micros = 0;   // when the call was handed to the transport
  double reply_micros = 0;  // when its result arrived
  bool ok = false;
  uint64_t request_hash = 0;
  int64_t request_bytes = 0;   // framed, as on the wire
  int64_t response_bytes = 0;  // framed; 0 unless ok
};

// net::Transport decorator: forwards every call unchanged to `inner` and
// counts the frames and bytes it put on and took off the wire. Counts
// use the same framing the transports use (net::kFrameHeaderBytes per
// frame), so for calls that complete they equal the inner transport's
// own TransportStats for that traffic.
//
// An observer, if set, is called on the sending thread with the
// request's payload hash and returns a completion sink (or an empty
// one); the sink runs with the call's record just before the caller's
// own completion runs, so whatever the caller synchronizes on after its
// completion also covers the sink's writes.
class TimingTransport : public net::Transport {
 public:
  using Sink = std::function<void(const CallRecord&)>;
  using Observer = std::function<Sink(uint64_t request_hash)>;

  explicit TimingTransport(net::Transport* inner) : inner_(inner) {}

  void set_observer(Observer observer) { observer_ = std::move(observer); }

  Result<net::Message> Call(const std::string& peer, net::Message request,
                            const net::CallOptions& options = {}) override;
  void CallAsync(const std::string& peer, net::Message request,
                 const net::CallOptions& options,
                 std::function<void(Result<net::Message>)> done) override;
  void RecordModeledRtt(double millis) override {
    inner_->RecordModeledRtt(millis);
  }
  void SetHandler(net::Handler handler) override {
    inner_->SetHandler(std::move(handler));
  }
  std::string_view backend() const override { return inner_->backend(); }
  const net::TransportStats& stats() const override { return inner_->stats(); }

  int64_t frames_out() const { return frames_out_.load(); }
  int64_t frames_in() const { return frames_in_.load(); }
  int64_t bytes_out() const { return bytes_out_.load(); }
  int64_t bytes_in() const { return bytes_in_.load(); }
  int64_t failed_calls() const { return failed_calls_.load(); }

 private:
  // Counts the request and returns a completion that counts the reply.
  std::function<void(Result<net::Message>&)> Begin(
      const net::Message& request);

  net::Transport* inner_;
  Observer observer_;
  std::atomic<int64_t> frames_out_{0};
  std::atomic<int64_t> frames_in_{0};
  std::atomic<int64_t> bytes_out_{0};
  std::atomic<int64_t> bytes_in_{0};
  std::atomic<int64_t> failed_calls_{0};
};

// One timed execution of a request handler.
struct HandleRecord {
  double start_micros = 0;
  double end_micros = 0;
  uint64_t request_hash = 0;
};

// Wraps a core's Handle as a net::Handler. While `enabled` reads true,
// each invocation is timed and reported to `sink` on the handling
// thread, after the core returns and before the transport sends the
// response.
net::Handler TimedHandler(
    std::function<Result<net::Message>(const net::Message&)> handle,
    const std::atomic<bool>* enabled,
    std::function<void(const HandleRecord&)> sink);

// Thread-safe multimap from payload hash to values, consumed in arrival
// order. Two in-flight messages with identical payloads are
// interchangeable, so FIFO pairing is exact enough.
template <typename V>
class Correlator {
 public:
  void Post(uint64_t key, V value) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[key].push_back(std::move(value));
  }
  std::optional<V> Take(uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    V value = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) entries_.erase(it);
    return value;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

 private:
  std::mutex mu_;
  std::unordered_map<uint64_t, std::deque<V>> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_TRANSPORT_H_
