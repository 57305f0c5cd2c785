// scalewall::net transport abstraction.
//
// A Transport moves request/response Messages between named peers. Two
// backends implement it:
//
//  * SimTransport (sim_transport.h): deterministic, in-process, driven
//    by the discrete-event clock — the backend every sim-based figure
//    and bench runs on. Requests and responses still pass through the
//    wire encoders, so the serialization layer is exercised (and its
//    losslessness enforced) on every mediated hop.
//  * EpollTransport (epoll_transport.h): real nonblocking TCP sockets
//    behind an edge-triggered epoll event loop, with per-peer
//    connection pools, bounded in-flight windows, write-queue flow
//    control and per-call timeouts — the backend `scalewall_node`
//    processes use.
//
// The query path is written against this interface, so flipping a
// deployment between "one process under the simulator" and "real
// processes on a network" changes which backend is plugged in, not the
// query code.

#ifndef SCALEWALL_NET_TRANSPORT_H_
#define SCALEWALL_NET_TRANSPORT_H_

#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/time.h"
#include "exec/cancel.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace scalewall::net {

// One transport-level message: a frame type plus its encoded payload.
// (Correlation ids are a transport concern; callers never see them.)
struct Message {
  FrameType type = FrameType::kPing;
  std::string payload;
};

// kInternal unless `message` is a `want` frame: the check every caller
// makes on a response before decoding it.
Status ExpectFrame(const Message& message, FrameType want);

// In-process side-band context a call carries *alongside* the wire
// payload. Only the sim backend can deliver it (both ends share an
// address space); the epoll backend drops it, because none of these
// have a wire representation:
//  * `cancel`: the caller's cooperative cancel token, honored by the
//    handler's scan loop (over real sockets, the wire deadline plus the
//    caller's timeout serve this role);
//  * `trace` / `trace_time`: the parent span the handler's spans nest
//    under (over real sockets each process keeps its own trace tree);
//  * `cookie`: simulation-only state with no wire form — the proxy's
//    RNG stream for coordinate calls, whose draw order defines the
//    experiment's reproducibility.
struct CallSideband {
  const exec::CancelToken* cancel = nullptr;
  obs::TraceContext trace{};
  SimTime trace_time = -1;
  void* cookie = nullptr;
};

struct CallOptions {
  // Per-call response deadline in microseconds (wall-clock on the epoll
  // backend). 0 = the transport's default.
  SimDuration timeout = 0;
  // The modeled round-trip the caller charges this hop in simulated
  // time; the sim backend records it in the RTT histogram so transport
  // metrics stay meaningful (and deterministic) under the simulator.
  // The epoll backend measures the real RTT instead.
  SimDuration modeled_rtt = 0;
  CallSideband sideband{};
};

// Server-side request handler. Returns the response message, or a
// Status the transport reports to the caller (over sockets: a kError
// frame carrying the wire-encoded status — stable codes survive the
// trip; in-process: the Status object itself).
using Handler =
    std::function<Result<Message>(const Message&, const CallSideband&)>;

// Transport counters/histograms, registered in an obs::MetricsRegistry
// under scalewall_net_* with a backend label. Shared by both backends
// so dashboards read identically over sim and socket runs.
struct TransportStats {
  explicit TransportStats(obs::MetricsRegistry* registry = nullptr,
                          std::string_view backend = "none");

  obs::Counter frames_out;
  obs::Counter frames_in;
  obs::Counter bytes_out;
  obs::Counter bytes_in;
  obs::Counter connects;      // connections established (client side)
  obs::Counter accepts;       // connections accepted (server side)
  obs::Counter timeouts;      // calls failed on their deadline
  obs::Counter errors;        // transport-level failures (refused, garbage)
  obs::Counter rejected;      // backpressure: in-flight window + queue full
  obs::Counter handler_errors;  // handler returned a non-OK status
  obs::HistogramMetric rtt_ms{/*min_value=*/0.0001};
  obs::Gauge inflight;     // calls awaiting a response now
  obs::Gauge queue_depth;  // calls queued behind the in-flight window
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Synchronous request/response against `peer`. Blocks the calling
  // thread on the epoll backend; completes inline on the sim backend.
  virtual Result<Message> Call(const std::string& peer, Message request,
                               const CallOptions& options = {}) = 0;

  // Asynchronous variant: `done` is invoked exactly once, possibly on
  // the transport's event-loop thread. The default adapter runs Call
  // inline — correct for the sim backend, overridden with a genuinely
  // concurrent implementation by the epoll backend.
  virtual void CallAsync(const std::string& peer, Message request,
                         const CallOptions& options,
                         std::function<void(Result<Message>)> done) {
    done(Call(peer, std::move(request), options));
  }

  // Records a modeled round-trip in the RTT histogram. Sim-backend
  // callers compute a hop's modeled latency with arithmetic that runs
  // *after* the inline Call returns (service time, queue waits), so
  // they report it here once known. No-op on backends that measure
  // real round-trips themselves.
  virtual void RecordModeledRtt(double millis) { (void)millis; }

  // Installs this endpoint's request handler (server role).
  virtual void SetHandler(Handler handler) = 0;

  virtual std::string_view backend() const = 0;
  virtual const TransportStats& stats() const = 0;
};

}  // namespace scalewall::net

#endif  // SCALEWALL_NET_TRANSPORT_H_
