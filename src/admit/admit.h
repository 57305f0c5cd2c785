// Admission control & hierarchical fair query scheduling
// (scalewall::admit).
//
// The paper's proxy tier is "responsible for a list of features such as
// admission control" (Section IV-D); under sustained overload a naive
// per-second QPS window rejects blindly, lets one flooding tenant starve
// everyone else, and happily queues queries past the deadline their
// client stopped waiting at. This module is the real admission pipeline
// the proxy folds every submission through:
//
//  * a token-bucket rate limit;
//  * priority-tiered overload shedding driven by the *servers'* own
//    backpressure signal (exec-pool queue depth + modeled scan backlog):
//    best-effort traffic sheds first, batch next, interactive last;
//  * global and per-pool concurrency plus in-flight-bytes budgets;
//  * hierarchical weighted fair queueing across the pool tree
//    (fair_share_tree.h): every submission carries a pool path
//    (org → tenant → query class) and, once every slot is busy, each
//    active pool is entitled to a strict weight-proportional slice of
//    the wait queue — floored at its min-share guarantee, capped at its
//    max-share — so long-run goodput tracks the hierarchy; an idle
//    pool's slice is released to its siblings;
//  * min-share preemption: an arrival for a guaranteed pool that is
//    starved of its min share preempts the newest best-effort work
//    (its reservation closes and its exec::CancelToken, when attached,
//    is cooperatively cancelled between morsels) instead of queueing
//    behind it;
//  * deadline-aware admission: a windowed service-time estimator (fed
//    the proxy's observed end-to-end service latencies) predicts how
//    long a queued query would wait for a slot, and a query whose
//    predicted wait + service would blow its deadline is rejected
//    *immediately* — with a retry-after hint — instead of being served
//    late.
//
// Time is the simulator's virtual clock, passed in by the caller
// (RequestInfo::now); this library deliberately does not depend on
// scalewall::sim. Because the simulated proxy executes a query
// synchronously at one frozen instant, "in flight" is modeled virtually:
// every admitted query holds a reservation until its virtual completion
// time (admission time + queue wait + service time), and reservations
// are lazily released as the clock the callers pass in advances. The
// admission decision path draws no randomness and performs no I/O, so
// enabling it never perturbs the execution of the queries it admits.

#ifndef SCALEWALL_ADMIT_ADMIT_H_
#define SCALEWALL_ADMIT_ADMIT_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "admit/fair_share_tree.h"
#include "common/time.h"
#include "exec/cancel.h"
#include "obs/metrics_registry.h"

namespace scalewall::admit {

// Scheduling tiers, most to least important. Under backend overload the
// lower tiers shed first; every tier also carries its own cap on how
// long a query may (virtually) queue for a slot. kBestEffort is also
// the only tier min-share preemption may cancel.
enum class Priority {
  kInteractive = 0,  // a human is waiting on the dashboard
  kBatch = 1,        // reports, backfills: latency-tolerant
  kBestEffort = 2,   // speculative prefetch, previews: first to shed
};
inline constexpr int kNumPriorities = 3;
std::string_view PriorityName(Priority priority);

// Why a submission was rejected (the `reason` label on the
// scalewall_admit_rejected_total series).
enum class RejectReason {
  kNone = 0,
  kRateLimit,     // token bucket empty (max_rate)
  kOverload,      // backend overload score above this tier's threshold
  kPoolLimit,     // per-pool concurrency cap
  kBytesLimit,    // global or per-pool in-flight-bytes budget
  kQueueFull,     // every slot busy and the wait queue is full
  kFairShare,     // pool already holds its weighted fair share
  kQueueWait,     // predicted wait above this tier's queue-wait cap
  kDeadline,      // predicted wait + service would blow the deadline
};
inline constexpr int kNumRejectReasons = 9;
std::string_view RejectReasonName(RejectReason reason);

// --- weighted max-min fair shares (water-filling) ---

struct ShareRequest {
  double weight = 1.0;
  double demand = 0.0;
};

// Allocates `capacity` across `requests` by weighted max-min fairness:
// capacity is poured proportionally to weight; a request never receives
// more than its demand, and capacity freed by demand-capped requests is
// re-poured over the still-unsatisfied ones. The classic water-filling
// algorithm; O(n^2) worst case over a handful of pools. The primitive
// FairShareTree's per-level pour is built on.
std::vector<double> WeightedFairShares(double capacity,
                                       const std::vector<ShareRequest>& requests);

// --- windowed service-time estimator ---

// Sliding-window mean over the last `window` observed service times.
// Fed the proxy's end-to-end query latencies (the same values behind
// scalewall_proxy_query_latency_ms); predicts the service time of the
// next admitted query. Returns `seed` until the first sample arrives.
class ServiceTimeEstimator {
 public:
  explicit ServiceTimeEstimator(size_t window = 256,
                                SimDuration seed = 10 * kMillisecond);

  void Record(SimDuration service);
  SimDuration Predict() const;
  size_t samples() const { return ring_.size(); }

 private:
  size_t window_;
  SimDuration seed_;
  std::vector<SimDuration> ring_;
  size_t next_ = 0;
  int64_t sum_ = 0;
};

// --- the admission controller ---

struct AdmitOptions {
  // Queries concurrently in flight (virtually) before new arrivals
  // queue. 0 = unlimited: disables the concurrency/fairness/deadline
  // machinery and leaves only the rate limit and overload shedding.
  int max_concurrency = 64;
  // Arrivals allowed to wait (virtually) for a slot once every slot is
  // busy; beyond it arrivals shed with kQueueFull. -1 = same as
  // max_concurrency; 0 = never queue.
  int max_queued = -1;
  // Global in-flight-bytes budget across all admitted queries
  // (0 = unlimited).
  size_t max_inflight_bytes = 0;
  // Byte cost charged per query when the caller cannot predict one
  // (RequestInfo::bytes == 0).
  size_t default_query_bytes = 64 * 1024;
  // Token-bucket rate limit: admitted queries per second (0 = none).
  double max_rate = 0.0;
  // Bucket depth; 0 = max(1, max_rate) (one second of burst).
  double burst = 0.0;
  // Weight for pools materialized without explicit configuration (and
  // without a ResourceClaim weight_hint).
  double default_weight = 1.0;
  // Per-tier cap on the predicted queue wait (kQueueWait beyond it).
  // Batch tolerates long queues; best-effort queries are not worth
  // queueing for long.
  std::array<SimDuration, kNumPriorities> max_queue_wait = {
      2 * kSecond, 10 * kSecond, kSecond / 2};
  // Per-tier backend overload score at or above which the tier sheds
  // (0 disables shedding for that tier). Best-effort sheds first.
  std::array<double, kNumPriorities> shed_overload = {8.0, 4.0, 2.0};
  // Service-time estimator: window size and cold-start prediction.
  size_t estimator_window = 256;
  SimDuration estimator_seed = 10 * kMillisecond;
  // Pre-configured pool tree, keyed by pool path ("org/tenant/class").
  // Pools not listed here are materialized on first sight with
  // default_weight and no guarantees.
  std::map<std::string, PoolConfig> pools;
  // Whether a starved guaranteed pool's arrival preempts the newest
  // best-effort work instead of queueing behind it.
  bool enable_preemption = true;
  // Registry the scalewall_admit_* / scalewall_pool_* series register
  // into (null = standalone counters, visible through stats()).
  obs::MetricsRegistry* metrics = nullptr;
};

// One admission request. `now` is the caller's virtual clock;
// `backend_overload` is the server-side backpressure score the proxy
// sampled (0 = idle backend).
struct RequestInfo {
  SimTime now = 0;
  // Pool this submission is charged to ("" = the shared default pool);
  // normalized per fair_share_tree.h's path rules.
  std::string pool_path;
  Priority priority = Priority::kInteractive;
  // Advisory weight for a pool materialized by this submission
  // (0 = AdmitOptions::default_weight; explicit configuration wins).
  double weight_hint = 0.0;
  // End-to-end latency budget (0 = none): deadline-aware admission
  // rejects instead of queueing past it.
  SimDuration deadline = 0;
  // Predicted in-flight bytes (0 = AdmitOptions::default_query_bytes).
  size_t bytes = 0;
  // Backend overload score folded into the shed decision.
  double backend_overload = 0.0;
};

struct Decision {
  bool admitted = false;
  // Pass to OnComplete() after the admitted query finishes.
  uint64_t ticket = 0;
  // Virtual wait before the query could start (every slot was busy);
  // the proxy adds it to the query's latency and records a queue span.
  SimDuration queue_wait = 0;
  // The estimator's service-time prediction at decision time.
  SimDuration predicted_service = 0;
  // Best-effort tickets preempted (cancelled) to admit this query
  // (min-share enforcement; 0 on every path that didn't preempt).
  int preempted = 0;
  RejectReason reason = RejectReason::kNone;
  // Backoff hint for rejected queries (carried to the client on the
  // ResourceExhausted outcome).
  SimDuration retry_after = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmitOptions options = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Decides one submission. Thread-safe; `info.now` values must be
  // non-decreasing across calls (the simulator's clock is).
  Decision Admit(const RequestInfo& info);

  // Reports the admitted query's actual service time (its end-to-end
  // latency minus the admission queue wait). Re-times the query's
  // reservation to admission time + queue wait + service, feeds the
  // estimator and charges the service to the owning pool. Unknown
  // tickets (including 0) only feed the estimator.
  void OnComplete(uint64_t ticket, SimDuration service);

  // Attaches the cooperative cancellation token of the work running
  // under `ticket`. Min-share preemption of this ticket (best-effort
  // only) calls RequestCancel() on it, so in-flight morsel scans stop
  // at the next checkpoint. A no-op for unknown tickets.
  void AttachCancel(uint64_t ticket,
                    std::shared_ptr<exec::CancelToken> cancel);

  // (Re)configures one pool's weight, shares and caps at runtime,
  // creating it (and missing ancestors) as needed.
  void ConfigurePool(const std::string& path, const PoolConfig& config);

  // --- introspection ---

  // The pool tree's full state: shares, demand, running work, usage
  // charge-back (admin /pools endpoint, shell, tests).
  std::vector<FairShareTree::PoolSnapshot> Pools() const {
    return tree_.Snapshot();
  }
  // The tree itself — servers charge wall-clock scan time back to the
  // owning pool through it (CubrickServer::SetPoolTree).
  FairShareTree* tree() { return &tree_; }

  int inflight() const;
  size_t inflight_bytes() const;
  SimDuration PredictedService() const;
  int64_t preemptions() const { return tree_.preemptions(); }

  // Counters live in obs handles; with a registry they export as
  // scalewall_admit_* series, without one they are standalone cells.
  struct Stats {
    explicit Stats(obs::MetricsRegistry* registry = nullptr);

    obs::Counter admitted;
    obs::Counter rejected;
    obs::Counter queued;  // admitted with queue_wait > 0
    obs::Counter completed;
    obs::Counter preemptions;  // best-effort tickets cancelled
    // Rejections by reason (index = RejectReason).
    std::array<obs::Counter, kNumRejectReasons> rejected_reason;
    obs::HistogramMetric queue_wait_ms{/*min_value=*/0.001};
  };
  const Stats& stats() const { return stats_; }

 private:
  using PoolId = FairShareTree::PoolId;

  struct Ticket {
    PoolId pool = 0;
    Priority priority = Priority::kInteractive;
    size_t bytes = 0;
    SimTime admit_time = 0;
    SimDuration queue_wait = 0;
    // Current virtual completion time: predicted at admission, re-timed
    // by OnComplete with the actual service time.
    SimTime release = 0;
    std::shared_ptr<exec::CancelToken> cancel;
  };

  void RegisterPoolSeriesLocked(PoolId pool);
  void ReleaseExpiredLocked(SimTime now);
  void CloseTicketLocked(uint64_t id, bool preempted = false);
  void RefillTokensLocked(SimTime now);
  double BurstLocked() const;
  // Recomputes the tree's demand-aware fair shares over the admission
  // budget (slots + wait queue): demand per pool = running + queued.
  void RecomputeSharesLocked();
  // The wait-queue depth actually enforced (max_queued, defaulting to
  // max_concurrency when unset). Budget = max_concurrency + this.
  int EffectiveMaxQueuedLocked() const;
  // How many of `pool`'s tickets are virtually queued (not among the
  // max_concurrency earliest releases).
  int QueuedCountLocked(PoolId pool) const;
  // Newest best-effort ticket preemptable on behalf of `starved` (a
  // guaranteed pool), or 0. Victims must be best-effort priority AND
  // belong to a pool without a min-share guarantee anywhere in its
  // ancestry — preemption never touches guaranteed work.
  uint64_t PreemptionVictimLocked(PoolId starved) const;
  // Virtual wait until a slot frees for one more arrival (all slots
  // busy). Requires releases_ purged of entries <= now.
  SimDuration PredictedWaitLocked(SimTime now) const;
  void UpdateGaugesLocked();

  mutable std::mutex mu_;
  AdmitOptions options_;
  FairShareTree tree_;
  // Per-pool series (labeled pool="<normalized path>"), registered at a
  // pool's first admission decision and read from tree_ at scrape time.
  std::map<PoolId, std::vector<obs::CallbackSeries>> series_;
  std::unordered_map<uint64_t, Ticket> tickets_;
  // (release time, ticket id) per open ticket, ordered by release: the
  // k-th earliest entry is when the k-th busy slot frees up.
  std::set<std::pair<SimTime, uint64_t>> releases_;
  size_t inflight_bytes_ = 0;
  double tokens_ = 0.0;
  SimTime tokens_at_ = 0;
  uint64_t next_ticket_ = 1;
  ServiceTimeEstimator estimator_;
  Stats stats_;
  obs::Gauge inflight_gauge_;
  obs::Gauge inflight_bytes_gauge_;
  obs::Gauge predicted_service_gauge_;
};

}  // namespace scalewall::admit

#endif  // SCALEWALL_ADMIT_ADMIT_H_
