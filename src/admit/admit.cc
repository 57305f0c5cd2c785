#include "admit/admit.h"

#include <algorithm>
#include <cmath>

namespace scalewall::admit {

std::string_view PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kBestEffort:
      return "best_effort";
  }
  return "?";
}

std::string_view RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kRateLimit:
      return "rate_limit";
    case RejectReason::kOverload:
      return "overload";
    case RejectReason::kPoolLimit:
      return "pool_limit";
    case RejectReason::kBytesLimit:
      return "bytes_limit";
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kFairShare:
      return "fair_share";
    case RejectReason::kQueueWait:
      return "queue_wait";
    case RejectReason::kDeadline:
      return "deadline";
  }
  return "?";
}

std::vector<double> WeightedFairShares(
    double capacity, const std::vector<ShareRequest>& requests) {
  std::vector<double> alloc(requests.size(), 0.0);
  if (capacity <= 0.0 || requests.empty()) return alloc;
  constexpr double kEps = 1e-12;
  std::vector<size_t> active;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].weight > 0.0 && requests[i].demand > 0.0) {
      active.push_back(i);
    }
  }
  double remaining = capacity;
  while (!active.empty() && remaining > kEps) {
    double total_weight = 0.0;
    for (size_t i : active) total_weight += requests[i].weight;
    // Water level this round: remaining capacity per unit of weight.
    const double level = remaining / total_weight;
    std::vector<size_t> unsatisfied;
    bool saturated_any = false;
    for (size_t i : active) {
      const double offer = level * requests[i].weight;
      const double want = requests[i].demand - alloc[i];
      if (want <= offer + kEps) {
        // Demand met below the water level: cap at demand and re-pour
        // the slack over the rest next round.
        alloc[i] = requests[i].demand;
        remaining -= want;
        saturated_any = true;
      } else {
        unsatisfied.push_back(i);
      }
    }
    if (!saturated_any) {
      // Everyone still wants more than the level: final pour.
      for (size_t i : unsatisfied) alloc[i] += level * requests[i].weight;
      break;
    }
    active = std::move(unsatisfied);
  }
  return alloc;
}

ServiceTimeEstimator::ServiceTimeEstimator(size_t window, SimDuration seed)
    : window_(window == 0 ? 1 : window), seed_(seed) {
  ring_.reserve(window_);
}

void ServiceTimeEstimator::Record(SimDuration service) {
  if (service < 0) service = 0;
  if (ring_.size() < window_) {
    ring_.push_back(service);
    sum_ += service;
  } else {
    sum_ += service - ring_[next_];
    ring_[next_] = service;
  }
  next_ = (next_ + 1) % window_;
}

SimDuration ServiceTimeEstimator::Predict() const {
  if (ring_.empty()) return seed_;
  return static_cast<SimDuration>(sum_ /
                                  static_cast<int64_t>(ring_.size()));
}

AdmissionController::Stats::Stats(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  admitted = registry->GetCounter("scalewall_admit_requests_total",
                                  {{"result", "admitted"}});
  rejected = registry->GetCounter("scalewall_admit_requests_total",
                                  {{"result", "rejected"}});
  queued = registry->GetCounter("scalewall_admit_queued_total");
  completed = registry->GetCounter("scalewall_admit_completed_total");
  preemptions = registry->GetCounter("scalewall_pool_preemptions_total");
  // All reason series registered eagerly so the export is stable from
  // the first scrape (kNone is never incremented but keeps indices
  // aligned with the enum).
  for (int r = 1; r < kNumRejectReasons; ++r) {
    rejected_reason[r] = registry->GetCounter(
        "scalewall_admit_rejected_total",
        {{"reason",
          std::string(RejectReasonName(static_cast<RejectReason>(r)))}});
  }
  queue_wait_ms = registry->GetHistogram("scalewall_admit_queue_wait_ms", {},
                                         /*min_value=*/0.001);
}

AdmissionController::AdmissionController(AdmitOptions options)
    : options_(std::move(options)),
      tree_(options_.default_weight),
      estimator_(options_.estimator_window, options_.estimator_seed),
      stats_(options_.metrics) {
  tokens_ = BurstLocked();
  for (const auto& [path, config] : options_.pools) {
    tree_.ConfigurePool(path, config);
  }
  if (options_.metrics != nullptr) {
    inflight_gauge_ = options_.metrics->GetGauge("scalewall_admit_inflight");
    inflight_bytes_gauge_ =
        options_.metrics->GetGauge("scalewall_admit_inflight_bytes");
    predicted_service_gauge_ =
        options_.metrics->GetGauge("scalewall_admit_predicted_service_ms");
  }
}

void AdmissionController::RegisterPoolSeriesLocked(PoolId pool) {
  if (options_.metrics == nullptr || series_.contains(pool)) return;
  // The tree keeps every per-pool count under its own lock and never
  // calls the registry, so the series read it at scrape time.
  const std::string label = tree_.PoolPath(pool);
  std::vector<obs::CallbackSeries>& series = series_[pool];
  auto add = [&](const char* name, obs::MetricLabels labels, bool counter,
                 auto field) {
    auto read = [this, pool, field] { return tree_.Snapshot(pool).*field; };
    series.push_back(
        counter ? options_.metrics->CallbackCounter(name, labels, read)
                : options_.metrics->CallbackGauge(name, labels, read));
  };
  using Snapshot = FairShareTree::PoolSnapshot;
  for (const auto& [result, field] :
       {std::pair{"admitted", &Snapshot::admitted},
        std::pair{"rejected", &Snapshot::rejected},
        std::pair{"completed", &Snapshot::completed},
        std::pair{"preempted", &Snapshot::preempted}}) {
    add("scalewall_pool_queries_total", {{"pool", label}, {"result", result}},
        true, field);
  }
  add("scalewall_pool_service_micros_total", {{"pool", label}}, true,
      &Snapshot::service_micros);
  add("scalewall_pool_fair_share", {{"pool", label}}, false,
      &Snapshot::fair_share);
  add("scalewall_pool_inflight", {{"pool", label}}, false,
      &Snapshot::running);
}

void AdmissionController::CloseTicketLocked(uint64_t id, bool preempted) {
  auto it = tickets_.find(id);
  if (it == tickets_.end()) return;
  const Ticket& ticket = it->second;
  tree_.OnRelease(ticket.pool, ticket.bytes, preempted);
  if (preempted) {
    if (ticket.cancel != nullptr) ticket.cancel->RequestCancel();
    ++stats_.preemptions;
  }
  inflight_bytes_ -= std::min(inflight_bytes_, ticket.bytes);
  releases_.erase({ticket.release, id});
  tickets_.erase(it);
}

void AdmissionController::ReleaseExpiredLocked(SimTime now) {
  while (!releases_.empty() && releases_.begin()->first <= now) {
    CloseTicketLocked(releases_.begin()->second);
  }
}

double AdmissionController::BurstLocked() const {
  if (options_.burst > 0.0) return options_.burst;
  return std::max(1.0, options_.max_rate);
}

void AdmissionController::RefillTokensLocked(SimTime now) {
  if (now <= tokens_at_) return;
  const double elapsed_seconds =
      static_cast<double>(now - tokens_at_) / static_cast<double>(kSecond);
  tokens_ = std::min(BurstLocked(), tokens_ + options_.max_rate * elapsed_seconds);
  tokens_at_ = now;
}

void AdmissionController::RecomputeSharesLocked() {
  // Demand per pool: running + queued tickets — the pre-arrival state.
  // The arrival being decided holds no capacity yet, and counting it
  // would inflate a lightly-loaded pool's published share far above
  // anything its occupancy can ever realize. Counts only — no clocks,
  // no randomness — so the published shares are deterministic across
  // same-seed runs.
  std::map<PoolId, double> demand;
  for (const auto& [id, ticket] : tickets_) demand[ticket.pool] += 1.0;
  std::vector<FairShareTree::PoolDemand> demands;
  demands.reserve(demand.size());
  for (const auto& [pool, want] : demand) demands.push_back({pool, want});
  // Pour over the full admission budget (slots + wait queue), not just
  // the slots: demand counts queued tickets, so normalizing by
  // max_concurrency alone would publish shares that sum past 1 whenever
  // the queue is occupied — observed occupancy could never track them.
  tree_.Recompute(static_cast<double>(options_.max_concurrency +
                                      EffectiveMaxQueuedLocked()),
                  demands);
}

int AdmissionController::EffectiveMaxQueuedLocked() const {
  // max_queued < 0 means "unspecified": the wait queue defaults to one
  // extra concurrency budget's worth of tickets.
  return options_.max_queued < 0 ? options_.max_concurrency
                                 : options_.max_queued;
}

int AdmissionController::QueuedCountLocked(PoolId pool) const {
  // Tickets beyond the max_concurrency earliest releases are (virtually)
  // still waiting for a slot.
  int queued = 0;
  size_t rank = 0;
  for (const auto& [release, id] : releases_) {
    if (rank++ < static_cast<size_t>(options_.max_concurrency)) continue;
    auto it = tickets_.find(id);
    if (it != tickets_.end() && it->second.pool == pool) ++queued;
  }
  return queued;
}

uint64_t AdmissionController::PreemptionVictimLocked(PoolId starved) const {
  // Newest first (ticket ids are monotonic): the least-invested work
  // loses. Only best-effort tickets of unguaranteed pools qualify — a
  // guaranteed pool's work is never cancelled, whatever its tier.
  uint64_t victim = 0;
  for (const auto& [id, ticket] : tickets_) {
    if (ticket.priority != Priority::kBestEffort) continue;
    if (ticket.pool == starved) continue;
    if (tree_.HasGuarantee(ticket.pool)) continue;
    if (id > victim) victim = id;
  }
  return victim;
}

SimDuration AdmissionController::PredictedWaitLocked(SimTime now) const {
  // All max_concurrency slots are busy: the new arrival starts when the
  // k-th earliest reservation releases, where k queued-or-running
  // reservations beyond the slot count stand ahead of it.
  const size_t ahead = releases_.size() -
                       static_cast<size_t>(options_.max_concurrency);
  auto it = releases_.begin();
  std::advance(it, ahead);
  return std::max<SimDuration>(it->first - now, 0);
}

void AdmissionController::UpdateGaugesLocked() {
  inflight_gauge_.Set(static_cast<double>(tickets_.size()));
  inflight_bytes_gauge_.Set(static_cast<double>(inflight_bytes_));
  predicted_service_gauge_.Set(ToMillis(estimator_.Predict()));
}

Decision AdmissionController::Admit(const RequestInfo& info) {
  std::lock_guard<std::mutex> lock(mu_);
  const SimTime now = info.now;
  ReleaseExpiredLocked(now);
  const int tier = static_cast<int>(info.priority);
  const PoolId pool = tree_.Resolve(info.pool_path, info.weight_hint);
  RegisterPoolSeriesLocked(pool);
  const PoolConfig config = tree_.Config(pool);
  const size_t bytes =
      info.bytes > 0 ? info.bytes : options_.default_query_bytes;

  Decision decision;
  decision.predicted_service = estimator_.Predict();

  auto reject = [&](RejectReason reason, SimDuration retry_after) {
    decision.admitted = false;
    decision.reason = reason;
    decision.retry_after = std::max<SimDuration>(retry_after, kMillisecond);
    ++stats_.rejected;
    ++stats_.rejected_reason[static_cast<int>(reason)];
    tree_.OnReject(pool);
    UpdateGaugesLocked();
    return decision;
  };

  // 1. Token-bucket rate limit.
  if (options_.max_rate > 0.0) {
    RefillTokensLocked(now);
    if (tokens_ < 1.0) {
      const double deficit_seconds = (1.0 - tokens_) / options_.max_rate;
      return reject(RejectReason::kRateLimit,
                    static_cast<SimDuration>(deficit_seconds *
                                             static_cast<double>(kSecond)));
    }
  }

  // 2. Priority-tiered shedding on the backend overload signal: the
  // backend is drowning in work already admitted, so the less important
  // tiers stop adding to it.
  if (options_.shed_overload[tier] > 0.0 &&
      info.backend_overload >= options_.shed_overload[tier]) {
    // The backlog drains at roughly one service time per slot: suggest
    // coming back after the excess above the shed threshold clears.
    const double excess =
        info.backend_overload - options_.shed_overload[tier] + 1.0;
    return reject(RejectReason::kOverload,
                  static_cast<SimDuration>(
                      excess * static_cast<double>(decision.predicted_service)));
  }

  // 3. Hard per-pool and in-flight-bytes budgets (leaf-level caps; the
  // hierarchy's max-shares bound the fair-share pour separately).
  if (config.max_concurrency > 0 &&
      tree_.running(pool) >= config.max_concurrency) {
    return reject(RejectReason::kPoolLimit, decision.predicted_service);
  }
  if (config.max_inflight_bytes > 0 &&
      tree_.inflight_bytes(pool) + bytes > config.max_inflight_bytes) {
    return reject(RejectReason::kBytesLimit, decision.predicted_service);
  }
  if (options_.max_inflight_bytes > 0 &&
      inflight_bytes_ + bytes > options_.max_inflight_bytes) {
    return reject(RejectReason::kBytesLimit, decision.predicted_service);
  }

  // Publish this tick's demand-aware fair shares (snapshot/metric state;
  // never part of the admit/reject decision below, so the accounting
  // stays byte-invisible to the queries it describes).
  if (options_.max_concurrency > 0) RecomputeSharesLocked();

  // 4. Concurrency budget: take a free slot, preempt for a starved
  // guarantee, queue (virtually) for a slot, or shed. The fairness
  // check runs only under contention — an idle system admits any pool
  // straight through.
  const int inflight = static_cast<int>(tickets_.size());
  if (options_.max_concurrency > 0 && inflight >= options_.max_concurrency) {
    // min_share is a fraction of the same admission budget the shares
    // are poured over (slots + wait queue): the tree's running count
    // includes queued tickets, so the starvation threshold must use the
    // budget those tickets can actually occupy.
    const double capacity = static_cast<double>(options_.max_concurrency +
                                                EffectiveMaxQueuedLocked());
    // Min-share preemption: an arrival for a guaranteed pool running
    // below its entitlement does not queue behind best-effort work — it
    // cancels the newest best-effort ticket (cooperatively, via the
    // attached CancelToken) and takes the freed slot immediately. The
    // victim must be best-effort *and* unguaranteed; when none exists,
    // the arrival falls through to the ordinary queue path.
    if (options_.enable_preemption && tree_.Starved(pool, capacity)) {
      const uint64_t victim = PreemptionVictimLocked(pool);
      if (victim != 0) {
        CloseTicketLocked(victim, /*preempted=*/true);
        ++decision.preempted;
      }
    }
  }
  if (options_.max_concurrency > 0 &&
      static_cast<int>(tickets_.size()) >= options_.max_concurrency) {
    const int max_queued = EffectiveMaxQueuedLocked();
    // Hierarchical weight-proportional slice of the *wait queue*: slots
    // drain FIFO, so whoever occupies the queue owns the throughput,
    // and capping each pool's queued tickets at its slice makes
    // long-run goodput track the tree. Fairness deliberately does not
    // look at running tickets: a burst that momentarily fills the slots
    // while the queue is empty must stay invisible (no pool gets shed
    // for holding slots nobody else was waiting for). Checked *before*
    // the pool-blind queue-full cap — otherwise, once the queue
    // saturates, every arrival is shed blindly and an over-share pool's
    // tickets keep crowding the queue forever. The cap is strict (no
    // rounding up): rounding a 3.5-slot slice to 4 lets every pool
    // refill to the same rounded boundary, and the queue composition
    // never converges to the weighted split. A requester whose slice is
    // the whole queue (its branch is the only active one) falls through
    // to the queue-full check — the honest reason then.
    const double queue_budget = static_cast<double>(max_queued);
    const double slice = tree_.QueueSlice(pool, queue_budget);
    if (slice < queue_budget - 1e-9 &&
        static_cast<double>(QueuedCountLocked(pool)) + 1.0 >
            slice + 1e-9) {
      return reject(RejectReason::kFairShare, decision.predicted_service);
    }
    if (static_cast<int>(tickets_.size()) >=
        options_.max_concurrency + max_queued) {
      return reject(RejectReason::kQueueFull, decision.predicted_service);
    }
    decision.queue_wait = PredictedWaitLocked(now);
    // Deadline-aware admission: reject *now* instead of serving late.
    if (info.deadline > 0 &&
        decision.queue_wait + decision.predicted_service > info.deadline) {
      return reject(RejectReason::kDeadline, decision.queue_wait);
    }
    if (decision.queue_wait > options_.max_queue_wait[tier]) {
      return reject(RejectReason::kQueueWait,
                    decision.queue_wait - options_.max_queue_wait[tier]);
    }
  }

  // Admitted: charge the token, open the reservation.
  if (options_.max_rate > 0.0) tokens_ -= 1.0;
  decision.admitted = true;
  decision.ticket = next_ticket_++;
  Ticket ticket;
  ticket.pool = pool;
  ticket.priority = info.priority;
  ticket.bytes = bytes;
  ticket.admit_time = now;
  ticket.queue_wait = decision.queue_wait;
  // Provisional completion time so requests arriving before OnComplete
  // (same instant) see this slot taken; re-timed by OnComplete.
  ticket.release = now + decision.queue_wait + decision.predicted_service;
  releases_.insert({ticket.release, decision.ticket});
  tickets_.emplace(decision.ticket, std::move(ticket));
  tree_.OnAdmit(pool, bytes);
  inflight_bytes_ += bytes;
  ++stats_.admitted;
  if (decision.queue_wait > 0) {
    ++stats_.queued;
    stats_.queue_wait_ms.Add(ToMillis(decision.queue_wait));
  }
  UpdateGaugesLocked();
  return decision;
}

void AdmissionController::OnComplete(uint64_t ticket_id, SimDuration service) {
  std::lock_guard<std::mutex> lock(mu_);
  estimator_.Record(service);
  ++stats_.completed;
  auto it = tickets_.find(ticket_id);
  if (it == tickets_.end()) {
    UpdateGaugesLocked();
    return;
  }
  Ticket& ticket = it->second;
  tree_.ChargeService(ticket.pool, service);
  // Re-time the reservation from the predicted to the actual service
  // time; it releases lazily as the callers' clock advances past it.
  releases_.erase({ticket.release, ticket_id});
  ticket.release = ticket.admit_time + ticket.queue_wait +
                   std::max<SimDuration>(service, 0);
  releases_.insert({ticket.release, ticket_id});
  UpdateGaugesLocked();
}

void AdmissionController::AttachCancel(
    uint64_t ticket_id, std::shared_ptr<exec::CancelToken> cancel) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tickets_.find(ticket_id);
  if (it != tickets_.end()) it->second.cancel = std::move(cancel);
}

void AdmissionController::ConfigurePool(const std::string& path,
                                        const PoolConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  tree_.ConfigurePool(path, config);
}

int AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(tickets_.size());
}

size_t AdmissionController::inflight_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_bytes_;
}

SimDuration AdmissionController::PredictedService() const {
  std::lock_guard<std::mutex> lock(mu_);
  return estimator_.Predict();
}

}  // namespace scalewall::admit
