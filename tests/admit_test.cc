// Unit tests for scalewall::admit: the weighted fair-share math, the
// windowed service-time estimator, and the admission controller's
// budget accounting, shedding tiers, and deadline-aware rejection.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "admit/admit.h"
#include "common/time.h"

namespace scalewall::admit {
namespace {

// --- weighted max-min fair shares ---

TEST(WeightedFairSharesTest, SplitsByWeightWhenAllSaturated) {
  std::vector<double> shares = WeightedFairShares(
      24.0, {{2.0, 100.0}, {1.0, 100.0}, {1.0, 100.0}});
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_DOUBLE_EQ(shares[0], 12.0);
  EXPECT_DOUBLE_EQ(shares[1], 6.0);
  EXPECT_DOUBLE_EQ(shares[2], 6.0);
}

TEST(WeightedFairSharesTest, RepoursDemandCappedSlack) {
  // The first request only wants 2 of its 5-slot entitlement; the
  // remainder is re-poured over the unsatisfied request.
  std::vector<double> shares =
      WeightedFairShares(10.0, {{1.0, 2.0}, {1.0, 100.0}});
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_DOUBLE_EQ(shares[0], 2.0);
  EXPECT_DOUBLE_EQ(shares[1], 8.0);
}

TEST(WeightedFairSharesTest, NeverExceedsDemandOrCapacity) {
  std::vector<double> shares =
      WeightedFairShares(10.0, {{1.0, 3.0}, {1.0, 3.0}});
  EXPECT_DOUBLE_EQ(shares[0], 3.0);
  EXPECT_DOUBLE_EQ(shares[1], 3.0);
  EXPECT_TRUE(WeightedFairShares(10.0, {}).empty());
  shares = WeightedFairShares(0.0, {{1.0, 5.0}});
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_DOUBLE_EQ(shares[0], 0.0);
}

// --- service-time estimator ---

TEST(ServiceTimeEstimatorTest, ReturnsSeedUntilFirstSample) {
  ServiceTimeEstimator est(/*window=*/4, /*seed=*/25 * kMillisecond);
  EXPECT_EQ(est.Predict(), 25 * kMillisecond);
  est.Record(5 * kMillisecond);
  EXPECT_EQ(est.Predict(), 5 * kMillisecond);
}

TEST(ServiceTimeEstimatorTest, ConvergesToWindowMean) {
  ServiceTimeEstimator est(/*window=*/4, /*seed=*/kMillisecond);
  // Fill the window with 10 ms, then overwrite it with 20 ms samples:
  // the sliding window must forget the old regime entirely.
  for (int i = 0; i < 4; ++i) est.Record(10 * kMillisecond);
  EXPECT_EQ(est.Predict(), 10 * kMillisecond);
  for (int i = 0; i < 4; ++i) est.Record(20 * kMillisecond);
  EXPECT_EQ(est.Predict(), 20 * kMillisecond);
  EXPECT_EQ(est.samples(), 4u);
  // A mixed window predicts the mean of what it holds.
  est.Record(40 * kMillisecond);
  EXPECT_EQ(est.Predict(), 25 * kMillisecond);
}

// --- admission controller ---

RequestInfo At(SimTime now, const std::string& pool = "",
               Priority priority = Priority::kInteractive) {
  RequestInfo info;
  info.now = now;
  info.pool_path = pool;
  info.priority = priority;
  return info;
}

TEST(AdmissionControllerTest, AdmitsFreelyBelowConcurrencyBudget) {
  AdmitOptions options;
  options.max_concurrency = 4;
  AdmissionController admit(options);
  for (int i = 0; i < 4; ++i) {
    Decision d = admit.Admit(At(0));
    EXPECT_TRUE(d.admitted);
    EXPECT_EQ(d.queue_wait, 0);
    EXPECT_NE(d.ticket, 0u);
  }
  EXPECT_EQ(admit.inflight(), 4);
  EXPECT_EQ(admit.stats().admitted.value(), 4);
}

TEST(AdmissionControllerTest, QueuesThenShedsWhenBudgetExhausted) {
  AdmitOptions options;
  options.max_concurrency = 2;
  options.max_queued = 2;
  AdmissionController admit(options);
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(admit.Admit(At(0)).admitted);
  // Slots full: the next two queue virtually (positive wait).
  for (int i = 0; i < 2; ++i) {
    Decision d = admit.Admit(At(0));
    EXPECT_TRUE(d.admitted);
    EXPECT_GT(d.queue_wait, 0);
  }
  // Budget (2 running + 2 queued) exhausted. A sole tenant owns the
  // whole budget, so the reason is queue-full, not fair-share.
  Decision d = admit.Admit(At(0));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kQueueFull);
  EXPECT_GE(d.retry_after, kMillisecond);
  EXPECT_EQ(admit.stats().queued.value(), 2);
}

TEST(AdmissionControllerTest, BytesBudgetAccounting) {
  AdmitOptions options;
  options.max_concurrency = 16;
  options.default_query_bytes = 60;
  options.max_inflight_bytes = 100;
  AdmissionController admit(options);
  EXPECT_TRUE(admit.Admit(At(0)).admitted);
  EXPECT_EQ(admit.inflight_bytes(), 60u);
  Decision d = admit.Admit(At(0));  // 120 > 100
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kBytesLimit);
  // An explicit (smaller) byte cost still fits.
  RequestInfo small = At(0);
  small.bytes = 40;
  EXPECT_TRUE(admit.Admit(small).admitted);
  EXPECT_EQ(admit.inflight_bytes(), 100u);
}

TEST(AdmissionControllerTest, PerPoolCapsOverrideDefaults) {
  AdmitOptions options;
  options.max_concurrency = 16;
  AdmissionController admit(options);
  PoolConfig capped;
  capped.max_concurrency = 1;
  capped.max_inflight_bytes = 1 << 20;
  admit.ConfigurePool("capped", capped);
  EXPECT_TRUE(admit.Admit(At(0, "capped")).admitted);
  Decision d = admit.Admit(At(0, "capped"));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kPoolLimit);
  // Other pools are unaffected by the capped pool's limits.
  EXPECT_TRUE(admit.Admit(At(0, "other")).admitted);
}

TEST(AdmissionControllerTest, TokenBucketMapsLegacyMaxQps) {
  // A rate-only configuration (max_concurrency = 0, max_rate set): the
  // token bucket alone, no concurrency machinery.
  AdmitOptions options;
  options.max_concurrency = 0;
  options.max_rate = 2.0;
  AdmissionController admit(options);
  EXPECT_TRUE(admit.Admit(At(0)).admitted);
  EXPECT_TRUE(admit.Admit(At(0)).admitted);
  Decision d = admit.Admit(At(0));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kRateLimit);
  EXPECT_GT(d.retry_after, 0);
  // Tokens refill with the (virtual) clock.
  EXPECT_TRUE(admit.Admit(At(kSecond)).admitted);
  EXPECT_EQ(admit.stats().rejected_reason[static_cast<int>(
                RejectReason::kRateLimit)].value(),
            1);
}

TEST(AdmissionControllerTest, OverloadShedsLowerTiersFirst) {
  AdmitOptions options;
  options.max_concurrency = 16;
  options.shed_overload = {8.0, 4.0, 2.0};
  AdmissionController admit(options);
  RequestInfo info = At(0, "", Priority::kBestEffort);
  info.backend_overload = 3.0;
  Decision d = admit.Admit(info);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kOverload);
  // The same signal leaves batch and interactive traffic alone.
  info.priority = Priority::kBatch;
  EXPECT_TRUE(admit.Admit(info).admitted);
  info.priority = Priority::kInteractive;
  EXPECT_TRUE(admit.Admit(info).admitted);
  // Deep overload sheds interactive too.
  info.backend_overload = 9.0;
  d = admit.Admit(info);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kOverload);
}

TEST(AdmissionControllerTest, DeadlineAwareRejection) {
  AdmitOptions options;
  options.max_concurrency = 1;
  options.max_queued = 4;
  options.estimator_seed = kSecond;  // predicted service: 1 s
  AdmissionController admit(options);
  EXPECT_TRUE(admit.Admit(At(0)).admitted);
  // The slot frees in ~1 s; wait (1 s) + service (1 s) blows a 500 ms
  // deadline, so the query is rejected *now* rather than served late.
  RequestInfo info = At(0);
  info.deadline = 500 * kMillisecond;
  Decision d = admit.Admit(info);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kDeadline);
  EXPECT_GE(d.retry_after, kMillisecond);
  // A deadline generous enough to absorb the queue wait is admitted.
  info.deadline = 5 * kSecond;
  d = admit.Admit(info);
  EXPECT_TRUE(d.admitted);
  EXPECT_GT(d.queue_wait, 0);
}

TEST(AdmissionControllerTest, QueueWaitCapIsPerPriority) {
  AdmitOptions options;
  options.max_concurrency = 1;
  options.max_queued = 8;
  options.estimator_seed = kSecond;
  options.max_queue_wait = {2 * kSecond, 10 * kSecond, kSecond / 2};
  AdmissionController admit(options);
  EXPECT_TRUE(admit.Admit(At(0)).admitted);
  // Predicted wait ~1 s: above the best-effort cap, below the others.
  Decision d = admit.Admit(At(0, "", Priority::kBestEffort));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kQueueWait);
  EXPECT_TRUE(admit.Admit(At(0, "", Priority::kBatch)).admitted);
}

TEST(AdmissionControllerTest, OnCompleteRetimesReservation) {
  AdmitOptions options;
  options.max_concurrency = 1;
  options.max_queued = 0;
  options.estimator_seed = 10 * kSecond;  // pessimistic prediction
  AdmissionController admit(options);
  Decision a = admit.Admit(At(0));
  ASSERT_TRUE(a.admitted);
  // The query actually finished in 5 ms: its reservation moves from
  // t=10s to t=5ms, so a query arriving at t=6ms finds a free slot.
  admit.OnComplete(a.ticket, 5 * kMillisecond);
  Decision b = admit.Admit(At(6 * kMillisecond));
  EXPECT_TRUE(b.admitted);
  EXPECT_EQ(b.queue_wait, 0);
  EXPECT_EQ(admit.stats().completed.value(), 1);
}

TEST(AdmissionControllerTest, EstimatorLearnsFromCompletions) {
  AdmitOptions options;
  options.max_concurrency = 64;
  options.estimator_seed = kMillisecond;
  AdmissionController admit(options);
  for (int i = 0; i < 8; ++i) {
    Decision d = admit.Admit(At(i * kSecond));
    ASSERT_TRUE(d.admitted);
    admit.OnComplete(d.ticket, 30 * kMillisecond);
  }
  EXPECT_EQ(admit.PredictedService(), 30 * kMillisecond);
}

TEST(AdmissionControllerTest, FairShareSplitsQueueByWeight) {
  // Two pools, weights 3:1, 4 running slots + a 4-slot wait queue,
  // all queries long-lived. The free slots admit anyone (2/2), but the
  // wait queue — which owns all future throughput — must split 3:1 by
  // weight, with every further arrival shed as over-slice.
  AdmitOptions options;
  options.max_concurrency = 4;
  options.max_queued = 4;
  PoolConfig heavy;
  heavy.weight = 3.0;
  options.pools["a"] = heavy;
  AdmissionController admit(options);
  int admitted_a = 0;
  int admitted_b = 0;
  for (int round = 0; round < 16; ++round) {
    if (admit.Admit(At(0, "a")).admitted) ++admitted_a;
    if (admit.Admit(At(0, "b")).admitted) ++admitted_b;
  }
  // 2 running + 3 queued for a; 2 running + 1 queued for b.
  EXPECT_EQ(admitted_a, 5);
  EXPECT_EQ(admitted_b, 3);
  Decision d = admit.Admit(At(0, "b"));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kFairShare);
  // Per-pool accounting matches (running counts queued tickets too).
  for (const auto& snap : admit.Pools()) {
    if (snap.path == "a") {
      EXPECT_EQ(snap.running, 5);
      EXPECT_DOUBLE_EQ(snap.weight, 3.0);
    } else if (snap.path == "b") {
      EXPECT_EQ(snap.running, 3);
    }
  }
}

TEST(AdmissionControllerTest, IdlePoolReleasesItsShare) {
  AdmitOptions options;
  options.max_concurrency = 4;
  options.max_queued = 4;
  AdmissionController admit(options);
  // Pool b takes its half (4 of 8)...
  std::vector<uint64_t> b_tickets;
  for (int i = 0; i < 8; ++i) {
    Decision d = admit.Admit(At(0, "b"));
    Decision a = admit.Admit(At(0, "a"));
    if (d.admitted) b_tickets.push_back(d.ticket);
    (void)a;
  }
  ASSERT_EQ(b_tickets.size(), 4u);
  // ...then finishes everything. Once its reservations lapse, pool a
  // owns the whole budget again.
  for (uint64_t t : b_tickets) admit.OnComplete(t, kMillisecond);
  int admitted_a = 0;
  while (admit.Admit(At(kMinute, "a")).admitted) ++admitted_a;
  EXPECT_EQ(admitted_a, 8);
  EXPECT_EQ(admit.inflight(), 8);
}

TEST(AdmissionControllerTest, ZeroConcurrencyDisablesQueueMachinery) {
  AdmitOptions options;
  options.max_concurrency = 0;
  AdmissionController admit(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(admit.Admit(At(0)).admitted);
  }
  EXPECT_EQ(admit.stats().rejected.value(), 0);
}

TEST(AdmissionControllerTest, ConcurrentAdmitAndCompleteAreSafe) {
  AdmitOptions options;
  options.max_concurrency = 8;
  options.max_queued = 8;
  AdmissionController admit(options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string pool = "org/tenant" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        Decision d = admit.Admit(At(0, pool));
        if (d.admitted) {
          admitted.fetch_add(1, std::memory_order_relaxed);
          admit.OnComplete(d.ticket, kMillisecond);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every admission was balanced by a completion; the virtual clock
  // never advanced past 0, so all reservations are still open.
  EXPECT_EQ(admit.stats().admitted.value(), admitted.load());
  EXPECT_EQ(admit.stats().completed.value(), admitted.load());
  EXPECT_LE(admit.inflight(),
            options.max_concurrency + options.max_queued);
  EXPECT_GE(admitted.load(), options.max_concurrency);
}

}  // namespace
}  // namespace scalewall::admit
