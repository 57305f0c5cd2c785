// Unit tests for scalewall::exec: the work-stealing thread pool, task
// groups (including nested groups relying on helping Wait), morsel
// splitting, the self-scheduling morsel driver, and cooperative
// cancellation.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "exec/cancel.h"
#include "exec/morsel.h"
#include "exec/thread_pool.h"

namespace scalewall::exec {
namespace {

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Run([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_GE(pool.tasks_executed(), 100);
}

TEST(ThreadPoolTest, TracksSubmissionsAndQueueDepth) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.tasks_submitted(), 0);
  EXPECT_EQ(pool.queue_depth(), 0);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) {
    group.Run([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 64);
  // TaskGroup::Run goes through Submit, so every task is counted; the
  // group tasks plus possible helper-executed ones all drain.
  EXPECT_GE(pool.tasks_submitted(), 64);
  EXPECT_EQ(pool.queue_depth(), 0);
  EXPECT_GE(pool.tasks_executed() + pool.steals(), 0);
}

TEST(ThreadPoolTest, SingleWorkerPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 10; ++i) group.Run([&counter] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ClampsNonPositiveThreadCounts) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, CurrentWorkerIndexBoundedInsideTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.CurrentWorkerIndex(), -1);
  std::atomic<int> bad{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 32; ++i) {
    group.Run([&] {
      // A pool worker reports its index; a task stolen by a helping
      // Wait() runs on the waiting (non-pool) thread and reports -1.
      int index = pool.CurrentWorkerIndex();
      if (index < -1 || index >= pool.num_threads()) bad.fetch_add(1);
    });
  }
  group.Wait();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPoolTest, NestedTaskGroupsDoNotDeadlock) {
  // A task that opens its own group and Waits inside a pool worker must
  // complete even when the pool has a single thread: Wait() helps by
  // draining the deques from the waiting thread.
  ThreadPool pool(1);
  std::atomic<int> inner_done{0};
  TaskGroup outer(&pool);
  outer.Run([&] {
    TaskGroup inner(&pool);
    for (int i = 0; i < 8; ++i) {
      inner.Run([&inner_done] { inner_done.fetch_add(1); });
    }
    inner.Wait();
  });
  outer.Wait();
  EXPECT_EQ(inner_done.load(), 8);
}

TEST(ThreadPoolTest, ExternalSubmitRoundRobinsAndFinishes) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) group.Run([&counter] { ++counter; });
  group.Wait();
  EXPECT_EQ(counter.load(), 64);
}

TEST(SplitMorselsTest, FixedBoundariesAndOrder) {
  auto morsels = SplitMorsels({10, 0, 25}, 10);
  const std::vector<MorselRange> expected = {
      {0, 0, 10}, {1, 0, 0}, {2, 0, 10}, {2, 10, 20}, {2, 20, 25}};
  EXPECT_EQ(morsels, expected);
}

TEST(SplitMorselsTest, ZeroMorselRowsFallsBackToDefault) {
  auto morsels = SplitMorsels({5}, 0);
  ASSERT_EQ(morsels.size(), 1u);
  EXPECT_EQ(morsels[0], (MorselRange{0, 0, 5}));
}

TEST(ForEachMorselTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  MorselMetrics metrics;
  Status status = ForEachMorsel(
      &pool, 4, kCount, [&](size_t i) { hits[i].fetch_add(1); },
      /*cancel=*/nullptr, &metrics);
  ASSERT_TRUE(status.ok());
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_EQ(metrics.executed, static_cast<int64_t>(kCount));
  EXPECT_EQ(metrics.skipped, 0);
}

TEST(ForEachMorselTest, SerialFallbackWithoutPool) {
  std::vector<int> hits(10, 0);
  Status status =
      ForEachMorsel(nullptr, 4, hits.size(), [&](size_t i) { hits[i]++; });
  ASSERT_TRUE(status.ok());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ForEachMorselTest, PreCancelledSchedulesNothing) {
  ThreadPool pool(4);
  CancelToken cancel;
  cancel.RequestCancel();
  std::atomic<int> ran{0};
  MorselMetrics metrics;
  Status status = ForEachMorsel(
      &pool, 4, 100, [&](size_t) { ran.fetch_add(1); }, &cancel, &metrics);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(metrics.executed, 0);
  EXPECT_EQ(metrics.skipped, 100);
}

TEST(ForEachMorselTest, MidRunCancellationStopsSchedulingMorsels) {
  constexpr int kTasks = 2;
  ThreadPool pool(kTasks);
  CancelToken cancel;
  std::atomic<int> ran{0};
  std::atomic<bool> flipped{false};
  std::atomic<int> started_after_flip{0};
  MorselMetrics metrics;
  // The body cancels the token after a handful of morsels: remaining
  // morsels must never start. A task checks the token before claiming
  // each morsel, so once the cancel has returned each task may start at
  // most the one morsel it had already checked for — however the
  // scheduler interleaves the workers.
  Status status = ForEachMorsel(
      &pool, kTasks, 10000,
      [&](size_t) {
        if (flipped.load()) started_after_flip.fetch_add(1);
        if (ran.fetch_add(1) + 1 == 5) {
          cancel.RequestCancel();
          flipped.store(true);
        }
      },
      &cancel, &metrics);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_LE(started_after_flip.load(), kTasks);
  EXPECT_GT(metrics.skipped, 0);
}

TEST(ForEachMorselTest, SerialPathHonoursCancellation) {
  CancelToken cancel;
  int ran = 0;
  Status status = ForEachMorsel(nullptr, 1, 100,
                                [&](size_t) {
                                  if (++ran == 3) cancel.RequestCancel();
                                },
                                &cancel);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(ran, 3);
}

TEST(ForEachMorselTest, WorkStealingKeepsAllWorkersProductive) {
  // Many tiny morsels submitted through one group: regardless of where
  // the deque entries land, the shared morsel counter plus stealing must
  // complete them all.
  ThreadPool pool(8);
  std::atomic<int64_t> sum{0};
  Status status = ForEachMorsel(&pool, 8, 5000, [&](size_t i) {
    sum.fetch_add(static_cast<int64_t>(i));
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(sum.load(), 5000LL * 4999 / 2);
}

}  // namespace
}  // namespace scalewall::exec
