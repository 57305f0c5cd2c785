// Work-stealing thread pool for intra-host parallel query execution.
//
// Each worker owns a deque: it pushes and pops its own tasks LIFO (hot
// caches, bounded memory for recursively spawned work) and steals FIFO
// from the front of other workers' deques when its own runs dry (the
// oldest task is the one most likely to represent a large untouched
// chunk of work). External threads submit round-robin across workers.
//
// On top of the untagged deques sits an optional *scheduling-pool*
// layer, the exec end of admission's hierarchical fair-share promise:
// a server registers one scheduling pool per admission leaf
// (RegisterPool) and submits a query's scan tasks tagged with its pool.
// Tagged tasks queue per pool (FIFO within a pool) and idle workers
// pick the next pool by weighted stride scheduling — the pool with the
// smallest pass runs, then its pass advances by 1/weight — so when
// scan tasks from several admitted queries contend for the same
// workers, throughput tracks the admission weights instead of raw
// submission order. Workers drain their own deque first (recursively
// spawned subtasks keep LIFO locality), then the pool queues, then
// steal. Per-pool counters (tasks executed, wall-clock busy time) feed
// the scan-time charge-back to admit::FairShareTree.
//
// TaskGroup is the structured-concurrency barrier used by the morsel
// driver: Run() schedules a task, Wait() blocks until every task of the
// group finished. Wait() *helps*: while the group is open it keeps
// executing pool tasks on the calling thread, so nested groups (a task
// that opens its own group) cannot deadlock even on a pool of one
// worker.

#ifndef SCALEWALL_EXEC_THREAD_POOL_H_
#define SCALEWALL_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace scalewall::exec {

class ThreadPool {
 public:
  // Submit/Run pool tag for untagged work (the worker-deque fast path).
  static constexpr int kNoPool = -1;

  // Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Schedules `fn` for execution. Called from a worker of this pool, the
  // task lands on that worker's own deque; otherwise it is distributed
  // round-robin. `pool` tags the task with a registered scheduling pool
  // instead: it queues FIFO behind that pool's earlier tasks and
  // competes for workers by weighted stride (kNoPool / unknown ids take
  // the untagged path).
  void Submit(std::function<void()> fn, int pool = kNoPool);

  // Runs one pending task on the calling thread, if any. Returns false
  // when every deque was empty. Used by TaskGroup::Wait to help.
  bool TryRunOne();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Index of the calling thread within this pool, or -1 for external
  // threads.
  int CurrentWorkerIndex() const;

  // --- scheduling pools ---

  // Registers (or looks up) the scheduling pool named `name` and sets
  // its stride weight. Returns its stable id for Submit tagging.
  // Registering an existing name updates the weight in place.
  int RegisterPool(const std::string& name, double weight = 1.0);
  void SetPoolWeight(int pool, double weight);

  struct PoolCounters {
    std::string name;
    double weight = 1.0;
    int64_t tasks_executed = 0;
    // Wall-clock time workers spent inside this pool's tasks. Measured
    // with steady_clock around tagged tasks only — real time, so (like
    // CubrickServer's scan_micros) it must never feed a registered
    // metric in sim runs; it exists for the fair-share charge-back and
    // for snapshots.
    int64_t busy_micros = 0;
    int64_t queued = 0;  // tasks waiting in this pool's queue right now
  };
  // Registration-ordered snapshot of every scheduling pool.
  std::vector<PoolCounters> PoolStats() const;

  // --- introspection (tests/benches/metrics registry) ---
  // All counters are relaxed atomics: they are statistics, read
  // concurrently with execution, and carry no ordering guarantees.
  int64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  int64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  int64_t tasks_submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  // Tasks submitted but not yet picked up by any thread. A point-in-time
  // snapshot; can be momentarily stale while workers are mid-dequeue.
  int64_t queue_depth() const {
    return pending_.load(std::memory_order_relaxed);
  }
  // High-water mark of queue_depth() over the pool's lifetime. Unlike
  // the instantaneous depth (usually 0 by the time a poller looks), the
  // peak survives the burst that caused it — the overload evidence an
  // exporter scraping between queries can actually see.
  int64_t peak_queue_depth() const {
    return peak_pending_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };
  // One registered scheduling pool: a FIFO of tagged tasks plus the
  // stride state. Queue and pass are guarded by pools_mu_; the counters
  // are relaxed atomics read by PoolStats concurrently with execution.
  struct SchedPool {
    std::string name;
    double weight = 1.0;
    double pass = 0.0;  // stride scheduler virtual time
    std::deque<std::function<void()>> tasks;
    std::atomic<int64_t> executed{0};
    std::atomic<int64_t> busy_micros{0};
  };
  // A dequeued unit of work: the task and the scheduling pool it was
  // tagged with (kNoPool for deque/steal work).
  struct Found {
    std::function<void()> fn;
    int pool = kNoPool;
  };

  void WorkerLoop(int index);
  // Pops from the back of worker `index`'s own deque.
  bool PopOwn(int index, std::function<void()>& out);
  // Steals from the front of worker `index`'s deque.
  bool StealFrom(int index, std::function<void()>& out);
  // Pops the next tagged task by weighted stride across the registered
  // pools (smallest pass wins; its pass advances by 1/weight).
  bool PopPool(Found& out);
  // Finds work anywhere: own deque first (if `self` >= 0), then the
  // scheduling-pool queues, then a sweep over the other workers.
  bool FindWork(int self, Found& out);
  // Runs a found task, charging tagged tasks' wall time to their pool.
  void RunFound(Found& found);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  mutable std::mutex pools_mu_;
  std::vector<std::unique_ptr<SchedPool>> pools_;

  // Sleep/wake machinery: workers park on `wake_` when the pool is dry.
  std::mutex wake_mu_;
  std::condition_variable wake_;
  std::atomic<int64_t> pending_{0};
  std::atomic<int64_t> peak_pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> next_queue_{0};

  std::atomic<int64_t> tasks_executed_{0};
  std::atomic<int64_t> steals_{0};
  std::atomic<int64_t> submitted_{0};
};

// A barrier over a set of tasks scheduled on one pool.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Schedules `fn` as part of this group, optionally tagged with a
  // registered scheduling pool (see ThreadPool::Submit).
  void Run(std::function<void()> fn, int pool = ThreadPool::kNoPool);

  // Blocks until every task scheduled via Run() has finished, executing
  // pool tasks on the calling thread while it waits.
  void Wait();

 private:
  ThreadPool* pool_;
  std::atomic<int64_t> pending_{0};
  std::mutex mu_;
  std::condition_variable done_;
};

}  // namespace scalewall::exec

#endif  // SCALEWALL_EXEC_THREAD_POOL_H_
