// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// A dependency-light task pool for fork/join parallelism.
//
// The library needs parallelism in exactly two shapes: recursive fork/join
// during index construction (subtrees build independently, then join), and
// flat slicing of query batches (serve/shard_replica.h). Both are served by a
// fixed set of workers pulling from one FIFO queue — no work stealing, no
// per-thread deques. The subtle requirement is nesting: a construction task
// forks child tasks onto the *same* pool and waits for them, so a blocking
// join could deadlock once every worker is a waiter. TaskGroup::Wait avoids
// that by helping: while its tasks are outstanding it pops and runs queued
// tasks (anyone's) instead of sleeping, so some thread always makes progress.
//
// Indexes are immutable after construction (the contract exercised by
// tests/concurrency_test.cc), which is what makes the query-side sharding
// synchronization-free.
//
// Locking contract (checked by clang -Wthread-safety, see
// common/thread_annotations.h): the pool's queue and stop flag are guarded
// by mu_; TaskGroup's pending count is an atomic and its mutex exists only
// to make the final-decrement/notify handoff race-free against a waiter
// destroying the group. Raw std::thread is confined to this file (enforced
// by kwsc-lint's concurrency-raw-thread rule).

#ifndef KWSC_COMMON_THREAD_POOL_H_
#define KWSC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace kwsc {

class TaskGroup;

/// Fixed set of worker threads over a FIFO task queue. Tasks are submitted
/// through a TaskGroup, never directly; the pool itself only runs them.
class ThreadPool {
 public:
  /// Spawns `num_workers` >= 1 threads. The caller participates too (see
  /// TaskGroup::Wait), so a pool for T-way parallelism wants T - 1 workers.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Threads that can make progress simultaneously: the workers plus the
  /// caller helping from TaskGroup::Wait.
  int parallelism() const { return num_workers() + 1; }

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void Enqueue(Task task) KWSC_EXCLUDES(mu_);

  /// Pops and runs one queued task; returns false if the queue was empty.
  bool RunOneTask() KWSC_EXCLUDES(mu_);

  void WorkerLoop() KWSC_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<Task> queue_ KWSC_GUARDED_BY(mu_);
  bool stopping_ KWSC_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// A fork/join scope: Run() submits tasks, Wait() blocks until every task
/// submitted through this group has finished. Wait() helps drain the pool's
/// queue while waiting, so nested groups (a task forking its own subtasks)
/// cannot deadlock. The destructor waits, so a group never outlives its
/// outstanding tasks — references captured by the tasks may safely point
/// into the enclosing frame.
///
/// A null pool makes Run() execute the task inline, letting callers use one
/// code path for sequential and parallel execution.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn) KWSC_EXCLUDES(mu_);
  void Wait() KWSC_EXCLUDES(mu_);

 private:
  friend class ThreadPool;
  void OnTaskDone() KWSC_EXCLUDES(mu_);

  ThreadPool* pool_;
  /// Outstanding task count. Atomic rather than guarded: Run() increments
  /// from the submitting thread without the lock; the decrement and the
  /// final notify happen under mu_ (see OnTaskDone) so a waiter cannot
  /// observe zero while the last worker still touches this group.
  std::atomic<uint64_t> pending_{0};
  Mutex mu_;
  CondVar cv_;
};

/// Resolves FrameworkOptions::num_threads: a positive request is taken
/// verbatim, 0 means one thread per hardware thread (at least 1).
int ResolveNumThreads(int requested);

}  // namespace kwsc

#endif  // KWSC_COMMON_THREAD_POOL_H_
