#pragma once
/// \file thread_pool.hpp
/// A small fixed-size thread pool with a parallel_for helper. Benchmark
/// sweeps, property tests and the engine's BatchRunner share one pool to
/// exploit all cores; the combinatorial kernels themselves stay
/// single-threaded and deterministic.
///
/// TaskGroup is the only way to wait: every task is submitted against a
/// group, and group.wait() blocks on exactly those tasks and rethrows only
/// their exceptions, so a long-running serve loop can fan independent
/// batches across one shared pool without cross-talk. parallel_for uses
/// a private group of its own.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "ccov/util/thread_annotations.hpp"

namespace ccov::util {

class ThreadPool;

/// Completion token for one batch of tasks. Submit tasks against a group
/// with ThreadPool::submit(group, task); group.wait() then blocks until
/// exactly those tasks finished and rethrows the first exception *this
/// batch* raised — never another caller's. A TaskGroup may be reused for
/// further batches after wait() returns.
class TaskGroup {
 public:
  TaskGroup() : state_(std::make_shared<State>()) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Block until every task submitted against this group has finished,
  /// then rethrow the first exception one of them raised (if any). The
  /// stored exception is cleared on rethrow, so the group stays usable.
  void wait();

 private:
  friend class ThreadPool;
  struct State {
    Mutex mu;
    std::condition_variable_any cv;
    std::size_t pending CCOV_GUARDED_BY(mu) = 0;
    std::exception_ptr first_error CCOV_GUARDED_BY(mu);
  };
  std::shared_ptr<State> state_;
};

class ThreadPool {
 public:
  /// \p threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task against \p group; completion and exceptions are
  /// routed to that group alone (see TaskGroup::wait). A task that throws
  /// does not terminate the process.
  void submit(TaskGroup& group, std::function<void()> task);

 private:
  struct Item {
    std::function<void()> fn;
    std::shared_ptr<TaskGroup::State> group;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<Item> queue_ CCOV_GUARDED_BY(mu_);
  std::condition_variable_any cv_task_;
  bool stop_ CCOV_GUARDED_BY(mu_) = false;
};

/// Run fn(i) for i in [begin, end) across the pool, blocking until done.
/// Indices are chunked to limit queue overhead. An exception thrown by
/// fn propagates to the caller (remaining chunks still run to
/// completion; only the first exception is rethrown). Uses a private
/// TaskGroup, so concurrent parallel_for calls on one shared pool
/// neither wait on each other nor observe each other's exceptions.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ccov::util
