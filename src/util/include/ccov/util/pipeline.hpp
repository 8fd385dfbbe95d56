#pragma once
/// \file pipeline.hpp
/// OrderedPipeline: executes jobs strictly in submission order, with a
/// bounded amount of read-ahead. At depth >= 1 a single worker thread
/// runs the jobs and the producer keeps going while it does — enqueue
/// only blocks once `depth` jobs are outstanding — which is exactly the
/// double-buffering the serve loop uses to parse the next batch while
/// the current one solves. Depth 0 is the serial policy behind the same
/// interface: no worker is spawned and enqueue runs each job on the
/// caller's thread before returning. A job returns false to poison the
/// pipeline (e.g. the peer hung up): queued jobs are dropped and every
/// later enqueue/drain reports dead, so the producer can stop cleanly.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>

#include "ccov/util/thread_annotations.hpp"

namespace ccov::util {

class OrderedPipeline {
 public:
  /// \p depth outstanding jobs (running + queued) before enqueue
  /// blocks; 2 = classic double buffering (one running, one ready),
  /// 0 = run every job inline on the enqueuing thread.
  explicit OrderedPipeline(std::size_t depth = 2);

  /// Drains nothing: remaining queued jobs still execute (in order)
  /// before the worker exits, unless the pipeline died.
  ~OrderedPipeline();

  OrderedPipeline(const OrderedPipeline&) = delete;
  OrderedPipeline& operator=(const OrderedPipeline&) = delete;

  /// Queue a job behind the in-flight ones, blocking while the buffer
  /// is full (at depth 0: run it now). Returns false once the pipeline
  /// is dead (a job returned false or threw); the job is then not
  /// queued.
  bool enqueue(std::function<bool()> job);

  /// Block until every queued job has run. Returns false if the
  /// pipeline died.
  bool drain();

 private:
  std::size_t outstanding() const CCOV_REQUIRES(mu_) {
    return queue_.size() + (running_ ? 1 : 0);
  }

  void run();
  /// Run one job; a job that returns false or throws kills the pipeline.
  void execute(std::function<bool()>& job);

  const std::size_t depth_;
  Mutex mu_;
  std::condition_variable_any work_cv_;
  std::condition_variable_any space_cv_;
  std::deque<std::function<bool()>> queue_ CCOV_GUARDED_BY(mu_);
  bool running_ CCOV_GUARDED_BY(mu_) = false;
  bool dead_ CCOV_GUARDED_BY(mu_) = false;
  bool stop_ CCOV_GUARDED_BY(mu_) = false;
  std::thread worker_;  ///< not started at depth 0
};

}  // namespace ccov::util
