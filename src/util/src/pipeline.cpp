#include "ccov/util/pipeline.hpp"

#include "ccov/util/failpoint.hpp"

#include <utility>

namespace ccov::util {

OrderedPipeline::OrderedPipeline(std::size_t depth) : depth_(depth) {
  if (depth_ > 0) worker_ = std::thread([this] { run(); });
}

OrderedPipeline::~OrderedPipeline() {
  if (!worker_.joinable()) return;
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

bool OrderedPipeline::enqueue(std::function<bool()> job) {
  // Fault-injection seam, delay-only: stalling a submit back-pressures
  // the parser thread exactly like a slow worker would. Submits are
  // never "failed" — ordering guarantees would be meaningless if jobs
  // could vanish — so an error spec is deliberately ignored.
  (void)CCOV_FAILPOINT("pipeline_submit");
  if (depth_ == 0) {
    {
      MutexLock lk(mu_);
      if (dead_) return false;
    }
    execute(job);
    return true;
  }
  MutexLock lk(mu_);
  while (!dead_ && outstanding() >= depth_) space_cv_.wait(mu_);
  if (dead_) return false;
  queue_.push_back(std::move(job));
  work_cv_.notify_all();
  return true;
}

bool OrderedPipeline::drain() {
  MutexLock lk(mu_);
  while (!dead_ && (!queue_.empty() || running_)) space_cv_.wait(mu_);
  return !dead_;
}

void OrderedPipeline::execute(std::function<bool()>& job) {
  bool ok = false;
  try {
    ok = job();
  } catch (...) {
    ok = false;
  }
  if (!ok) {
    MutexLock lk(mu_);
    dead_ = true;
    queue_.clear();
  }
}

void OrderedPipeline::run() {
  // Two scoped critical sections per iteration instead of one lock
  // juggled with unlock()/lock() around the job: the thread-safety
  // analysis can prove each section, and the job provably runs
  // unlocked.
  for (;;) {
    std::function<bool()> job;
    {
      MutexLock lk(mu_);
      while (!stop_ && queue_.empty()) work_cv_.wait(mu_);
      if (queue_.empty()) return;  // stop_ with nothing left to do
      job = std::move(queue_.front());
      queue_.pop_front();
      running_ = true;
    }
    execute(job);
    {
      MutexLock lk(mu_);
      running_ = false;
    }
    space_cv_.notify_all();
  }
}

}  // namespace ccov::util
