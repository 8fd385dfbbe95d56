#include "ccov/util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace ccov::util {

void TaskGroup::wait() {
  State& s = *state_;
  std::exception_ptr err;
  {
    MutexLock lk(s.mu);
    while (s.pending != 0) s.cv.wait(s.mu);
    err = std::exchange(s.first_error, nullptr);
  }
  // Rethrow outside the lock: the handler may submit follow-up work.
  if (err) std::rethrow_exception(err);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(TaskGroup& group, std::function<void()> task) {
  TaskGroup::State& s = *group.state_;
  {
    MutexLock lk(s.mu);
    ++s.pending;
  }
  {
    MutexLock lk(mu_);
    queue_.push(Item{std::move(task), group.state_});
  }
  cv_task_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Item item;
    {
      MutexLock lk(mu_);
      while (!stop_ && queue_.empty()) cv_task_.wait(mu_);
      if (queue_.empty()) return;  // stop_ must be set
      item = std::move(queue_.front());
      queue_.pop();
    }
    std::exception_ptr err;
    try {
      item.fn();
    } catch (...) {
      err = std::current_exception();
    }
    {
      MutexLock lk(item.group->mu);
      if (err && !item.group->first_error) item.group->first_error = err;
      if (--item.group->pending == 0) item.group->cv.notify_all();
    }
  }
}

}  // namespace ccov::util
