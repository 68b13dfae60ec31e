#include "pipeline/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <utility>

namespace mlp::pipeline {

void leave_cpu(int cpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (cpu < 0 || cpu >= CPU_SETSIZE ||
      ::sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
      !CPU_ISSET(cpu, &allowed) || CPU_COUNT(&allowed) < 2)
    return;
  cpu_set_t others = allowed;
  CPU_CLR(cpu, &others);
  // Leaving the CPU is what the first call is for; the second gives the
  // scheduler every CPU back and does not move the thread.
  if (::sched_setaffinity(0, sizeof others, &others) == 0)
    (void)::sched_setaffinity(0, sizeof allowed, &allowed);
}

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  workers_.reserve(threads);
  const int creator_cpu = ::sched_getcpu();
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, creator_cpu] {
      leave_cpu(creator_cpu);
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    util::MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    util::MutexLock lock(mutex_);
    // Explicit predicate loop: the thread-safety analysis only sees the
    // guarded reads when they happen in this scope, not inside a lambda.
    while (!queue_.empty() || in_flight_ != 0) idle_.wait(mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

std::size_t ThreadPool::resolve(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_available_.wait(mutex_);
      if (queue_.empty()) return;  // stopping with nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    // The in-flight count must drop on every exit path -- a leak here
    // would wedge wait_idle() forever -- so it lives in an RAII guard
    // rather than after the call.
    struct InFlightGuard {
      ThreadPool& pool;
      ~InFlightGuard() {
        util::MutexLock lock(pool.mutex_);
        --pool.in_flight_;
        if (pool.queue_.empty() && pool.in_flight_ == 0)
          pool.idle_.notify_all();
      }
    } guard{*this};
    try {
      task();
    } catch (...) {
      util::MutexLock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

}  // namespace mlp::pipeline
