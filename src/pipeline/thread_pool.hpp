// A small fixed-size FIFO thread pool for the inference pipeline.
//
// FIFO submission order is part of the contract: the pipeline enqueues all
// extraction producers before the per-IXP consumers, so producers (which
// never block) always run ahead of consumers that wait on their output,
// and the pipeline cannot deadlock even with a single worker thread.
//
// Workers start on CPUs other than their creator's (leave_cpu), so they
// run beside the thread that submits to them from the first task on.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace mlp::pipeline {

/// Move the calling thread off `cpu` when another CPU is allowed, then
/// allow every CPU again. Pool workers and the QueryServer's serve
/// thread call it first, with the CPU their creator ran on. A new thread
/// starts on its creator's CPU, and on a host whose cpusets turn
/// scheduler load balancing off it stays there until contention happens
/// to spread the process: a pool's workers would take turns on one CPU
/// with the thread that feeds them, and a server would share a CPU with a
/// local client started by the same thread, for as long as the host's
/// state says. Best effort: a negative `cpu` or a failed call leaves the
/// thread where it is.
void leave_cpu(int cpu);

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Tasks start in submission order. An exception
  /// escaping a task never terminates the worker: the first one is
  /// captured and rethrown from wait_idle().
  void submit(std::function<void()> task) MLP_EXCLUDES(mutex_);

  /// Block until every submitted task has finished. If any task threw,
  /// rethrows the first captured exception (later ones are dropped); the
  /// pool stays usable afterwards.
  void wait_idle() MLP_EXCLUDES(mutex_);

  std::size_t thread_count() const { return workers_.size(); }

  /// The pool size to use for `requested` (0 means hardware concurrency).
  static std::size_t resolve(std::size_t requested);

 private:
  void worker_loop() MLP_EXCLUDES(mutex_);

  util::Mutex mutex_;
  util::CondVar work_available_;
  util::CondVar idle_;
  std::deque<std::function<void()>> queue_ MLP_GUARDED_BY(mutex_);
  std::size_t in_flight_ MLP_GUARDED_BY(mutex_) = 0;
  bool stopping_ MLP_GUARDED_BY(mutex_) = false;
  /// First exception a task leaked.
  std::exception_ptr first_error_ MLP_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
};

}  // namespace mlp::pipeline
