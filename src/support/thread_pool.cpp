#include "support/thread_pool.h"

namespace certkit::support {

int ThreadPool::ResolveJobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = num_threads < 0 ? ResolveJobs(num_threads) : num_threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ParallelFor(std::size_t n, LoopBody* body, const void* ctx) {
  if (n == 0) return;
  std::lock_guard<std::mutex> submit(submit_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  body_ = body;
  ctx_ = ctx;
  size_ = n;
  next_ = 0;
  finished_ = 0;
  work_cv_.notify_all();
  Drain(lock);  // the calling thread drains indices too
  done_cv_.wait(lock, [this] { return finished_ == size_; });
  const std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

// Claims and runs indices of the current job until none is left. `lock`
// holds mu_ on entry and on return. The job cannot end while this thread
// holds a claimed index, so the next job cannot start under it either.
void ThreadPool::Drain(std::unique_lock<std::mutex>& lock) {
  while (next_ < size_) {
    LoopBody* const body = body_;
    const void* const ctx = ctx_;
    const std::size_t i = next_++;
    lock.unlock();
    std::exception_ptr error;
    try {
      body(ctx, i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !error_) {
      error_ = error;
      size_ = next_;  // hand out no further index
    }
    if (++finished_ == size_) done_cv_.notify_one();
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || next_ < size_; });
    if (stop_) return;
    Drain(lock);
  }
}

}  // namespace certkit::support
