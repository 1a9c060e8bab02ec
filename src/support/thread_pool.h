// certkit support: the one fork-join pool.
//
// Every fan-out in certkit goes through this pool: the blocks of a gpusim
// kernel launch, the campaign fleet, the analysis driver's per-file and
// per-module loops, `serve` requests and the batch detector's host
// stages. Each is a loop of independent iterations, so the
// pool runs exactly one job shape: ParallelFor(n, fn) hands the indices
// 0 .. n-1 out one at a time to the workers and to the calling thread, and
// returns once every claimed iteration has finished.
//
// - A call allocates nothing: the job lives in the pool, and the loop body
//   reaches the workers as a function pointer plus a context pointer.
// - One job runs at a time. Concurrent callers queue on a submission mutex
//   (the contract the shared gpusim::Device needs when fleet workers launch
//   on it at once), so a call from inside an iteration of the same pool
//   would wait on itself: use a second pool for nested fan-out.
// - If an iteration throws, no further index is handed out, and the first
//   exception is rethrown once the claimed iterations have drained.
// - A pool with 0 workers runs every iteration inline on the caller.
//
// Determinism contract: ParallelMap writes result i to slot i, so output
// order never depends on scheduling. Any pool size produces identical
// results.
#ifndef CERTKIT_SUPPORT_THREAD_POOL_H_
#define CERTKIT_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace certkit::support {

class ThreadPool {
 public:
  // One iteration of a job: body(ctx, i).
  using LoopBody = void(const void* ctx, std::size_t i);

  // `num_threads` < 0 selects the hardware concurrency (at least 1);
  // 0 creates no worker threads, so every loop runs inline on the caller.
  explicit ThreadPool(int num_threads = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // Runs body(ctx, 0) .. body(ctx, n-1) over the workers and the calling
  // thread; blocks until they finish. The primitive form.
  void ParallelFor(std::size_t n, LoopBody* body, const void* ctx);

  // Runs fn(0) .. fn(n-1). `fn` stays on the caller's frame and is reached
  // through the primitive, so nothing wraps it on the heap.
  template <typename Fn>
  void ParallelFor(std::size_t n, const Fn& fn) {
    ParallelFor(n, &Invoke<Fn>, &fn);
  }

  // The threads a `--jobs` value asks for: `requested` <= 0 means one per
  // core. The caller drains beside the workers, so a pool for N jobs has
  // ResolveJobs(N) - 1 workers.
  static int ResolveJobs(int requested);

 private:
  template <typename Fn>
  static void Invoke(const void* fn, std::size_t i) {
    (*static_cast<const Fn*>(fn))(i);
  }

  void WorkerLoop();
  void Drain(std::unique_lock<std::mutex>& lock);

  std::mutex submit_mu_;  // held by the caller for a whole job
  std::mutex mu_;         // guards the job state below
  std::condition_variable work_cv_;  // workers: a job has indices left
  std::condition_variable done_cv_;  // caller: every claimed index finished
  LoopBody* body_ = nullptr;
  const void* ctx_ = nullptr;
  std::size_t size_ = 0;      // indices of the job; cut to next_ on a throw
  std::size_t next_ = 0;      // next index to hand out
  std::size_t finished_ = 0;  // claimed indices that have returned
  std::exception_ptr error_;  // the job's first exception
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: they run on the members above
};

// Maps i -> fn(i) for i in [0, n) in parallel; result i lands in slot i, so
// the output is independent of scheduling. T must be default-constructible
// and movable.
template <typename T, typename Fn>
std::vector<T> ParallelMap(ThreadPool& pool, std::size_t n, const Fn& fn) {
  std::vector<T> out(n);
  pool.ParallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_THREAD_POOL_H_
