// gpusim: a CUDA-shaped execution layer that runs on CPU threads.
//
// This is the reproduction's stand-in for an NVIDIA GPU + CUDA runtime — the
// same move the paper itself makes for GPU code coverage (cuda4cpu, §3.3).
// Kernels are written against grid/block/thread indices and device buffers,
// and a launch fans the grid's blocks out over the device's
// support::ThreadPool (certkit's one fork-join pool), so both the
// *structure* of GPU code (Figure 4) and its coverage/performance behaviour
// (Figures 6–8) are preserved.
//
// The device-memory API deliberately mirrors cudaMalloc/cudaMemcpy/cudaFree:
// allocations are tracked, and leaks are observable in tests. The RAII
// DeviceBuffer<T> wrapper is what *our* library code uses; the raw API exists
// because the paper's point is precisely that CUDA code is built on raw
// pointers and dynamic memory.
#ifndef GPUSIM_GPUSIM_H_
#define GPUSIM_GPUSIM_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "support/check.h"
#include "support/thread_pool.h"

namespace gpusim {

struct Dim3 {
  unsigned x = 1, y = 1, z = 1;
  std::uint64_t Count() const {
    return static_cast<std::uint64_t>(x) * y * z;
  }
};

// Per-thread kernel context: the CUDA built-ins.
struct KernelContext {
  Dim3 grid_dim;
  Dim3 block_dim;
  Dim3 block_idx;
  Dim3 thread_idx;

  // blockIdx.x * blockDim.x + threadIdx.x
  unsigned GlobalX() const { return block_idx.x * block_dim.x + thread_idx.x; }
  unsigned GlobalY() const { return block_idx.y * block_dim.y + thread_idx.y; }
};

// The simulated device: memory tracking plus kernel launch.
//
// Timing model: besides executing kernels on host threads, the device keeps
// a *simulated device clock*. Each launch contributes
//     wall_time_of_launch / min(grid_block_count, sm_count)
// — the idealized speedup of a GPU whose `sm_count` SMs run whole blocks
// concurrently. On hosts with few cores (this reproduction runs on a
// single-core container) the wall clock cannot exhibit GPU-class
// parallelism, so the Figure 7/8 benches report the simulated device time
// for device kernels and wall time for the CPU baselines. Comparisons
// *between* device libraries divide out the model, so open-vs-closed parity
// remains a pure measurement.
class Device {
 public:
  // Process-wide device (like the implicit CUDA context).
  static Device& Instance();

  // `threads` pool workers beside the launching thread; 0 = hardware
  // concurrency (support::ThreadPool::ResolveJobs).
  explicit Device(int threads = 0);
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // --- simulated device clock ---
  void set_sm_count(unsigned sms);
  unsigned sm_count() const;
  void ResetTimers();  // clears clocks AND the launch/block counters
  double simulated_seconds() const;  // device-model time of all launches
  double wall_seconds() const;       // host wall time of all launches
  // Deterministic launch accounting (unlike the clocks above, these are
  // pure functions of the submitted work): kernel launches and grid blocks
  // since construction / the last ResetTimers. The isaac_sim cost-model
  // tuner and the batch-inference benches rank work by these, not by wall
  // time.
  std::uint64_t launch_count() const;
  std::uint64_t blocks_launched() const;

  // --- raw memory API (cudaMalloc-shaped; used by kernel libraries) ---
  void* Malloc(std::size_t bytes);
  void Free(void* ptr);
  void MemcpyHostToDevice(void* dst, const void* src, std::size_t bytes);
  void MemcpyDeviceToHost(void* dst, const void* src, std::size_t bytes);
  std::size_t allocated_bytes() const;
  std::size_t allocation_count() const;

  // --- launch ---
  // Invokes `kernel(ctx)` for every thread of every block. Blocks of the
  // grid run in parallel (one pool index per block); threads within a block
  // run sequentially, which preserves intra-block ordering and keeps probes
  // race-free within a block. A launch allocates nothing, and launches from
  // several threads take turns on the pool, the way a real device
  // serializes the launch queues of independent streams.
  template <typename Kernel>
  void Launch(Dim3 grid, Dim3 block, Kernel&& kernel) {
    CERTKIT_CHECK(grid.Count() > 0 && block.Count() > 0);
    const auto t0 = std::chrono::steady_clock::now();
    pool_.ParallelFor(grid.Count(), [&](std::uint64_t b) {
      KernelContext ctx;
      ctx.grid_dim = grid;
      ctx.block_dim = block;
      ctx.block_idx.x = static_cast<unsigned>(b % grid.x);
      ctx.block_idx.y = static_cast<unsigned>((b / grid.x) % grid.y);
      ctx.block_idx.z = static_cast<unsigned>(
          b / (static_cast<std::uint64_t>(grid.x) * grid.y));
      for (unsigned tz = 0; tz < block.z; ++tz) {
        for (unsigned ty = 0; ty < block.y; ++ty) {
          for (unsigned tx = 0; tx < block.x; ++tx) {
            ctx.thread_idx = {tx, ty, tz};
            kernel(ctx);
          }
        }
      }
    });
    const auto t1 = std::chrono::steady_clock::now();
    RecordLaunch(std::chrono::duration<double>(t1 - t0).count(),
                 grid.Count());
  }

 private:
  void RecordLaunch(double wall_seconds, std::uint64_t blocks);

  certkit::support::ThreadPool pool_;
  mutable std::mutex mem_mu_;
  std::unordered_map<void*, std::size_t> allocations_;
  std::size_t allocated_bytes_ = 0;

  mutable std::mutex time_mu_;
  unsigned sm_count_ = 16;
  double simulated_seconds_ = 0.0;
  double wall_seconds_ = 0.0;
  std::uint64_t launch_count_ = 0;
  std::uint64_t blocks_launched_ = 0;
};

// RAII device buffer used by library code.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  explicit DeviceBuffer(std::size_t count, Device& device = Device::Instance())
      : device_(&device), count_(count) {
    data_ = static_cast<T*>(device_->Malloc(count * sizeof(T)));
  }
  ~DeviceBuffer() { Release(); }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& other) noexcept { *this = std::move(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      device_ = other.device_;
      data_ = other.data_;
      count_ = other.count_;
      other.data_ = nullptr;
      other.count_ = 0;
    }
    return *this;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  void CopyFromHost(const T* src, std::size_t count) {
    CERTKIT_CHECK(count <= count_);
    device_->MemcpyHostToDevice(data_, src, count * sizeof(T));
  }
  void CopyToHost(T* dst, std::size_t count) const {
    CERTKIT_CHECK(count <= count_);
    device_->MemcpyDeviceToHost(dst, data_, count * sizeof(T));
  }

 private:
  void Release() {
    if (data_ != nullptr) {
      device_->Free(data_);
      data_ = nullptr;
    }
  }
  Device* device_ = nullptr;
  T* data_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace gpusim

#endif  // GPUSIM_GPUSIM_H_
