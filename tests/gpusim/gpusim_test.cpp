// Tests for the GPU-on-CPU execution layer.
#include "gpusim/gpusim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace gpusim {
namespace {

TEST(DeviceTest, MallocFreeTracking) {
  Device device(2);
  EXPECT_EQ(device.allocated_bytes(), 0u);
  void* a = device.Malloc(128);
  void* b = device.Malloc(256);
  EXPECT_EQ(device.allocated_bytes(), 384u);
  EXPECT_EQ(device.allocation_count(), 2u);
  device.Free(a);
  EXPECT_EQ(device.allocated_bytes(), 256u);
  device.Free(b);
  EXPECT_EQ(device.allocation_count(), 0u);
}

TEST(DeviceTest, FreeUnknownPointerIsContractViolation) {
  Device device(2);
  int x = 0;
  EXPECT_THROW(device.Free(&x), certkit::support::ContractViolation);
}

TEST(DeviceTest, FreeNullIsNoop) {
  Device device(2);
  device.Free(nullptr);  // must not throw
}

TEST(DeviceTest, MemcpyRoundTrip) {
  Device device(2);
  std::vector<float> host_in(64);
  std::iota(host_in.begin(), host_in.end(), 0.0f);
  float* dev = static_cast<float*>(device.Malloc(64 * sizeof(float)));
  device.MemcpyHostToDevice(dev, host_in.data(), 64 * sizeof(float));
  std::vector<float> host_out(64, -1.0f);
  device.MemcpyDeviceToHost(host_out.data(), dev, 64 * sizeof(float));
  EXPECT_EQ(host_in, host_out);
  device.Free(dev);
}

TEST(DeviceTest, LaunchCoversFullGrid) {
  Device device(4);
  constexpr int kW = 70, kH = 33;  // not multiples of the block size
  std::vector<std::atomic<int>> hits(kW * kH);
  Dim3 grid{(kW + 15) / 16, (kH + 15) / 16, 1};
  Dim3 block{16, 16, 1};
  device.Launch(grid, block, [&](const KernelContext& ctx) {
    const unsigned x = ctx.GlobalX();
    const unsigned y = ctx.GlobalY();
    if (x < kW && y < kH) {
      ++hits[y * kW + x];
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DeviceTest, KernelContextIndicesInRange) {
  Device device(4);
  Dim3 grid{3, 2, 2};
  Dim3 block{4, 2, 1};
  std::atomic<int> bad{0};
  std::atomic<std::uint64_t> invocations{0};
  device.Launch(grid, block, [&](const KernelContext& ctx) {
    ++invocations;
    if (ctx.block_idx.x >= grid.x || ctx.block_idx.y >= grid.y ||
        ctx.block_idx.z >= grid.z || ctx.thread_idx.x >= block.x ||
        ctx.thread_idx.y >= block.y || ctx.thread_idx.z >= block.z) {
      ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(invocations.load(), grid.Count() * block.Count());
}

// Four threads launch on one device, as fleet workers launch on the shared
// Device::Instance(): launches take turns on the device's pool, every block
// of every grid runs once, and the launch accounting adds up.
TEST(DeviceTest, ConcurrentLaunchesCoverEveryGrid) {
  constexpr int kThreads = 4;
  constexpr int kLaunches = 20;
  Device device(3);
  std::vector<std::vector<std::atomic<int>>> hits(kThreads * kLaunches);
  std::vector<Dim3> grids;
  std::uint64_t total_blocks = 0;
  for (int g = 0; g < kThreads * kLaunches; ++g) {
    const Dim3 grid{1u + g % 7u, 1u + g % 3u, 1u + g % 2u};
    grids.push_back(grid);
    hits[g] = std::vector<std::atomic<int>>(grid.Count());
    total_blocks += grid.Count();
  }
  std::vector<std::thread> launchers;
  for (int t = 0; t < kThreads; ++t) {
    launchers.emplace_back([&, t] {
      for (int l = 0; l < kLaunches; ++l) {
        const int g = t * kLaunches + l;
        const Dim3 grid = grids[g];
        device.Launch(grid, Dim3{2, 1, 1}, [&](const KernelContext& ctx) {
          if (ctx.thread_idx.x != 0) return;
          const std::uint64_t b =
              ctx.block_idx.x +
              grid.x * (ctx.block_idx.y +
                        static_cast<std::uint64_t>(grid.y) * ctx.block_idx.z);
          ++hits[g][b];
        });
      }
    });
  }
  for (std::thread& t : launchers) t.join();
  for (std::size_t g = 0; g < hits.size(); ++g) {
    for (std::size_t b = 0; b < hits[g].size(); ++b) {
      ASSERT_EQ(hits[g][b].load(), 1) << "grid " << g << " block " << b;
    }
  }
  EXPECT_EQ(device.launch_count(),
            static_cast<std::uint64_t>(kThreads * kLaunches));
  EXPECT_EQ(device.blocks_launched(), total_blocks);
}

TEST(DeviceBufferTest, RaiiReleases) {
  Device device(2);
  {
    DeviceBuffer<float> buf(100, device);
    EXPECT_EQ(device.allocated_bytes(), 400u);
    std::vector<float> host(100, 3.5f);
    buf.CopyFromHost(host.data(), 100);
    std::vector<float> back(100, 0.0f);
    buf.CopyToHost(back.data(), 100);
    EXPECT_EQ(back[0], 3.5f);
    EXPECT_EQ(back[99], 3.5f);
  }
  EXPECT_EQ(device.allocated_bytes(), 0u);
}

TEST(DeviceBufferTest, MoveTransfersOwnership) {
  Device device(2);
  DeviceBuffer<int> a(10, device);
  DeviceBuffer<int> b = std::move(a);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(device.allocation_count(), 1u);
}

}  // namespace
}  // namespace gpusim
