#include "kernels/conv.h"

#include <vector>

#include "kernels/gemm.h"
#include "support/check.h"

namespace kernels {

namespace {

float InputAt(const float* input, const ConvShape& s, int n, int c, int y,
              int x) {
  if (y < 0 || y >= s.in_h || x < 0 || x >= s.in_w) return 0.0f;
  return input[((static_cast<std::size_t>(n) * s.in_channels + c) * s.in_h +
                y) *
                   s.in_w +
               x];
}

}  // namespace

void Conv2dNaive(const float* input, const float* weights, const float* bias,
                 float* output, const ConvShape& s) {
  CERTKIT_CHECK(s.in_h > 0 && s.in_w > 0 && s.stride > 0);
  const int oh = s.OutH(), ow = s.OutW();
  for (int n = 0; n < s.batch; ++n) {
    for (int oc = 0; oc < s.out_channels; ++oc) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = bias != nullptr ? bias[oc] : 0.0f;
          for (int ic = 0; ic < s.in_channels; ++ic) {
            for (int ky = 0; ky < s.kernel_h; ++ky) {
              for (int kx = 0; kx < s.kernel_w; ++kx) {
                const int iy = y * s.stride - s.pad + ky;
                const int ix = x * s.stride - s.pad + kx;
                acc += InputAt(input, s, n, ic, iy, ix) *
                       weights[((static_cast<std::size_t>(oc) *
                                     s.in_channels +
                                 ic) *
                                    s.kernel_h +
                                ky) *
                                   s.kernel_w +
                               kx];
              }
            }
          }
          output[((static_cast<std::size_t>(n) * s.out_channels + oc) * oh +
                  y) *
                     ow +
                 x] = acc;
        }
      }
    }
  }
}

namespace cudnn_sim {

void Conv2d(const float* input, const float* weights, const float* bias,
            float* output, const ConvShape& s, gpusim::Device& device) {
  CERTKIT_CHECK(s.in_h > 0 && s.in_w > 0 && s.stride > 0);
  const int oh = s.OutH(), ow = s.OutW();
  gpusim::Dim3 grid;
  grid.x = static_cast<unsigned>(s.out_channels);
  grid.y = static_cast<unsigned>(s.batch);
  device.Launch(grid, gpusim::Dim3{1, 1, 1},
                [=](const gpusim::KernelContext& ctx) {
    const int oc = static_cast<int>(ctx.block_idx.x);
    const int n = static_cast<int>(ctx.block_idx.y);
    const float b = bias != nullptr ? bias[oc] : 0.0f;
    float* out_plane =
        output + ((static_cast<std::size_t>(n) * s.out_channels + oc) * oh) *
                     ow;
    // Initialize with bias.
    for (int i = 0; i < oh * ow; ++i) out_plane[i] = b;
    // Tuned loop order: channel-major with kernel offsets hoisted, so the
    // innermost loop is a contiguous multiply-accumulate along x.
    for (int ic = 0; ic < s.in_channels; ++ic) {
      const float* in_plane =
          input +
          ((static_cast<std::size_t>(n) * s.in_channels + ic) * s.in_h) *
              s.in_w;
      const float* w_plane =
          weights + ((static_cast<std::size_t>(oc) * s.in_channels + ic) *
                     s.kernel_h) *
                        s.kernel_w;
      for (int ky = 0; ky < s.kernel_h; ++ky) {
        for (int kx = 0; kx < s.kernel_w; ++kx) {
          const float wv = w_plane[ky * s.kernel_w + kx];
          if (wv == 0.0f) continue;
          for (int y = 0; y < oh; ++y) {
            const int iy = y * s.stride - s.pad + ky;
            if (iy < 0 || iy >= s.in_h) continue;
            const float* in_row = in_plane + static_cast<std::size_t>(iy) *
                                                 s.in_w;
            float* out_row = out_plane + static_cast<std::size_t>(y) * ow;
            // Clamp the x range so the inner loop needs no bounds checks.
            int x0 = 0;
            while (x0 < ow && x0 * s.stride - s.pad + kx < 0) ++x0;
            int x1 = ow;
            while (x1 > x0 && (x1 - 1) * s.stride - s.pad + kx >= s.in_w) {
              --x1;
            }
            const int base = -s.pad + kx;
            for (int x = x0; x < x1; ++x) {
              out_row[x] += wv * in_row[x * s.stride + base];
            }
          }
        }
      }
    }
  });
}

}  // namespace cudnn_sim

namespace isaac_sim {

namespace {

// Candidate GEMM tile configurations the auto-tuner explores, each with the
// cutlass_sim instance that runs it.
using GemmFn = void (*)(const float*, const float*, float*, GemmShape,
                        gpusim::Device&);

struct TileConfig {
  int tm, tn;
  GemmFn gemm;
};

constexpr int kNumCandidates = 4;
constexpr TileConfig kCandidateTiles[kNumCandidates] = {
    {32, 32, &cutlass_sim::Sgemm<32, 32>},
    {64, 64, &cutlass_sim::Sgemm<64, 64>},
    {16, 128, &cutlass_sim::Sgemm<16, 128>},
    {128, 16, &cutlass_sim::Sgemm<128, 16>}};

// Per-thread im2col/GEMM scratch arena. Conv2d is called per layer per
// frame on hot paths (detector inference, campaign candidates); reusing the
// buffers across calls on the same thread removes a fresh heap allocation
// per Conv2d call. Thread-local, so concurrent candidates on a worker
// fleet never share scratch.
struct Arena {
  std::vector<float> cols;   // im2col matrix [K, batch*OH*OW]
  std::vector<float> fused;  // batched GEMM output [M, batch*OH*OW]
};

Arena& LocalArena() {
  thread_local Arena arena;
  return arena;
}

// im2col over the whole batch: expands input patches into one
// [Cin*KH*KW, N*OH*OW] matrix (image n occupies columns [n*OH*OW,
// (n+1)*OH*OW)). One device launch with a (patch_rows, batch) grid, so its
// cost is part of the device-side time — as it is for the real ISAAC
// pipeline — and an N-batch fills the SMs N times better than per-image
// launches.
void Im2ColBatched(const float* input, const ConvShape& s, float* cols,
                   gpusim::Device& device) {
  const int oh = s.OutH(), ow = s.OutW();
  const int patch_rows = s.in_channels * s.kernel_h * s.kernel_w;
  const std::size_t row_stride =
      static_cast<std::size_t>(s.batch) * oh * ow;
  gpusim::Dim3 grid{static_cast<unsigned>(patch_rows),
                    static_cast<unsigned>(s.batch), 1};
  device.Launch(grid, gpusim::Dim3{1, 1, 1},
                [=](const gpusim::KernelContext& ctx) {
    const int row = static_cast<int>(ctx.block_idx.x);
    const int n = static_cast<int>(ctx.block_idx.y);
    const int kx = row % s.kernel_w;
    const int ky = (row / s.kernel_w) % s.kernel_h;
    const int ic = row / (s.kernel_w * s.kernel_h);
    float* out_row = cols + static_cast<std::size_t>(row) * row_stride +
                     static_cast<std::size_t>(n) * oh * ow;
    std::size_t idx = 0;
    for (int y = 0; y < oh; ++y) {
      const int iy = y * s.stride - s.pad + ky;
      for (int x = 0; x < ow; ++x, ++idx) {
        const int ix = x * s.stride - s.pad + kx;
        out_row[idx] = InputAt(input, s, n, ic, iy, ix);
      }
    }
  });
}

// One full convolution with candidate `config`: batched im2col + a single
// fused GEMM over all images. Every output element is the K-ordered dot
// product w[oc,:] . cols[:,j] for any tile size and any batch, so the
// result is bit-identical to per-image batch-1 calls.
void RunWithConfig(const float* input, const float* weights,
                   const float* bias, float* output, const ConvShape& s,
                   int config, gpusim::Device& device) {
  Arena& arena = LocalArena();
  const int oh = s.OutH(), ow = s.OutW();
  const int plane = oh * ow;
  const int patch = s.in_channels * s.kernel_h * s.kernel_w;
  const std::size_t cols_n = static_cast<std::size_t>(s.batch) * plane;
  arena.cols.resize(static_cast<std::size_t>(patch) * cols_n);
  Im2ColBatched(input, s, arena.cols.data(), device);

  GemmShape gs{s.out_channels, s.batch * plane, patch};
  float* gemm_out = output;
  if (s.batch > 1) {
    // The fused GEMM emits [oc, n*plane]; NCHW wants [n, oc, plane].
    arena.fused.resize(static_cast<std::size_t>(s.out_channels) * cols_n);
    gemm_out = arena.fused.data();
  }
  kCandidateTiles[config].gemm(weights, arena.cols.data(), gemm_out, gs,
                               device);

  if (s.batch > 1) {
    for (int n = 0; n < s.batch; ++n) {
      for (int oc = 0; oc < s.out_channels; ++oc) {
        const float* src = arena.fused.data() +
                           static_cast<std::size_t>(oc) * cols_n +
                           static_cast<std::size_t>(n) * plane;
        float* dst = output +
                     (static_cast<std::size_t>(n) * s.out_channels + oc) *
                         plane;
        const float b = bias != nullptr ? bias[oc] : 0.0f;
        for (int i = 0; i < plane; ++i) dst[i] = src[i] + b;
      }
    }
  } else if (bias != nullptr) {
    for (int oc = 0; oc < s.out_channels; ++oc) {
      float* out_plane = output + static_cast<std::size_t>(oc) * plane;
      for (int i = 0; i < plane; ++i) out_plane[i] += bias[oc];
    }
  }
}

std::uint64_t CeilDiv(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

// Fixed per-launch cost in op units (fork-join on the block pool). Shared
// by all candidates, but kept in the model so costs stay comparable to the
// device's own launch accounting.
constexpr std::uint64_t kLaunchOverheadOps = 4096;

}  // namespace

int CandidateCount() { return kNumCandidates; }

std::uint64_t ModeledConfigCost(const ConvShape& shape, int config,
                                unsigned sm_count) {
  CERTKIT_CHECK(config >= 0 && config < kNumCandidates);
  CERTKIT_CHECK(sm_count >= 1);
  const TileConfig& tile = kCandidateTiles[config];
  const auto m = static_cast<std::uint64_t>(shape.out_channels);
  const auto n = static_cast<std::uint64_t>(shape.batch) * shape.OutH() *
                 shape.OutW();
  const auto k = static_cast<std::uint64_t>(shape.in_channels) *
                 shape.kernel_h * shape.kernel_w;
  const std::uint64_t blocks =
      CeilDiv(m, static_cast<std::uint64_t>(tile.tm)) *
      CeilDiv(n, static_cast<std::uint64_t>(tile.tn));
  // Same occupancy law as Device::RecordLaunch: whole blocks schedule onto
  // SMs in waves, and a partially-filled tile still pays for its full
  // footprint — that is what penalizes oversized tiles on small GEMMs and
  // undersized tiles (too many waves) on large ones.
  const std::uint64_t waves =
      CeilDiv(blocks, static_cast<std::uint64_t>(sm_count));
  return waves * static_cast<std::uint64_t>(tile.tm) * tile.tn * k +
         kLaunchOverheadOps;
}

int PickConfig(const ConvShape& shape, unsigned sm_count) {
  int best = 0;
  std::uint64_t best_cost = ModeledConfigCost(shape, 0, sm_count);
  for (int cand = 1; cand < kNumCandidates; ++cand) {
    const std::uint64_t cost = ModeledConfigCost(shape, cand, sm_count);
    if (cost < best_cost) {  // strict: ties keep the lowest index
      best_cost = cost;
      best = cand;
    }
  }
  return best;
}

void Conv2d(const float* input, const float* weights, const float* bias,
            float* output, const ConvShape& s, gpusim::Device& device) {
  CERTKIT_CHECK(s.in_h > 0 && s.in_w > 0 && s.stride > 0);
  RunWithConfig(input, weights, bias, output, s,
                PickConfig(s, device.sm_count()), device);
}

}  // namespace isaac_sim

}  // namespace kernels
