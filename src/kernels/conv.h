// kernels: 2D convolution implementations used by Figures 7 and 8b.
//
//  * cudnn_sim — the "closed-source vendor DNN library": direct convolution
//    with a tuned loop nest, parallelized over output tiles.
//  * isaac_sim — the "open-source input-aware auto-tuner" (ISAAC, SC'17):
//    im2col + tiled GEMM where the tile configuration is selected *per input
//    shape and device* by a deterministic cost model, on every call.
//  * naive     — single-threaded reference and correctness oracle.
//
// Tensors are NCHW row-major float. Weights are [Cout, Cin, KH, KW].
#ifndef KERNELS_CONV_H_
#define KERNELS_CONV_H_

#include <cstddef>
#include <cstdint>

#include "gpusim/gpusim.h"

namespace kernels {

struct ConvShape {
  int batch = 1;
  int in_channels = 1;
  int in_h = 0, in_w = 0;
  int out_channels = 1;
  int kernel_h = 3, kernel_w = 3;
  int stride = 1;
  int pad = 1;

  int OutH() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  int OutW() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  std::size_t InputSize() const {
    return static_cast<std::size_t>(batch) * in_channels * in_h * in_w;
  }
  std::size_t OutputSize() const {
    return static_cast<std::size_t>(batch) * out_channels * OutH() * OutW();
  }
  std::size_t WeightSize() const {
    return static_cast<std::size_t>(out_channels) * in_channels * kernel_h *
           kernel_w;
  }
  bool operator==(const ConvShape&) const = default;
};

// Single-threaded reference.
void Conv2dNaive(const float* input, const float* weights, const float* bias,
                 float* output, const ConvShape& shape);

namespace cudnn_sim {
// Direct convolution, parallelized over (batch, out_channel) slices.
void Conv2d(const float* input, const float* weights, const float* bias,
            float* output, const ConvShape& shape,
            gpusim::Device& device = gpusim::Device::Instance());
}  // namespace cudnn_sim

namespace isaac_sim {
// im2col + auto-tuned GEMM. Every call runs PickConfig(shape,
// device.sm_count()): it ranks the candidate tile configurations with a
// deterministic cost model (the static mirror of gpusim::Device's
// launch/occupancy accounting) and runs the winner. The pick is a pure
// function of (shape, sm_count), so nothing is remembered between calls and
// each device runs its own pick. The batch dimension is fused into a single
// wide GEMM, so an N-batch call issues the same number of device launches as
// a single image and its outputs are bit-identical to N separate batch-1
// calls (every output element is the same K-ordered dot product regardless
// of tiling).
void Conv2d(const float* input, const float* weights, const float* bias,
            float* output, const ConvShape& shape,
            gpusim::Device& device = gpusim::Device::Instance());

// Number of candidate configurations the tuner explores.
int CandidateCount();

// The deterministic ranking signal: modeled cost (integer op units) of
// running `shape`'s GEMM with candidate `config` on a device with
// `sm_count` SMs. waves(blocks, sm) * padded-tile work + per-launch
// overhead — no wall clock, no floating point, so the ranking is identical
// on every run, machine, and thread count.
std::uint64_t ModeledConfigCost(const ConvShape& shape, int config,
                                unsigned sm_count);
// The tuner's pure selection function: argmin of ModeledConfigCost with
// lowest-index tie-break.
int PickConfig(const ConvShape& shape, unsigned sm_count);

}  // namespace isaac_sim

}  // namespace kernels

#endif  // KERNELS_CONV_H_
