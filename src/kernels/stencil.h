// kernels: 2D/3D stencil kernels on the GPU-on-CPU layer, fully instrumented
// with coverage probes — the subject of Figure 6 ("coverage for a CUDA code
// modified to run in the CPU", via cuda4cpu in the paper).
//
// Each kernel supports three boundary modes. A typical run exercises only
// one of them, which is exactly why the paper's Figure 6 reports less than
// 100% statement and branch coverage for these kernels.
#ifndef KERNELS_STENCIL_H_
#define KERNELS_STENCIL_H_

#include "coverage/coverage.h"
#include "gpusim/gpusim.h"

namespace kernels::stencil {

enum class Boundary {
  kZero,      // out-of-range reads as 0
  kPeriodic,  // wrap around
  kReflect,   // mirror at the edge
};

struct StencilOptions {
  Boundary boundary = Boundary::kZero;
  float center_weight = 0.5f;
  float neighbor_weight = 0.125f;
};

// 5-point 2D stencil: out[y][x] = wc*in[y][x] + wn*(4 neighbors).
// Instrumented as coverage unit "stencil/stencil2d.cu".
void Stencil2D5Point(const float* in, float* out, int h, int w,
                     const StencilOptions& options = {},
                     gpusim::Device& device = gpusim::Device::Instance());

// 7-point 3D stencil. Instrumented as coverage unit "stencil/stencil3d.cu".
void Stencil3D7Point(const float* in, float* out, int d, int h, int w,
                     const StencilOptions& options = {},
                     gpusim::Device& device = gpusim::Device::Instance());

// The 2D stencil's coverage unit (registered on first use).
certkit::cov::Unit& Stencil2DCoverage();

}  // namespace kernels::stencil

#endif  // KERNELS_STENCIL_H_
