#include <string>

#include "coverage/coverage.h"
#include "kernels/conv.h"
#include "nn/layers.h"

namespace nn {

namespace {

struct Probes {
  certkit::cov::Unit* u;
  int d_backend_closed, d_backend_open, d_has_bias;
  enum : int {
    kSForward = 0,
    kSClosed,
    kSOpen,
    kSNaive,
    kSWithBias,
    kSNoBias,
    kSCount
  };
};

Probes& P() {
  static Probes p = [] {
    Probes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/conv_layer.cc");
    q.u->DeclareStatements(Probes::kSCount);
    q.d_backend_closed = q.u->DeclareDecision(1);
    q.d_backend_open = q.u->DeclareDecision(1);
    q.d_has_bias = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kClosedSim:
      return "closed-sim (cuBLAS/cuDNN stand-in)";
    case Backend::kOpenSim:
      return "open-sim (CUTLASS/ISAAC stand-in)";
    case Backend::kCpuNaive:
      return "cpu-naive (CPU BLAS stand-in)";
  }
  return "?";
}

ConvLayer::ConvLayer(int in_c, int out_c, int kernel, int stride, int pad,
                     std::vector<float> weights, std::vector<float> bias,
                     Backend backend)
    : in_c_(in_c), out_c_(out_c), kernel_(kernel), stride_(stride), pad_(pad),
      weights_(std::move(weights)), bias_(std::move(bias)),
      backend_(backend) {
  CERTKIT_CHECK(in_c > 0 && out_c > 0 && kernel > 0 && stride > 0);
  CERTKIT_CHECK_MSG(
      weights_.size() == static_cast<std::size_t>(out_c) * in_c * kernel *
                             kernel,
      "conv weight count mismatch");
  CERTKIT_CHECK(bias_.empty() ||
                bias_.size() == static_cast<std::size_t>(out_c));
}

void ConvLayer::ForwardInto(const Tensor& input, Tensor* out) {
  Probes& p = P();
  p.u->Stmt(Probes::kSForward);
  CERTKIT_CHECK(out != nullptr && out != &input);
  CERTKIT_CHECK_MSG(input.c() == in_c_, "conv input channel mismatch");

  // No coverage probe on this branch: the quantized path is a replay /
  // differential-oracle mode, not part of the Figure-5 coverage subject, and
  // declaring a decision here would shift every campaign coverage ratio.
  // Quantization rides the call, not the member: nothing here mutates the
  // layer, so concurrent ForwardInto calls on a shared layer are race-free.
  if (quantize_inputs_) {
    if (QuantizedForwardInto(input, out)) return;
    // Skipped (non-finite input or zero scale): fall through to fp32.
  }

  kernels::ConvShape shape;
  shape.batch = input.n();
  shape.in_channels = in_c_;
  shape.in_h = input.h();
  shape.in_w = input.w();
  shape.out_channels = out_c_;
  shape.kernel_h = shape.kernel_w = kernel_;
  shape.stride = stride_;
  shape.pad = pad_;

  out->Reshape(input.n(), out_c_, shape.OutH(), shape.OutW());
  const float* bias = nullptr;
  if (p.u->Branch(p.d_has_bias, !bias_.empty())) {
    p.u->Stmt(Probes::kSWithBias);
    bias = bias_.data();
  } else {
    p.u->Stmt(Probes::kSNoBias);
  }

  if (p.u->Branch(p.d_backend_closed, backend_ == Backend::kClosedSim)) {
    p.u->Stmt(Probes::kSClosed);
    kernels::cudnn_sim::Conv2d(input.data(), weights_.data(), bias,
                               out->data(), shape);
  } else if (p.u->Branch(p.d_backend_open, backend_ == Backend::kOpenSim)) {
    p.u->Stmt(Probes::kSOpen);
    kernels::isaac_sim::Conv2d(input.data(), weights_.data(), bias,
                               out->data(), shape);
  } else {
    p.u->Stmt(Probes::kSNaive);
    kernels::Conv2dNaive(input.data(), weights_.data(), bias, out->data(),
                         shape);
  }
}

}  // namespace nn
