// nn: layers of the YOLO-style detector.
//
// Every layer's implementation file registers a coverage unit named after
// itself (e.g. "yolo/conv_layer.cc"); the Figure 5 benchmark runs the
// detector on real-scenario inputs and reports per-file statement, branch,
// and MC/DC coverage from these probes — the reproduction of the paper's
// RapiCover measurement of Apollo's object-detection code.
#ifndef NN_LAYERS_H_
#define NN_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace nn {

// Which kernel library backs the convolutions (Figure 7's comparison).
enum class Backend {
  kClosedSim,  // cudnn_sim / cublas_sim stand-ins for the vendor libraries
  kOpenSim,    // isaac_sim / cutlass_sim stand-ins for the open libraries
  kCpuNaive,   // single-threaded CPU reference (ATLAS/OpenBLAS stand-in)
};
inline constexpr int kNumBackends = 3;
const char* BackendName(Backend backend);

class Layer {
 public:
  virtual ~Layer() = default;
  // Writes the layer output into *out, reusing out's capacity — the
  // steady-state tick path allocates nothing once every buffer has seen its
  // peak size. `out` must not alias `input`.
  virtual void ForwardInto(const Tensor& input, Tensor* out) = 0;
  // Convenience wrapper for tests and one-shot callers (allocates).
  Tensor Forward(const Tensor& input) {
    Tensor out;
    ForwardInto(input, &out);
    return out;
  }
  virtual std::string Name() const = 0;
};

enum class Activation { kLinear, kRelu, kLeakyRelu };

class ConvLayer : public Layer {
 public:
  // Weights are [out_c, in_c, k, k]; bias is [out_c] (may be empty).
  ConvLayer(int in_c, int out_c, int kernel, int stride, int pad,
            std::vector<float> weights, std::vector<float> bias,
            Backend backend);
  void ForwardInto(const Tensor& input, Tensor* out) override;
  std::string Name() const override { return "conv"; }
  int out_channels() const { return out_c_; }
  std::vector<float>& mutable_weights() { return weights_; }
  std::vector<float>& mutable_bias() { return bias_; }

  // Int8 inference mode: when enabled, ForwardInto runs a true int8 path —
  // per-layer symmetric scales (weight scale = max|w| / 127 for this layer,
  // activation scale = max|x| / 127 per input tensor), the input quantized
  // once into channel-paired, zero-bordered planes that an
  // int32-accumulating micro-GEMM reads in place (stride 1) or gathers
  // (other strides), and a combined-scale dequantize. Integer
  // accumulation is exact, so the path is deterministic and
  // backend-independent; it serves as the quantized arm of the replay
  // differential oracle, with the fp32 path kept as the bit-exact reference.
  // Quantization is threaded through as an argument, never by mutating
  // state, so a layer shared across ThreadPool threads is race-free.
  //
  // Non-finite containment: if the input holds any non-finite value, is
  // all-zero, or has an amax so small (below ~3.7e-37) that 127 / amax
  // overflows, quantization is SKIPPED for that call and the fp32 path runs
  // instead — NaN/inf then propagate to the safety layer's range monitor,
  // which owns non-finite rejection, rather than being laundered through an
  // undefined int8 grid.
  // Enabling snapshots the layer's weights onto the int8 grid (as int16
  // pairs of adjacent input channels, in (channel pair, kh, kw) order, for
  // the PMADDWD pair microkernel) along with the per-layer scale, so
  // steady-state forwards never re-quantize the constant operand.
  // Call it AFTER the weights are final; re-call it to refresh the snapshot
  // if mutable_weights() changed. Defined in quantized.cpp.
  void SetInputQuantization(bool enabled);
  bool input_quantization() const { return quantize_inputs_; }

 private:
  // The int8 path. Returns false (leaving *out untouched) when quantization
  // must be skipped — non-finite input or an all-zero scale — in which case
  // the caller runs the fp32 path.
  bool QuantizedForwardInto(const Tensor& input, Tensor* out) const;

  int in_c_, out_c_, kernel_, stride_, pad_;
  std::vector<float> weights_;
  std::vector<float> bias_;
  Backend backend_;
  bool quantize_inputs_ = false;
  // Int8-mode weight snapshot (set by SetInputQuantization, const during
  // forwards — reentrancy depends on that): weights snapped to the int8
  // grid, stored as [out_c, P] pairs of int16 (kernels::micro::PackPair),
  // pair (q, kh, kw) = (w[2q][kh][kw], w[2q+1][kh][kw]) with 0 past in_c,
  // P = (in_c + 1) / 2 * k * k; w_scale_ == 0 marks "no usable grid"
  // (all-zero, non-finite, or too small for a finite inverse scale), which
  // quantizes the weight operand to zero exactly like the pre-snapshot path
  // did.
  std::vector<std::int32_t> q_weight_pairs_;
  float w_scale_ = 0.0f;
};

class BatchNormLayer : public Layer {
 public:
  // Folded form: y = scale[c] * x + shift[c].
  BatchNormLayer(std::vector<float> scale, std::vector<float> shift);
  void ForwardInto(const Tensor& input, Tensor* out) override;
  std::string Name() const override { return "batchnorm"; }
  std::vector<float>& mutable_scale() { return scale_; }
  std::vector<float>& mutable_shift() { return shift_; }

 private:
  std::vector<float> scale_;
  std::vector<float> shift_;
};

class ActivationLayer : public Layer {
 public:
  explicit ActivationLayer(Activation kind, float leaky_slope = 0.1f);
  void ForwardInto(const Tensor& input, Tensor* out) override;
  std::string Name() const override { return "activation"; }

 private:
  Activation kind_;
  float leaky_slope_;
};

class MaxPoolLayer : public Layer {
 public:
  MaxPoolLayer(int size, int stride);
  void ForwardInto(const Tensor& input, Tensor* out) override;
  std::string Name() const override { return "maxpool"; }

 private:
  int size_, stride_;
};

class UpsampleLayer : public Layer {
 public:
  explicit UpsampleLayer(int factor);
  void ForwardInto(const Tensor& input, Tensor* out) override;
  std::string Name() const override { return "upsample"; }

 private:
  int factor_;
};

// Normalizes a raw frame into network input; handles letterboxing when the
// aspect ratio differs from the target (a path typical square scenarios
// never exercise — one of the Figure 5 coverage gaps).
Tensor Preprocess(const Tensor& frame, int target_h, int target_w);

// Capacity-reusing variant of Preprocess for the allocation-free tick path.
// `out` must not alias `frame`.
void PreprocessInto(const Tensor& frame, int target_h, int target_w,
                    Tensor* out);

}  // namespace nn

#endif  // NN_LAYERS_H_
