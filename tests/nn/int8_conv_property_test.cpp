// Property sweep of the quantized ConvLayer against a scalar int8-grid
// reference: the same symmetric snap (round half away from zero, clamp to
// ±127), a plain int32 dot product over the zero-padded input, and the same
// `combined * float(acc) + bias` dequantize. Integer accumulation is exact,
// so the layer must match the reference bit for bit on every shape,
// whatever its operand layout, K order, vector width or padded columns.
//
// The detector only runs square stride-1 3x3 and 1x1 convs; this sweep
// covers what they miss: strides 1-3, pads 0-2, kernels 1/2/3/5, odd and
// even channel counts, batches of up to three, and odd, non-square, 1xN
// and Nx1 inputs. Every layer runs on the same thread, so the int8 path's
// scratch is reused warm across shapes that grow and shrink.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "nn/layers.h"
#include "support/rng.h"

namespace {

using certkit::support::Xoshiro256;

struct ConvShape {
  int batch, in_c, out_c, h, w, kernel, stride, pad;
};

float Amax(const std::vector<float>& v) {
  float amax = 0.0f;
  for (const float x : v) amax = std::max(amax, std::fabs(x));
  return amax;
}

std::int32_t Snap(float v, float inv_scale) {
  const float q = v * inv_scale;
  const int i = static_cast<int>(q >= 0.0f ? q + 0.5f : q - 0.5f);
  return std::clamp(i, -127, 127);
}

// The int8-grid conv, one output element at a time.
std::vector<float> ReferenceConv(const ConvShape& s,
                                 const std::vector<float>& input,
                                 const std::vector<float>& weights,
                                 const std::vector<float>& bias) {
  const float in_amax = Amax(input);
  const float w_amax = Amax(weights);
  const float in_inv = 127.0f / in_amax;
  const float w_inv = 127.0f / w_amax;
  const float combined = (in_amax / 127.0f) * (w_amax / 127.0f);
  const int out_h = (s.h + 2 * s.pad - s.kernel) / s.stride + 1;
  const int out_w = (s.w + 2 * s.pad - s.kernel) / s.stride + 1;
  const auto at = [&](int b, int c, int y, int x) {
    if (y < 0 || y >= s.h || x < 0 || x >= s.w) return std::int32_t{0};
    return Snap(input[((static_cast<std::size_t>(b) * s.in_c + c) * s.h + y) *
                          s.w + x],
                in_inv);
  };
  std::vector<float> out;
  for (int b = 0; b < s.batch; ++b) {
    for (int oc = 0; oc < s.out_c; ++oc) {
      for (int oh = 0; oh < out_h; ++oh) {
        for (int ow = 0; ow < out_w; ++ow) {
          std::int32_t acc = 0;
          for (int ci = 0; ci < s.in_c; ++ci) {
            for (int kh = 0; kh < s.kernel; ++kh) {
              for (int kw = 0; kw < s.kernel; ++kw) {
                const std::size_t wi =
                    ((static_cast<std::size_t>(oc) * s.in_c + ci) * s.kernel +
                     kh) * s.kernel + kw;
                acc += Snap(weights[wi], w_inv) *
                       at(b, ci, oh * s.stride + kh - s.pad,
                          ow * s.stride + kw - s.pad);
              }
            }
          }
          const float add = bias.empty() ? 0.0f : bias[oc];
          out.push_back(combined * static_cast<float>(acc) + add);
        }
      }
    }
  }
  return out;
}

void CheckShape(const ConvShape& s, std::uint64_t seed, nn::Tensor* out) {
  Xoshiro256 rng(seed);
  std::vector<float> weights(static_cast<std::size_t>(s.out_c) * s.in_c *
                             s.kernel * s.kernel);
  for (float& w : weights) w = static_cast<float>(rng.UniformDouble(-1, 1));
  std::vector<float> bias;
  if (seed % 2 == 0) {  // half the layers have no bias
    bias.resize(s.out_c);
    for (float& b : bias) b = static_cast<float>(rng.UniformDouble(-1, 1));
  }
  nn::Tensor input(s.batch, s.in_c, s.h, s.w);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = static_cast<float>(rng.UniformDouble(-4, 4));
  }
  nn::ConvLayer conv(s.in_c, s.out_c, s.kernel, s.stride, s.pad, weights,
                     bias, nn::Backend::kCpuNaive);
  conv.SetInputQuantization(true);
  conv.ForwardInto(input, out);

  const std::vector<float> want = ReferenceConv(
      s, std::vector<float>(input.data(), input.data() + input.size()),
      weights, bias);
  ASSERT_EQ(out->size(), want.size());
  ASSERT_EQ(std::memcmp(out->data(), want.data(), want.size() * sizeof(float)),
            0)
      << "batch " << s.batch << " in_c " << s.in_c << " out_c " << s.out_c
      << " input " << s.h << "x" << s.w << " kernel " << s.kernel
      << " stride " << s.stride << " pad " << s.pad;
}

TEST(Int8ConvProperty, MatchesScalarGridReferenceBitForBit) {
  // Odd, non-square, 1xN, Nx1, and one input wide enough for several full
  // column panels of the widest microkernel.
  constexpr int kInputs[][2] = {{1, 1},  {1, 13}, {11, 1}, {5, 7},
                                {8, 3},  {6, 6},  {17, 23}};
  constexpr int kKernels[] = {1, 2, 3, 5};
  constexpr int kChannels[] = {1, 2, 3, 4, 5, 8};
  nn::Tensor out;  // reused, like the tick's layer buffers
  std::uint64_t seed = 1;
  int checked = 0;
  for (const auto& [h, w] : kInputs) {
    for (const int kernel : kKernels) {
      for (int pad = 0; pad <= 2; ++pad) {
        if (h + 2 * pad < kernel || w + 2 * pad < kernel) continue;
        for (int stride = 1; stride <= 3; ++stride) {
          for (const int in_c : kChannels) {
            for (int batch = 1; batch <= 3; ++batch, ++seed) {
              // 1..10 output channels: every row fringe of an 8-row tile.
              const int out_c = 1 + static_cast<int>(seed % 10);
              CheckShape({batch, in_c, out_c, h, w, kernel, stride, pad},
                         seed, &out);
              if (HasFatalFailure()) return;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 2000);
}

}  // namespace
