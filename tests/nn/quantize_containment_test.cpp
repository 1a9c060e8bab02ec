// Non-finite containment of the int8 conv path plus the int8-vs-fp32
// accuracy gate.
//
// Bug class under test: a NaN or ±inf activation makes amax — and therefore
// the int8 scale — undefined; a quantizer that computes scale = inf / 127
// rewrites the WHOLE tensor to NaN, laundering a single bad sensor value
// into total detector blindness before the safety layer's range monitor
// could see it. The contract: any non-finite input (and the degenerate
// all-zero tensor) disables quantization for that call — ConvLayer falls
// through to the bit-exact fp32 path — so the original values reach the
// monitors intact.
// The replay differential oracle pins the same behavior end-to-end: a
// quantized replay arm must diverge from fp32 only through the int8 grid,
// never through containment-path differences.
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "nn/layers.h"
#include "support/rng.h"

namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

nn::Tensor MakeInput(int c, int h, int w, std::uint64_t seed) {
  nn::Tensor t(1, c, h, w);
  certkit::support::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.UniformDouble(-8.0, 8.0));
  }
  return t;
}

// A quantized ConvLayer fed a non-finite input must produce the EXACT fp32
// result (containment = fall through, not "quantize around the hole"), and
// the non-finite value must propagate to the output where the range monitor
// can reject it.
TEST(QuantizeContainment, ConvFallsBackToFp32BitExactOnNonFiniteInput) {
  const int in_c = 3, out_c = 6, k = 3;
  std::vector<float> weights(static_cast<std::size_t>(out_c) * in_c * k * k);
  certkit::support::Xoshiro256 rng(0xC0FFEEu);
  for (float& w : weights) w = static_cast<float>(rng.UniformDouble(-1, 1));

  nn::ConvLayer fp32(in_c, out_c, k, 1, 1, weights, {},
                     nn::Backend::kCpuNaive);
  nn::ConvLayer quant(in_c, out_c, k, 1, 1, weights, {},
                      nn::Backend::kCpuNaive);
  quant.SetInputQuantization(true);

  nn::Tensor input = MakeInput(in_c, 12, 12, 42u);
  input.At(0, 1, 6, 6) = kNan;

  nn::Tensor want, got;
  fp32.ForwardInto(input, &want);
  quant.ForwardInto(input, &got);

  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)),
            0)
      << "quantized layer did not fall back to the bit-exact fp32 path";

  bool saw_non_finite = false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!std::isfinite(got.data()[i])) saw_non_finite = true;
  }
  EXPECT_TRUE(saw_non_finite)
      << "the poison value was laundered instead of propagated";
}

// Accuracy gate for the true int8 path: on finite inputs the quantized
// output must track fp32 within the theoretical grid error. Per-element
// error is bounded by the dot-product error sum: K * (in_step * |w|max +
// w_step * |x|max + in_step * w_step), with steps = amax/127. The gate
// asserts a comfortable multiple — failures mean scale bookkeeping broke,
// not that rounding drifted.
TEST(QuantizeContainment, Int8PathTracksFp32WithinGridErrorBound) {
  const int in_c = 3, out_c = 8, k = 3, hw = 16;
  std::vector<float> weights(static_cast<std::size_t>(out_c) * in_c * k * k);
  std::vector<float> bias(out_c);
  certkit::support::Xoshiro256 rng(0xBEEFu);
  for (float& w : weights) w = static_cast<float>(rng.UniformDouble(-1, 1));
  for (float& b : bias) b = static_cast<float>(rng.UniformDouble(-1, 1));

  nn::ConvLayer fp32(in_c, out_c, k, 1, 1, weights, bias,
                     nn::Backend::kCpuNaive);
  nn::ConvLayer quant(in_c, out_c, k, 1, 1, weights, bias,
                      nn::Backend::kCpuNaive);
  quant.SetInputQuantization(true);

  const nn::Tensor input = MakeInput(in_c, hw, hw, 1234u);
  float in_amax = 0.0f, w_amax = 0.0f;
  for (std::size_t i = 0; i < input.size(); ++i) {
    in_amax = std::max(in_amax, std::fabs(input.data()[i]));
  }
  for (const float w : weights) w_amax = std::max(w_amax, std::fabs(w));
  const float in_step = in_amax / 127.0f;
  const float w_step = w_amax / 127.0f;
  const float patch = static_cast<float>(in_c) * k * k;
  // Half-step rounding on each operand, summed over the K-dot-product.
  const float bound =
      patch * 0.5f *
          (in_step * w_amax + w_step * in_amax + in_step * w_step) +
      1e-4f;

  nn::Tensor want, got;
  fp32.ForwardInto(input, &want);
  quant.ForwardInto(input, &got);
  ASSERT_EQ(got.size(), want.size());

  float max_abs_err = 0.0f;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_abs_err = std::max(max_abs_err,
                           std::fabs(got.data()[i] - want.data()[i]));
  }
  EXPECT_LE(max_abs_err, bound)
      << "int8 path drifted past the quantization-grid error bound";
  // And it must actually quantize: bit-identical output would mean the int8
  // path silently fell back to fp32 (the differential oracle relies on the
  // arms diverging).
  EXPECT_NE(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)),
            0)
      << "quantized arm is bit-identical to fp32 — int8 path did not run";
}

// An amax below ~3.7e-37 makes the inverse scale 127 / amax overflow to
// inf, and snapping then casts inf or NaN to int: undefined behaviour
// (UBSan's float-cast-overflow), and on x86 every element clamps to -127.
// Such a tensor has no usable grid. An input that small falls back to fp32,
// so a 1x1 identity conv returns it unchanged; weights that small take the
// all-zero snapshot, so the output is exactly the bias.
TEST(QuantizeContainment, TinyAmaxHasNoUsableGrid) {
  nn::ConvLayer identity(1, 1, 1, 1, 0, {1.0f}, {}, nn::Backend::kCpuNaive);
  identity.SetInputQuantization(true);
  const float tiny[] = {1e-37f, 0.0f, -1e-37f, 5e-38f};
  nn::Tensor input(1, 1, 1, 4);
  std::memcpy(input.data(), tiny, sizeof(tiny));
  nn::Tensor got;
  identity.ForwardInto(input, &got);
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got.data()[i], tiny[i]) << i;

  const int in_c = 2, out_c = 3, k = 3;
  std::vector<float> weights(static_cast<std::size_t>(out_c) * in_c * k * k);
  certkit::support::Xoshiro256 rng(0x7155u);
  for (float& w : weights) {
    w = static_cast<float>(rng.UniformDouble(-1e-38, 1e-38));
  }
  const std::vector<float> bias = {0.25f, 0.0f, -0.5f};
  nn::ConvLayer tiny_weights(in_c, out_c, k, 1, 1, weights, bias,
                             nn::Backend::kCpuNaive);
  tiny_weights.SetInputQuantization(true);
  tiny_weights.ForwardInto(MakeInput(in_c, 6, 6, 5u), &got);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(out_c) * 36);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], bias[i / 36]) << i;
  }
}

}  // namespace
