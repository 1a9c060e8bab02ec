// The int8 inference path of ConvLayer: per-layer symmetric scales, a
// pair-packed int8-grid patch matrix, the int32-accumulating pair
// microkernel, combined-scale dequantize.
//
// Properties the rest of the tree relies on:
//  * Deterministic and backend-independent — integer accumulation is exact,
//    so there is no FP-reassociation surface and every SIMD width gives the
//    same bits; the replay differential oracle diffs this path against the
//    fp32 reference (which stays bit-exact).
//  * Reentrant — all scratch is thread_local and the layer itself is never
//    mutated during a forward (the weight snapshot is written only by
//    SetInputQuantization), so one layer shared across ThreadPool threads is
//    race-free (the regression for the old flip-the-member-and-recurse bug).
//  * Allocation-free in steady state — every scratch vector only ever grows
//    to the layer's peak working-set size and is then reused.
//
// Layout: the input is quantized once into zero-bordered int16 planes, and
// the patch matrix is pixel-major with K paired — B[p][n] holds patch rows
// 2p and 2p+1 at output pixel n in one int32 — so the microkernel runs
// PMADDWD across output pixels. See kernels::micro::GemmPairS16S32. The
// passes around the GEMM (amax, quantize, pack, dequantize) run at the
// widest level of the ISA ladder, as by-value functions (support/isa.h).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "kernels/gemm.h"
#include "nn/layers.h"
#include "support/isa.h"

namespace nn {

namespace {

using certkit::support::RunWidest;

struct QuantScratch {
  std::vector<std::int16_t> image;    // quantized input, zero-bordered planes
  std::vector<std::int32_t> patches;  // pair-packed patch matrix [P, N]
  std::vector<std::int32_t> acc;      // GEMM accumulators [M, N]
};

// Grows *v to at least n elements and returns its data. Never shrinks, so
// a warm buffer is not zero-filled again after a smaller layer ran.
template <class T>
T* AtLeast(std::vector<T>* v, std::size_t n) {
  if (v->size() < n) v->resize(n);
  return v->data();
}

QuantScratch& Scratch() {
  thread_local QuantScratch s;
  return s;
}

// Max-|x| scan in the integer domain: for non-negative IEEE-754 floats the
// bit pattern orders exactly like the value, so max over (bits & 0x7fffffff)
// IS max|x| — and any Inf/NaN surfaces as a pattern >= 0x7f800000. One
// branch-free int32 max reduction replaces the fabs/isfinite/compare loop
// the vectorizer cannot touch (early exit, NaN-sensitive float compares).
// Returns false when a non-finite value is present (containment policy).
bool ScanAmax(const float* data, std::size_t size, float* amax) {
  std::int32_t mbits = 0;
  for (std::size_t i = 0; i < size; ++i) {
    std::uint32_t u;
    std::memcpy(&u, &data[i], sizeof(u));
    const std::int32_t m = static_cast<std::int32_t>(u & 0x7fffffffu);
    mbits = m > mbits ? m : mbits;
  }
  if (mbits >= 0x7f800000) return false;  // Inf or NaN in the tensor
  *amax = std::bit_cast<float>(static_cast<std::uint32_t>(mbits));
  return true;
}

// Symmetric int8-grid snap, round half away from zero — the same grid
// FakeQuantizeTensor documents — computed as truncate(q + ±0.5). The ±0.5
// is selected before the add: under GCC's default -ftrapping-math the
// vectorizer will not speculate a conditional add, but it does vectorize a
// select followed by one unconditional add (bit-identical, since q - 0.5
// and q + (-0.5) round the same). Values are bounded by amax, so the clamp
// only guards FP edge rounding.
inline std::int16_t SnapToGrid(float v, float inv_scale) {
  const float q = v * inv_scale;
  int i = static_cast<int>(q + (q >= 0.0f ? 0.5f : -0.5f));  // toward zero
  i = i > 127 ? 127 : (i < -127 ? -127 : i);
  return static_cast<std::int16_t>(i);
}

// Quantizes `planes` h×w float planes into zero-bordered int16 planes of
// (h + 2·pad) × (w + 2·pad), writing every element once.
void QuantizeBordered(const float* in, int planes, int h, int w, int pad,
                      float inv_scale, std::int16_t* out) {
  const std::size_t pw = w + 2 * pad;
  const std::size_t border = pad * pw;
  for (int c = 0; c < planes; ++c) {
    std::fill_n(out, border, std::int16_t{0});
    out += border;
    for (int y = 0; y < h; ++y, in += w, out += pw) {
      std::fill_n(out, pad, std::int16_t{0});
      for (int x = 0; x < w; ++x) out[pad + x] = SnapToGrid(in[x], inv_scale);
      std::fill_n(out + pad + w, pad, std::int16_t{0});
    }
    std::fill_n(out, border, std::int16_t{0});
    out += border;
  }
}

// Geometry of one conv over zero-bordered planes of ph × pw.
struct PatchGeometry {
  int batch, in_c, ph, pw, kernel, stride, out_h, out_w, k;
};

// Builds the pair-packed patch matrix B[P][N], N = batch·out_h·out_w. Patch
// row r = (ci, kh, kw) at output pixel (b, oh, ow) reads plane (b, ci) of
// the bordered image at (oh·stride + kh, ow·stride + kw), which is always
// inside the plane, so there are no bounds checks. Each output row of a
// patch row is a run of out_w taps; at stride 1 (the detector's 3×3 and 1×1
// convs) that run is a shifted copy of an image row.
void PackPatches(const std::int16_t* image, PatchGeometry g,
                 std::int32_t* patches) {
  const int taps = g.kernel * g.kernel;
  const std::size_t pw = g.pw;  // index arithmetic in size_t
  const std::size_t plane = g.ph * pw;
  const std::size_t image_stride = plane * g.in_c;
  // Offset of patch row r's tap (0, 0) within one batch image.
  const auto tap = [&](int r) {
    const int ci = r / taps;
    const int kh = (r % taps) / g.kernel;
    const int kw = r % g.kernel;
    return ci * plane + kh * pw + kw;
  };
  const int pairs = (g.k + 1) / 2;
  const std::size_t row_stride = g.stride * pw;
  std::int32_t* dst = patches;
  for (int p = 0; p < pairs; ++p) {
    const std::size_t lo = tap(2 * p);
    const bool has_hi = 2 * p + 1 < g.k;  // odd K: the last high half is 0
    const std::size_t hi = has_hi ? tap(2 * p + 1) : lo;
    for (int b = 0; b < g.batch; ++b) {
      const std::int16_t* s0 = image + b * image_stride + lo;
      const std::int16_t* s1 = has_hi ? image + b * image_stride + hi
                                      : nullptr;
      if (g.stride == 1) {
        kernels::micro::PackPairRuns(s0, s1, row_stride, g.out_w, g.out_h,
                                     dst);
        dst += static_cast<std::size_t>(g.out_h) * g.out_w;
        continue;
      }
      for (int oh = 0; oh < g.out_h; ++oh, dst += g.out_w) {
        const std::int16_t* r0 = s0 + oh * row_stride;
        for (int ow = 0; ow < g.out_w; ++ow) {
          const int x = ow * g.stride;
          dst[ow] = kernels::micro::PackPair(
              r0[x], has_hi ? s1[oh * row_stride + x] : std::int16_t{0});
        }
      }
    }
  }
}

// out[b][oc] = combined · acc[oc][b·hw + j] + bias[oc] for j < hw: the
// GEMM's column index un-interleaved back into NCHW. `bias` may be null.
void Dequantize(const std::int32_t* acc, const float* bias, float combined,
                int batch, int out_c, std::size_t hw, float* out) {
  const std::size_t cols_n = batch * hw;
  for (int b = 0; b < batch; ++b) {
    for (int oc = 0; oc < out_c; ++oc, out += hw) {
      const float add = bias != nullptr ? bias[oc] : 0.0f;
      const std::int32_t* arow = acc + oc * cols_n + b * hw;
      for (std::size_t j = 0; j < hw; ++j) {
        out[j] = combined * static_cast<float>(arow[j]) + add;
      }
    }
  }
}

}  // namespace

void ConvLayer::SetInputQuantization(bool enabled) {
  quantize_inputs_ = enabled;
  q_weight_pairs_.clear();
  w_scale_ = 0.0f;
  if (!enabled) return;

  // Per-layer weight scale: max|w| / 127 over this layer's weights. A
  // non-finite weight (or an all-zero filter bank) has no usable grid; the
  // snapshot is then all zeros with scale 0, making the quantized output
  // exactly the bias — the same result the unsnapshotted path produced.
  float w_amax = 0.0f;
  bool finite = true;
  for (const float w : weights_) {
    if (!std::isfinite(w)) finite = false;
    const float a = std::fabs(w);
    if (a > w_amax) w_amax = a;
  }
  const int k = in_c_ * kernel_ * kernel_;
  const int pairs = (k + 1) / 2;
  q_weight_pairs_.assign(static_cast<std::size_t>(out_c_) * pairs, 0);
  if (!finite || w_amax == 0.0f) return;
  w_scale_ = w_amax / 127.0f;
  const float w_inv = 127.0f / w_amax;
  // A[m][p] = (w[m][2p], w[m][2p+1]) on the grid; odd K pads the last high
  // half with 0.
  for (int m = 0; m < out_c_; ++m) {
    const float* row = weights_.data() + static_cast<std::size_t>(m) * k;
    for (int p = 0; p < pairs; ++p) {
      const std::int16_t lo = SnapToGrid(row[2 * p], w_inv);
      const std::int16_t hi =
          2 * p + 1 < k ? SnapToGrid(row[2 * p + 1], w_inv) : 0;
      q_weight_pairs_[static_cast<std::size_t>(m) * pairs + p] =
          kernels::micro::PackPair(lo, hi);
    }
  }
}

bool ConvLayer::QuantizedForwardInto(const Tensor& input, Tensor* out) const {
  // Dynamic per-tensor activation scale over the input. Any non-finite value
  // disables quantization for this call (containment policy in layers.h).
  const float* in = input.data();
  float in_amax = 0.0f;
  const bool finite = RunWidest(
      [&](auto) { return ScanAmax(in, input.size(), &in_amax); });
  if (!finite || in_amax == 0.0f) return false;

  const int patch = in_c_ * kernel_ * kernel_;  // K
  if (q_weight_pairs_.size() !=
      static_cast<std::size_t>(out_c_) * ((patch + 1) / 2)) {
    return false;  // no snapshot
  }

  const int batch = input.n();
  const int in_h = input.h();
  const int in_w = input.w();
  const int out_h = (in_h + 2 * pad_ - kernel_) / stride_ + 1;
  const int out_w = (in_w + 2 * pad_ - kernel_) / stride_ + 1;
  CERTKIT_CHECK(out_h > 0 && out_w > 0);
  const PatchGeometry g{batch,  in_c_, in_h + 2 * pad_, in_w + 2 * pad_,
                        kernel_, stride_, out_h, out_w, patch};
  const int cols_n = batch * out_h * out_w;  // N
  QuantScratch& s = Scratch();

  const float in_scale = in_amax / 127.0f;
  std::int16_t* image =
      AtLeast(&s.image, static_cast<std::size_t>(batch) * in_c_ * g.ph * g.pw);
  std::int32_t* patches = AtLeast(
      &s.patches, static_cast<std::size_t>((patch + 1) / 2) * cols_n);
  RunWidest([&](auto) {
    QuantizeBordered(in, batch * in_c_, in_h, in_w, pad_, 127.0f / in_amax,
                     image);
    PackPatches(image, g, patches);
  });

  // C[M,N] = W·B in int32 on the widest pair microkernel this CPU runs.
  std::int32_t* acc =
      AtLeast(&s.acc, static_cast<std::size_t>(out_c_) * cols_n);
  kernels::micro::GemmPairS16S32(q_weight_pairs_.data(), patches, acc,
                                 kernels::GemmShape{out_c_, cols_n, patch});

  out->Reshape(batch, out_c_, out_h, out_w);
  const float* bias = bias_.empty() ? nullptr : bias_.data();
  const std::size_t hw = out_h * out_w;
  RunWidest([&](auto) {
    Dequantize(acc, bias, in_scale * w_scale_, batch, out_c_, hw,
               out->data());
  });
  return true;
}

}  // namespace nn
