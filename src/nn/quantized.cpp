// The int8 inference path of ConvLayer: per-layer symmetric scales, the
// input quantized once into channel-paired int8-grid planes, the
// int32-accumulating pair microkernel reading them in place, and a
// combined-scale dequantize.
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
// Layout: the input is quantized once into zero-bordered int32 planes, one
// per channel pair q and batch image, each element
// PackPair(x[2q], x[2q+1]) (an odd channel count pairs its last channel
// with 0). The weights are snapshotted in the matching (channel pair, kh,
// kw) order, so pair row p = (q, kh, kw) of the patch matrix at stride 1 is
// plane q read from offset kh·PW + kw: the microkernel takes it in place
// through an offset table (kernels::micro::GemmPairRowsS16S32), over the
// padded width — output pixel (oh, ow) is column oh·PW + ow — and
// Dequantize drops the border columns. Other strides gather dense rows
// from the same planes. The passes around the GEMM (amax, quantize,
// gather, dequantize) run at the widest level of the ISA ladder, as
// by-value functions (support/isa.h).
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
  std::vector<std::int32_t> planes;   // quantized input, paired + bordered
  std::vector<std::int32_t> patches;  // gathered rows [P, N] (stride > 1)
  std::vector<std::size_t> rows;      // offset of each B row [P]
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

// The grid's inverse scale 127 / amax for a finite amax, or 0 when there is
// no usable grid: amax is 0, or so small (below ~3.7e-37) that the inverse
// overflows to inf and every snap would cast inf or NaN to int.
float InverseScale(float amax) {
  const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
  return std::isfinite(inv) ? inv : 0.0f;
}

// Symmetric int8-grid snap (scale = amax / 127), round half away from
// zero, computed as truncate(q + ±0.5). The ±0.5 is selected before the
// add: under GCC's default -ftrapping-math the vectorizer will not
// speculate a conditional add, but it does vectorize a select followed by
// one unconditional add (bit-identical, since q - 0.5 and q + (-0.5) round
// the same). Values are bounded by amax, so the clamp only guards FP edge
// rounding. A finite v at inv_scale 0 snaps to 0.
inline std::int16_t SnapToGrid(float v, float inv_scale) {
  const float q = v * inv_scale;
  int i = static_cast<int>(q + (q >= 0.0f ? 0.5f : -0.5f));  // toward zero
  i = i > 127 ? 127 : (i < -127 ? -127 : i);
  return static_cast<std::int16_t>(i);
}

// Pair rows of the patch matrix: one per (channel pair, kh, kw).
int WeightPairs(int in_c, int kernel) {
  return (in_c + 1) / 2 * kernel * kernel;
}

// One row of a paired plane: out[x] = (snap(lo[x]), snap(hi[x])).
void QuantizePairRow(const float* lo, const float* hi, float lo_inv,
                     float hi_inv, int w, std::int32_t* out) {
  for (int x = 0; x < w; ++x) {
    out[x] = kernels::micro::PackPair(SnapToGrid(lo[x], lo_inv),
                                      SnapToGrid(hi[x], hi_inv));
  }
}

// Geometry of one conv over zero-bordered planes of ph × pw.
struct ConvGeometry {
  int batch, in_c, h, w, pad, kernel, stride, out_h, out_w;
  std::size_t pw() const { return w + 2 * pad; }
  std::size_t image() const { return (h + 2 * pad) * pw(); }
  std::size_t plane() const { return batch * image(); }  // one pair's plane
};

// Quantizes the NCHW input into (in_c + 1) / 2 planes [batch, ph, pw],
// writing every element once. Channels 2q and 2q + 1 go to plane q; with
// an odd channel count the last plane's high halves read channel 2q again
// at inverse scale 0, which snaps every (finite) value to 0.
void QuantizePairPlanes(const float* in, ConvGeometry g, float inv_scale,
                        std::int32_t* out) {
  const std::size_t hw = g.h * g.w;
  const std::size_t pw = g.pw();
  const std::size_t border = g.pad * pw;
  for (int c = 0; c < g.in_c; c += 2) {
    const bool has_hi = c + 1 < g.in_c;
    const float hi_inv = has_hi ? inv_scale : 0.0f;
    for (int b = 0; b < g.batch; ++b) {
      const float* lo = in + (b * g.in_c + c) * hw;
      const float* hi = has_hi ? lo + hw : lo;
      std::fill_n(out, border, 0);
      out += border;
      for (int y = 0; y < g.h; ++y, lo += g.w, hi += g.w, out += pw) {
        std::fill_n(out, g.pad, 0);
        QuantizePairRow(lo, hi, inv_scale, hi_inv, g.w, out + g.pad);
        std::fill_n(out + g.pad + g.w, g.pad, 0);
      }
      std::fill_n(out, border, 0);
      out += border;
    }
  }
}

// Offset of pair row p = (q, kh, kw)'s tap (0, 0) in the planes.
std::size_t TapOffset(ConvGeometry g, int p) {
  const int taps = g.kernel * g.kernel;
  const std::size_t q = p / taps;
  const int kh = (p % taps) / g.kernel;
  const int kw = p % g.kernel;
  return q * g.plane() + kh * g.pw() + kw;
}

// Gathers the dense patch matrix B[P][N], N = batch·out_h·out_w, for a
// stride above 1: B[p][(b, oh, ow)] is plane q at image b, row
// oh·stride + kh, column ow·stride + kw — always inside the bordered plane.
void GatherPatches(const std::int32_t* planes, ConvGeometry g, int pairs,
                   std::int32_t* patches) {
  const std::size_t row_stride = g.stride * g.pw();
  for (int p = 0; p < pairs; ++p) {
    const std::int32_t* tap = planes + TapOffset(g, p);
    for (int b = 0; b < g.batch; ++b, tap += g.image()) {
      for (int oh = 0; oh < g.out_h; ++oh, patches += g.out_w) {
        const std::int32_t* src = tap + oh * row_stride;
        for (int ow = 0; ow < g.out_w; ++ow) patches[ow] = src[ow * g.stride];
      }
    }
  }
}

// Where the GEMM put output pixel (b, oh, ow): column b·image + oh·row + ow
// of each accumulator row of `cols` columns.
struct AccColumns {
  std::size_t cols, image, row;
};

// At stride 1 the B rows are the bordered planes themselves, read in place,
// so pixel (b, oh, ow) is column b·image + oh·pw + ow of a plane. Other
// strides gather dense rows, one column per output pixel. Either way the
// GEMM runs up to the last image's last output pixel.
AccColumns GemmColumns(ConvGeometry g) {
  const bool in_place = g.stride == 1;
  const std::size_t hw = g.out_h * g.out_w;
  const std::size_t image = in_place ? g.image() : hw;
  const std::size_t row = in_place ? g.pw() : g.out_w;
  return {(g.batch - 1) * image + (g.out_h - 1) * row + g.out_w, image, row};
}

// The offset of each B row: tap p's window of its plane at stride 1, row p
// of the gathered matrix otherwise.
void RowOffsets(ConvGeometry g, int pairs, AccColumns cols,
                std::size_t* rows) {
  for (int p = 0; p < pairs; ++p) {
    rows[p] = g.stride == 1 ? TapOffset(g, p) : p * cols.cols;
  }
}

// out[b][oc] = combined · acc[oc][column of (b, oh, ow)] + bias[oc]: the
// GEMM's columns, border columns dropped, back into NCHW. `bias` may be
// null.
void Dequantize(const std::int32_t* acc, const float* bias, float combined,
                ConvGeometry g, int out_c, AccColumns cols, float* out) {
  for (int b = 0; b < g.batch; ++b) {
    for (int oc = 0; oc < out_c; ++oc) {
      const float add = bias != nullptr ? bias[oc] : 0.0f;
      const std::int32_t* arow = acc + oc * cols.cols + b * cols.image;
      for (int oh = 0; oh < g.out_h; ++oh, arow += cols.row, out += g.out_w) {
        for (int ow = 0; ow < g.out_w; ++ow) {
          out[ow] = combined * static_cast<float>(arow[ow]) + add;
        }
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
  // non-finite weight, an all-zero filter bank or an amax too small for a
  // finite inverse scale has no usable grid; the snapshot is then all zeros
  // with scale 0, making the quantized output exactly the bias — the same
  // result the unsnapshotted path produced.
  float w_amax = 0.0f;
  const bool finite = ScanAmax(weights_.data(), weights_.size(), &w_amax);
  const int taps = kernel_ * kernel_;
  const int pairs = WeightPairs(in_c_, kernel_);
  q_weight_pairs_.assign(static_cast<std::size_t>(out_c_) * pairs, 0);
  const float w_inv = finite ? InverseScale(w_amax) : 0.0f;
  if (w_inv == 0.0f) return;
  w_scale_ = w_amax / 127.0f;
  // A[m][(q, t)] = (w[m][2q][t], w[m][2q+1][t]) on the grid for tap t; an
  // odd channel count pads the last pair's high halves with 0.
  std::int32_t* dst = q_weight_pairs_.data();
  for (int m = 0; m < out_c_; ++m) {
    const float* filter = weights_.data() +
                          static_cast<std::size_t>(m) * in_c_ * taps;
    for (int c = 0; c < in_c_; c += 2) {
      const float* lo = filter + c * taps;
      for (int t = 0; t < taps; ++t) {
        const std::int16_t hi =
            c + 1 < in_c_ ? SnapToGrid(lo[taps + t], w_inv) : 0;
        *dst++ = kernels::micro::PackPair(SnapToGrid(lo[t], w_inv), hi);
      }
    }
  }
}

bool ConvLayer::QuantizedForwardInto(const Tensor& input, Tensor* out) const {
  // Dynamic per-tensor activation scale over the input. Any non-finite value
  // or an input with no usable grid disables quantization for this call
  // (containment policy in layers.h).
  const float* in = input.data();
  float in_amax = 0.0f;
  const bool finite = RunWidest(
      [&](auto) { return ScanAmax(in, input.size(), &in_amax); });
  const float in_inv = finite ? InverseScale(in_amax) : 0.0f;
  if (in_inv == 0.0f) return false;

  const int pairs = WeightPairs(in_c_, kernel_);  // P
  if (q_weight_pairs_.size() != static_cast<std::size_t>(out_c_) * pairs) {
    return false;  // no snapshot
  }

  const int batch = input.n();
  const int out_h = (input.h() + 2 * pad_ - kernel_) / stride_ + 1;
  const int out_w = (input.w() + 2 * pad_ - kernel_) / stride_ + 1;
  CERTKIT_CHECK(out_h > 0 && out_w > 0);
  const ConvGeometry g{batch, in_c_,   input.h(), input.w(), pad_,
                       kernel_, stride_, out_h,   out_w};
  QuantScratch& s = Scratch();
  std::int32_t* planes = AtLeast(&s.planes, (in_c_ + 1) / 2 * g.plane());
  std::size_t* rows = AtLeast(&s.rows, pairs);
  const AccColumns cols = GemmColumns(g);
  RowOffsets(g, pairs, cols, rows);
  const bool in_place = stride_ == 1;
  std::int32_t* patches =
      in_place ? planes : AtLeast(&s.patches, pairs * cols.cols);
  RunWidest([&](auto) {
    QuantizePairPlanes(in, g, in_inv, planes);
    if (!in_place) GatherPatches(planes, g, pairs, patches);
  });

  // C[M,N] = W·B in int32 on the widest pair microkernel this CPU runs.
  const int cols_n = static_cast<int>(cols.cols);
  std::int32_t* acc = AtLeast(&s.acc, out_c_ * cols.cols);
  kernels::micro::GemmPairRowsS16S32(
      q_weight_pairs_.data(), patches, rows, acc,
      kernels::GemmShape{out_c_, cols_n, 2 * pairs});

  out->Reshape(batch, out_c_, out_h, out_w);
  const float* bias = bias_.empty() ? nullptr : bias_.data();
  const float combined = in_amax / 127.0f * w_scale_;
  RunWidest([&](auto) {
    Dequantize(acc, bias, combined, g, out_c_, cols, out->data());
  });
  return true;
}

}  // namespace nn
