// BatchNorm, activation, max-pool, and upsample layers, each with its own
// coverage unit (they model distinct files of the YOLO implementation).
#include <algorithm>
#include <limits>

#include "coverage/coverage.h"
#include "coverage/loop_probe.h"
#include "nn/layers.h"
#include "support/isa.h"

namespace nn {

// ---------------------------------------------------------------- batchnorm
namespace {
struct BnProbes {
  certkit::cov::Unit* u;
  int d_identity;
  enum : int { kSApply = 0, kSIdentityFast, kSCount };
};
BnProbes& BnP() {
  static BnProbes p = [] {
    BnProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/batchnorm.cc");
    q.u->DeclareStatements(BnProbes::kSCount);
    q.d_identity = q.u->DeclareDecision(2);  // scale==1 && shift==0
    return q;
  }();
  return p;
}
}  // namespace

BatchNormLayer::BatchNormLayer(std::vector<float> scale,
                               std::vector<float> shift)
    : scale_(std::move(scale)), shift_(std::move(shift)) {
  CERTKIT_CHECK(scale_.size() == shift_.size());
  CERTKIT_CHECK(!scale_.empty());
}

void BatchNormLayer::ForwardInto(const Tensor& input, Tensor* out_t) {
  BnProbes& p = BnP();
  CERTKIT_CHECK(out_t != nullptr && out_t != &input);
  CERTKIT_CHECK_MSG(input.c() == static_cast<int>(scale_.size()),
                    "batchnorm channel mismatch");
  out_t->Reshape(input.n(), input.c(), input.h(), input.w());
  const std::size_t hw = static_cast<std::size_t>(input.h()) * input.w();
  certkit::cov::WithProbes(*p.u, [&](auto& probe) {
    for (int n = 0; n < input.n(); ++n) {
      for (int c = 0; c < input.c(); ++c) {
        const float s = scale_[static_cast<std::size_t>(c)];
        const float b = shift_[static_cast<std::size_t>(c)];
        const std::size_t plane =
            (static_cast<std::size_t>(n) * input.c() + c) * hw;
        const float* in = input.data() + plane;
        float* o = out_t->data() + plane;
        if (probe.And(p.d_identity, s == 1.0f, b == 0.0f)) {
          // Identity channel: copy without FMA (fast path).
          probe.Stmt(BnProbes::kSIdentityFast);
          std::copy(in, in + hw, o);
        } else {
          probe.Stmt(BnProbes::kSApply);
          for (std::size_t i = 0; i < hw; ++i) o[i] = s * in[i] + b;
        }
      }
    }
  });
}

// --------------------------------------------------------------- activation
namespace {
struct ActProbes {
  certkit::cov::Unit* u;
  int d_linear, d_relu, d_negative;
  enum : int {
    kSLinear = 0,
    kSReluClamp,
    kSReluPass,
    kSLeakyScale,
    kSLeakyPass,
    kSCount
  };
};
ActProbes& ActP() {
  static ActProbes p = [] {
    ActProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/activation.cc");
    q.u->DeclareStatements(ActProbes::kSCount);
    q.d_linear = q.u->DeclareDecision(1);
    q.d_relu = q.u->DeclareDecision(1);
    q.d_negative = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}

// `kind` over `size` elements. The pointers and the slope are by-value
// parameters, so the loops hold the slope in a register and vectorize
// (support/isa.h).
template <class Probe>
void Activate(Probe& probe, const ActProbes& p, Activation kind,
              const float* in, float* o, std::size_t size, float slope) {
  if (probe.Branch(p.d_linear, kind == Activation::kLinear)) {
    probe.Stmt(ActProbes::kSLinear);
    std::copy(in, in + size, o);
  } else if (probe.Branch(p.d_relu, kind == Activation::kRelu)) {
    for (std::size_t i = 0; i < size; ++i) {
      const float v = in[i];
      const bool negative = probe.Branch(p.d_negative, v < 0.0f);
      probe.Stmt(negative ? ActProbes::kSReluClamp : ActProbes::kSReluPass);
      o[i] = negative ? 0.0f : v;
    }
  } else {
    for (std::size_t i = 0; i < size; ++i) {
      const float v = in[i];
      const bool negative = probe.Branch(p.d_negative, v < 0.0f);
      probe.Stmt(negative ? ActProbes::kSLeakyScale : ActProbes::kSLeakyPass);
      o[i] = negative ? slope * v : v;
    }
  }
}
}  // namespace

ActivationLayer::ActivationLayer(Activation kind, float leaky_slope)
    : kind_(kind), leaky_slope_(leaky_slope) {}

void ActivationLayer::ForwardInto(const Tensor& input, Tensor* out_t) {
  ActProbes& p = ActP();
  CERTKIT_CHECK(out_t != nullptr && out_t != &input);
  out_t->Reshape(input.n(), input.c(), input.h(), input.w());
  certkit::cov::WithProbes(*p.u, [&](auto& probe) {
    Activate(probe, p, kind_, input.data(), out_t->data(), input.size(),
             leaky_slope_);
  });
}

// ------------------------------------------------------------------ maxpool
namespace {
struct PoolProbes {
  certkit::cov::Unit* u;
  int d_in_bounds, d_better;
  enum : int { kSWindow = 0, kSOutOfBounds, kSUpdateMax, kSCount };
};
PoolProbes& PoolP() {
  static PoolProbes p = [] {
    PoolProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate("yolo/pooling.cc");
    q.u->DeclareStatements(PoolProbes::kSCount);
    q.d_in_bounds = q.u->DeclareDecision(2);
    q.d_better = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}

// Every pool in the detector is 2×2 stride 2 on even dims, so the window
// never rags off the edge and the per-tap bounds checks (and At()'s index
// arithmetic) can go: every tap's bounds decision is (in, in) -> true, and
// each plane fires it once. The max is folded in PoolAnyShape's tap order
// from the same -inf seed, so the `v > best` comparison chain, NaN behavior
// included, is unchanged; that fold is the form the vectorizer maps to
// maxps.
template <class Probe>
void Pool2x2(Probe& probe, const PoolProbes& p, const Tensor& input,
             Tensor* out) {
  const int iw = input.w();
  const int oh = out->h();
  const int ow = out->w();
  const std::size_t planes = static_cast<std::size_t>(input.n()) * input.c();
  for (std::size_t pl = 0; pl < planes; ++pl) {
    probe.Stmt(PoolProbes::kSWindow);
    probe.And(p.d_in_bounds, true, true);
    const float* in_plane =
        input.data() + pl * static_cast<std::size_t>(input.h()) * iw;
    float* out_plane = out->data() + pl * static_cast<std::size_t>(oh) * ow;
    for (int y = 0; y < oh; ++y) {
      const float* r0 = in_plane + static_cast<std::size_t>(2 * y) * iw;
      const float* r1 = r0 + iw;
      float* orow = out_plane + static_cast<std::size_t>(y) * ow;
      for (int x = 0; x < ow; ++x) {
        float best = -std::numeric_limits<float>::infinity();
        const auto tap = [&](float v) {
          const bool better = probe.Branch(p.d_better, v > best);
          probe.StmtIf(PoolProbes::kSUpdateMax, better);
          best = better ? v : best;
        };
        tap(r0[2 * x]);
        tap(r0[2 * x + 1]);
        tap(r1[2 * x]);
        tap(r1[2 * x + 1]);
        orow[x] = best;
      }
    }
  }
}

// Any size and stride. Every tap of a window evaluates its bounds decision,
// including the ones past a ragged edge.
template <class Probe>
void PoolAnyShape(Probe& probe, const PoolProbes& p, int size, int stride,
                  const Tensor& input, Tensor* out) {
  for (int n = 0; n < input.n(); ++n) {
    for (int c = 0; c < input.c(); ++c) {
      for (int y = 0; y < out->h(); ++y) {
        for (int x = 0; x < out->w(); ++x) {
          probe.Stmt(PoolProbes::kSWindow);
          float best = -std::numeric_limits<float>::infinity();
          for (int ky = 0; ky < size; ++ky) {
            for (int kx = 0; kx < size; ++kx) {
              const int iy = y * stride + ky;
              const int ix = x * stride + kx;
              if (!probe.And(p.d_in_bounds, iy < input.h(), ix < input.w())) {
                // Ragged edge (stride does not divide the input): skip.
                probe.Stmt(PoolProbes::kSOutOfBounds);
                continue;
              }
              const float v = input.At(n, c, iy, ix);
              if (probe.Branch(p.d_better, v > best)) {
                probe.Stmt(PoolProbes::kSUpdateMax);
                best = v;
              }
            }
          }
          out->At(n, c, y, x) = best;
        }
      }
    }
  }
}
}  // namespace

MaxPoolLayer::MaxPoolLayer(int size, int stride) : size_(size),
                                                   stride_(stride) {
  CERTKIT_CHECK(size > 0 && stride > 0);
}

void MaxPoolLayer::ForwardInto(const Tensor& input, Tensor* out_t) {
  PoolProbes& p = PoolP();
  CERTKIT_CHECK(out_t != nullptr && out_t != &input);
  const int oh = (input.h() - size_) / stride_ + 1;
  const int ow = (input.w() - size_) / stride_ + 1;
  CERTKIT_CHECK_MSG(oh > 0 && ow > 0, "pool output would be empty");
  out_t->Reshape(input.n(), input.c(), oh, ow);
  certkit::cov::WithProbes(*p.u, [&](auto& probe) {
    if (size_ == 2 && stride_ == 2 && input.h() % 2 == 0 &&
        input.w() % 2 == 0) {
      Pool2x2(probe, p, input, out_t);
    } else {
      PoolAnyShape(probe, p, size_, stride_, input, out_t);
    }
  });
}

// ----------------------------------------------------------------- upsample
namespace {
struct UpProbes {
  certkit::cov::Unit* u;
  int d_factor2;
  enum : int { kSFast2x = 0, kSGeneric, kSCount };
};
UpProbes& UpP() {
  static UpProbes p = [] {
    UpProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/upsample.cc");
    q.u->DeclareStatements(UpProbes::kSCount);
    q.d_factor2 = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}

// The 2x fast path: each of `rows` input rows of `w` pixels becomes two
// output rows of 2w, each pixel written twice into the first and the first
// copied whole into the second.
void Upsample2xRows(const float* in, float* out, std::size_t rows,
                    std::size_t w) {
  const std::size_t ow = 2 * w;
  for (std::size_t r = 0; r < rows; ++r, in += w, out += 2 * ow) {
    for (std::size_t x = 0; x < w; ++x) {
      out[2 * x] = in[x];
      out[2 * x + 1] = in[x];
    }
    std::copy(out, out + ow, out + ow);
  }
}
}  // namespace

UpsampleLayer::UpsampleLayer(int factor) : factor_(factor) {
  CERTKIT_CHECK(factor >= 1);
}

void UpsampleLayer::ForwardInto(const Tensor& input, Tensor* out_t) {
  UpProbes& p = UpP();
  CERTKIT_CHECK(out_t != nullptr && out_t != &input);
  out_t->Reshape(input.n(), input.c(), input.h() * factor_,
                 input.w() * factor_);
  Tensor& out = *out_t;
  if (p.u->Branch(p.d_factor2, factor_ == 2)) {
    p.u->Stmt(UpProbes::kSFast2x);
    const float* in = input.data();
    float* o = out.data();
    const std::size_t w = input.w();
    const std::size_t rows = input.size() / w;
    certkit::support::RunWidest(
        [=](auto) { Upsample2xRows(in, o, rows, w); });
    return;
  }
  p.u->Stmt(UpProbes::kSGeneric);
  for (int n = 0; n < input.n(); ++n) {
    for (int c = 0; c < input.c(); ++c) {
      for (int y = 0; y < out.h(); ++y) {
        for (int x = 0; x < out.w(); ++x) {
          out.At(n, c, y, x) = input.At(n, c, y / factor_, x / factor_);
        }
      }
    }
  }
}

}  // namespace nn
