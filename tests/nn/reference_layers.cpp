#include "reference_layers.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "coverage/coverage.h"

namespace nn::reference {

namespace {

using certkit::cov::Registry;
using certkit::cov::Unit;

struct ActProbes {
  Unit* u;
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
    q.u = &Registry::Instance().GetOrCreate("reference/activation.cc");
    q.u->DeclareStatements(ActProbes::kSCount);
    q.d_linear = q.u->DeclareDecision(1);
    q.d_relu = q.u->DeclareDecision(1);
    q.d_negative = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}

struct PoolProbes {
  Unit* u;
  int d_in_bounds, d_better;
  enum : int { kSWindow = 0, kSOutOfBounds, kSUpdateMax, kSCount };
};
PoolProbes& PoolP() {
  static PoolProbes p = [] {
    PoolProbes q;
    q.u = &Registry::Instance().GetOrCreate("reference/pooling.cc");
    q.u->DeclareStatements(PoolProbes::kSCount);
    q.d_in_bounds = q.u->DeclareDecision(2);
    q.d_better = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}

struct NmsProbes {
  Unit* u;
  int d_suppress;
  int d_no_overlap;
  enum : int {
    kSKeep = 0,
    kSSuppress,
    kSZeroOverlap,
    kSOverlapCompute,
    kSCount
  };
};
NmsProbes& NmsP() {
  static NmsProbes p = [] {
    NmsProbes q;
    q.u = &Registry::Instance().GetOrCreate("reference/nms.cc");
    q.u->DeclareStatements(NmsProbes::kSCount);
    q.d_suppress = q.u->DeclareDecision(2);
    q.d_no_overlap = q.u->DeclareDecision(2);
    return q;
  }();
  return p;
}

struct PreProbes {
  Unit* u;
  int d_same_size, d_aspect_match, d_pad_pixel;
  enum : int {
    kSNormalizeOnly = 0,
    kSResize,
    kSLetterboxSetup,
    kSLetterboxPad,
    kSLetterboxCopy,
    kSCount
  };
};
PreProbes& PreP() {
  static PreProbes p = [] {
    PreProbes q;
    q.u = &Registry::Instance().GetOrCreate("reference/preprocess.cc");
    q.u->DeclareStatements(PreProbes::kSCount);
    q.d_same_size = q.u->DeclareDecision(2);
    q.d_aspect_match = q.u->DeclareDecision(1);
    q.d_pad_pixel = q.u->DeclareDecision(2);
    return q;
  }();
  return p;
}

float ProbedIou(const Detection& a, const Detection& b) {
  NmsProbes& p = NmsP();
  const float ax0 = a.x - a.w / 2, ax1 = a.x + a.w / 2;
  const float ay0 = a.y - a.h / 2, ay1 = a.y + a.h / 2;
  const float bx0 = b.x - b.w / 2, bx1 = b.x + b.w / 2;
  const float by0 = b.y - b.h / 2, by1 = b.y + b.h / 2;
  const float dx = std::min(ax1, bx1) - std::max(ax0, bx0);
  const float dy = std::min(ay1, by1) - std::max(ay0, by0);
  const bool no_x = p.u->Cond(p.d_no_overlap, 0, dx <= 0.0f);
  const bool no_y = p.u->Cond(p.d_no_overlap, 1, dy <= 0.0f);
  if (p.u->Dec(p.d_no_overlap, no_x || no_y)) {
    p.u->Stmt(NmsProbes::kSZeroOverlap);
    return 0.0f;
  }
  p.u->Stmt(NmsProbes::kSOverlapCompute);
  const float inter = dx * dy;
  const float area_a = a.w * a.h;
  const float area_b = b.w * b.h;
  const float uni = area_a + area_b - inter;
  return uni > 0.0f ? inter / uni : 0.0f;
}

float Sample(const Tensor& t, int n, int c, float fy, float fx) {
  int y = static_cast<int>(std::floor(fy));
  int x = static_cast<int>(std::floor(fx));
  y = std::clamp(y, 0, t.h() - 1);
  x = std::clamp(x, 0, t.w() - 1);
  return t.At(n, c, y, x);
}

}  // namespace

void Activate(Activation kind, float leaky_slope, const Tensor& input,
              Tensor* out) {
  ActProbes& p = ActP();
  out->Reshape(input.n(), input.c(), input.h(), input.w());
  const float* in = input.data();
  float* o = out->data();
  if (p.u->Branch(p.d_linear, kind == Activation::kLinear)) {
    p.u->Stmt(ActProbes::kSLinear);
    std::copy(in, in + input.size(), o);
    return;
  }
  const bool is_relu = p.u->Branch(p.d_relu, kind == Activation::kRelu);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float v = in[i];
    if (p.u->Branch(p.d_negative, v < 0.0f)) {
      if (is_relu) {
        p.u->Stmt(ActProbes::kSReluClamp);
        o[i] = 0.0f;
      } else {
        p.u->Stmt(ActProbes::kSLeakyScale);
        o[i] = leaky_slope * v;
      }
    } else {
      if (is_relu) {
        p.u->Stmt(ActProbes::kSReluPass);
      } else {
        p.u->Stmt(ActProbes::kSLeakyPass);
      }
      o[i] = v;
    }
  }
}

void MaxPool(int size, int stride, const Tensor& input, Tensor* out) {
  PoolProbes& p = PoolP();
  const int oh = (input.h() - size) / stride + 1;
  const int ow = (input.w() - size) / stride + 1;
  out->Reshape(input.n(), input.c(), oh, ow);
  for (int n = 0; n < input.n(); ++n) {
    for (int c = 0; c < input.c(); ++c) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          p.u->Stmt(PoolProbes::kSWindow);
          float best = -std::numeric_limits<float>::infinity();
          for (int ky = 0; ky < size; ++ky) {
            for (int kx = 0; kx < size; ++kx) {
              const int iy = y * stride + ky;
              const int ix = x * stride + kx;
              const bool cy = p.u->Cond(p.d_in_bounds, 0, iy < input.h());
              const bool cx = p.u->Cond(p.d_in_bounds, 1, ix < input.w());
              if (!p.u->Dec(p.d_in_bounds, cy && cx)) {
                p.u->Stmt(PoolProbes::kSOutOfBounds);
                continue;
              }
              const float v = input.At(n, c, iy, ix);
              if (p.u->Branch(p.d_better, v > best)) {
                p.u->Stmt(PoolProbes::kSUpdateMax);
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

void NmsInPlace(std::vector<Detection>* detections, float iou_threshold) {
  NmsProbes& p = NmsP();
  std::vector<Detection>& d = *detections;
  std::sort(d.begin(), d.end(), [](const Detection& a, const Detection& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.y != b.y) return a.y < b.y;
    if (a.x != b.x) return a.x < b.x;
    return a.cls < b.cls;
  });
  std::vector<char> suppressed(d.size(), 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (suppressed[i]) continue;
    p.u->Stmt(NmsProbes::kSKeep);
    const Detection det = d[i];
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      if (suppressed[j]) continue;
      const bool same_cls = p.u->Cond(p.d_suppress, 0, det.cls == d[j].cls);
      const bool over =
          p.u->Cond(p.d_suppress, 1, ProbedIou(det, d[j]) > iou_threshold);
      if (p.u->Dec(p.d_suppress, same_cls && over)) {
        p.u->Stmt(NmsProbes::kSSuppress);
        suppressed[j] = 1;
      }
    }
    d[kept++] = det;
  }
  d.resize(kept);
}

void Preprocess(const Tensor& frame, int target_h, int target_w,
                Tensor* out) {
  PreProbes& p = PreP();
  constexpr float kScale = 1.0f / 255.0f;
  const bool hm = p.u->Cond(p.d_same_size, 0, frame.h() == target_h);
  const bool wm = p.u->Cond(p.d_same_size, 1, frame.w() == target_w);
  if (p.u->Dec(p.d_same_size, hm && wm)) {
    p.u->Stmt(PreProbes::kSNormalizeOnly);
    out->Reshape(frame.n(), frame.c(), target_h, target_w);
    const float* in = frame.data();
    float* o = out->data();
    for (std::size_t i = 0; i < frame.size(); ++i) o[i] = in[i] * kScale;
    return;
  }
  const float frame_aspect =
      static_cast<float>(frame.w()) / static_cast<float>(frame.h());
  const float target_aspect =
      static_cast<float>(target_w) / static_cast<float>(target_h);
  out->Reshape(frame.n(), frame.c(), target_h, target_w);
  if (p.u->Branch(p.d_aspect_match,
                  std::abs(frame_aspect - target_aspect) < 1e-6f)) {
    p.u->Stmt(PreProbes::kSResize);
    const float sy = static_cast<float>(frame.h()) / target_h;
    const float sx = static_cast<float>(frame.w()) / target_w;
    for (int n = 0; n < frame.n(); ++n) {
      for (int c = 0; c < frame.c(); ++c) {
        for (int y = 0; y < target_h; ++y) {
          for (int x = 0; x < target_w; ++x) {
            out->At(n, c, y, x) = Sample(frame, n, c, y * sy, x * sx) * kScale;
          }
        }
      }
    }
    return;
  }
  p.u->Stmt(PreProbes::kSLetterboxSetup);
  const float scale = std::min(static_cast<float>(target_w) / frame.w(),
                               static_cast<float>(target_h) / frame.h());
  const int new_w = static_cast<int>(frame.w() * scale);
  const int new_h = static_cast<int>(frame.h() * scale);
  const int off_x = (target_w - new_w) / 2;
  const int off_y = (target_h - new_h) / 2;
  for (int n = 0; n < frame.n(); ++n) {
    for (int c = 0; c < frame.c(); ++c) {
      for (int y = 0; y < target_h; ++y) {
        for (int x = 0; x < target_w; ++x) {
          const bool in_y =
              p.u->Cond(p.d_pad_pixel, 0, y >= off_y && y < off_y + new_h);
          const bool in_x =
              p.u->Cond(p.d_pad_pixel, 1, x >= off_x && x < off_x + new_w);
          if (p.u->Dec(p.d_pad_pixel, in_y && in_x)) {
            p.u->Stmt(PreProbes::kSLetterboxCopy);
            out->At(n, c, y, x) =
                Sample(frame, n, c, (y - off_y) / scale, (x - off_x) / scale) *
                kScale;
          } else {
            p.u->Stmt(PreProbes::kSLetterboxPad);
            out->At(n, c, y, x) = 0.5f;
          }
        }
      }
    }
  }
}

}  // namespace nn::reference
