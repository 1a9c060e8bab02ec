// Frame preprocessing: normalization, resize, and letterboxing.
#include <algorithm>
#include <cmath>

#include "coverage/coverage.h"
#include "coverage/loop_probe.h"
#include "nn/layers.h"

namespace nn {

namespace {
struct PreProbes {
  certkit::cov::Unit* u;
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
PreProbes& P() {
  static PreProbes p = [] {
    PreProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/preprocess.cc");
    q.u->DeclareStatements(PreProbes::kSCount);
    q.d_same_size = q.u->DeclareDecision(2);  // h match && w match
    q.d_aspect_match = q.u->DeclareDecision(1);
    q.d_pad_pixel = q.u->DeclareDecision(2);
    return q;
  }();
  return p;
}

// Nearest-neighbour sample of channel c at fractional position. The
// fractional coordinate must be floored, not truncated: positions just
// below zero (top/left border under letterboxing, where (y - off) / scale
// can round a hair negative) must map to the border pixel via the clamp,
// not be pulled toward it by trunc-toward-zero.
float Sample(const Tensor& t, int n, int c, float fy, float fx) {
  int y = static_cast<int>(std::floor(fy));
  int x = static_cast<int>(std::floor(fx));
  y = std::clamp(y, 0, t.h() - 1);
  x = std::clamp(x, 0, t.w() - 1);
  return t.At(n, c, y, x);
}

template <class Probe>
void PreprocessWith(Probe& probe, const PreProbes& p, const Tensor& frame,
                    int target_h, int target_w, Tensor* out_t) {
  constexpr float kScale = 1.0f / 255.0f;

  if (probe.And(p.d_same_size, frame.h() == target_h,
                frame.w() == target_w)) {
    // Already the right size: normalize into the reused buffer.
    probe.Stmt(PreProbes::kSNormalizeOnly);
    out_t->Reshape(frame.n(), frame.c(), target_h, target_w);
    const float* in = frame.data();
    float* o = out_t->data();
    const std::size_t size = frame.size();
    for (std::size_t i = 0; i < size; ++i) o[i] = in[i] * kScale;
    return;
  }

  const float frame_aspect =
      static_cast<float>(frame.w()) / static_cast<float>(frame.h());
  const float target_aspect =
      static_cast<float>(target_w) / static_cast<float>(target_h);
  out_t->Reshape(frame.n(), frame.c(), target_h, target_w);
  Tensor& out = *out_t;

  if (probe.Branch(p.d_aspect_match,
                   std::abs(frame_aspect - target_aspect) < 1e-6f)) {
    // Plain resize.
    probe.Stmt(PreProbes::kSResize);
    const float sy = static_cast<float>(frame.h()) / target_h;
    const float sx = static_cast<float>(frame.w()) / target_w;
    for (int n = 0; n < frame.n(); ++n) {
      for (int c = 0; c < frame.c(); ++c) {
        for (int y = 0; y < target_h; ++y) {
          for (int x = 0; x < target_w; ++x) {
            out.At(n, c, y, x) =
                Sample(frame, n, c, y * sy, x * sx) * kScale;
          }
        }
      }
    }
    return;
  }

  // Letterbox: preserve aspect, pad with mid-grey. Typical square scenario
  // frames never reach this path — a deliberate Figure 5 coverage gap.
  probe.Stmt(PreProbes::kSLetterboxSetup);
  const float scale =
      std::min(static_cast<float>(target_w) / frame.w(),
               static_cast<float>(target_h) / frame.h());
  const int new_w = static_cast<int>(frame.w() * scale);
  const int new_h = static_cast<int>(frame.h() * scale);
  const int off_x = (target_w - new_w) / 2;
  const int off_y = (target_h - new_h) / 2;
  for (int n = 0; n < frame.n(); ++n) {
    for (int c = 0; c < frame.c(); ++c) {
      for (int y = 0; y < target_h; ++y) {
        for (int x = 0; x < target_w; ++x) {
          if (probe.And(p.d_pad_pixel, y >= off_y && y < off_y + new_h,
                        x >= off_x && x < off_x + new_w)) {
            probe.Stmt(PreProbes::kSLetterboxCopy);
            out.At(n, c, y, x) =
                Sample(frame, n, c, (y - off_y) / scale, (x - off_x) / scale) *
                kScale;
          } else {
            probe.Stmt(PreProbes::kSLetterboxPad);
            out.At(n, c, y, x) = 0.5f;
          }
        }
      }
    }
  }
}

}  // namespace

Tensor Preprocess(const Tensor& frame, int target_h, int target_w) {
  Tensor out;
  PreprocessInto(frame, target_h, target_w, &out);
  return out;
}

void PreprocessInto(const Tensor& frame, int target_h, int target_w,
                    Tensor* out_t) {
  PreProbes& p = P();
  CERTKIT_CHECK(target_h > 0 && target_w > 0);
  CERTKIT_CHECK(out_t != nullptr && out_t != &frame);
  certkit::cov::WithProbes(*p.u, [&](auto& probe) {
    PreprocessWith(probe, p, frame, target_h, target_w, out_t);
  });
}

}  // namespace nn
