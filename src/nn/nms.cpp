// Non-maximum suppression.
#include <algorithm>

#include "coverage/coverage.h"
#include "coverage/loop_probe.h"
#include "nn/detector.h"

namespace nn {

namespace {
struct NmsProbes {
  certkit::cov::Unit* u;
  int d_suppress;     // same class && IoU over threshold
  int d_no_overlap;   // zero intersection fast path
  enum : int {
    kSKeep = 0,
    kSSuppress,
    kSZeroOverlap,
    kSOverlapCompute,
    kSCount
  };
};
NmsProbes& P() {
  static NmsProbes p = [] {
    NmsProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate("yolo/nms.cc");
    q.u->DeclareStatements(NmsProbes::kSCount);
    q.d_suppress = q.u->DeclareDecision(2);
    q.d_no_overlap = q.u->DeclareDecision(2);  // dx <= 0 || dy <= 0
    return q;
  }();
  return p;
}

template <class Probe>
float IouWith(Probe& probe, const NmsProbes& p, const Detection& a,
              const Detection& b) {
  const float ax0 = a.x - a.w / 2, ax1 = a.x + a.w / 2;
  const float ay0 = a.y - a.h / 2, ay1 = a.y + a.h / 2;
  const float bx0 = b.x - b.w / 2, bx1 = b.x + b.w / 2;
  const float by0 = b.y - b.h / 2, by1 = b.y + b.h / 2;
  const float dx = std::min(ax1, bx1) - std::max(ax0, bx0);
  const float dy = std::min(ay1, by1) - std::max(ay0, by0);
  if (probe.Or(p.d_no_overlap, dx <= 0.0f, dy <= 0.0f)) {
    probe.Stmt(NmsProbes::kSZeroOverlap);
    return 0.0f;
  }
  probe.Stmt(NmsProbes::kSOverlapCompute);
  const float inter = dx * dy;
  const float uni = a.w * a.h + b.w * b.h - inter;
  return uni > 0.0f ? inter / uni : 0.0f;
}

}  // namespace

float Iou(const Detection& a, const Detection& b) {
  NmsProbes& p = P();
  float iou = 0.0f;
  certkit::cov::WithProbes(
      *p.u, [&](auto& probe) { iou = IouWith(probe, p, a, b); });
  return iou;
}

std::vector<Detection> Nms(std::vector<Detection> detections,
                           float iou_threshold) {
  NmsInPlace(&detections, iou_threshold);
  return detections;
}

void NmsInPlace(std::vector<Detection>* detections, float iou_threshold) {
  NmsProbes& p = P();
  std::vector<Detection>& d = *detections;
  // Score-descending with a positional tie-break so that equal-score
  // detections are ordered deterministically regardless of backend.
  std::sort(d.begin(), d.end(),
            [](const Detection& a, const Detection& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.y != b.y) return a.y < b.y;
              if (a.x != b.x) return a.x < b.x;
              return a.cls < b.cls;
            });
  // Suppression flags live in thread_local scratch so pool workers running
  // per-frame NMS never contend or allocate once warm. Survivors are
  // compacted in place: the write cursor trails i, and the inner loop only
  // reads slots > i, so no live element is overwritten before it is read.
  thread_local std::vector<char> suppressed;
  suppressed.assign(d.size(), 0);
  std::size_t kept = 0;
  // A dense decode (hundreds of candidates) makes this O(n²) pair loop the
  // whole NMS cost, so its probes fire once per call, not once per pair.
  // Probed, every unsuppressed pair computes its IoU; release short-circuits
  // on the class test.
  certkit::cov::WithProbes(*p.u, [&](auto& probe) {
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (suppressed[i]) continue;
      probe.Stmt(NmsProbes::kSKeep);
      const Detection det = d[i];
      for (std::size_t j = i + 1; j < d.size(); ++j) {
        if (suppressed[j]) continue;
        if (probe.AndThen(p.d_suppress, det.cls == d[j].cls, [&] {
              return IouWith(probe, p, det, d[j]) > iou_threshold;
            })) {
          probe.Stmt(NmsProbes::kSSuppress);
          suppressed[j] = 1;
        }
      }
      d[kept++] = det;
    }
  });
  d.resize(kept);
}

}  // namespace nn
