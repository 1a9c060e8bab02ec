// Detection decoding: head tensor -> thresholded, clamped detections.
#include <cmath>

#include "coverage/coverage.h"
#include "nn/detector.h"

namespace nn {

namespace {
struct DecProbes {
  certkit::cov::Unit* u;
  int d_above_threshold, d_clamp, d_class_better;
  enum : int {
    kSCell = 0,
    kSAccept,
    kSReject,
    kSClampApplied,
    kSClassUpdate,
    kSCount
  };
};
DecProbes& P() {
  static DecProbes p = [] {
    DecProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/detection.cc");
    q.u->DeclareStatements(DecProbes::kSCount);
    q.d_above_threshold = q.u->DeclareDecision(1);
    q.d_clamp = q.u->DeclareDecision(2);  // x out || y out
    q.d_class_better = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}

float Sigmoid(float v) { return 1.0f / (1.0f + std::exp(-v)); }

// Decodes one image of the (possibly batched) head tensor, appending to
// `out`. Shared by the flat and the per-image decoders so both fire the
// same probes and produce bit-identical boxes.
void DecodeImage(const Tensor& head, const DetectorConfig& config, int n,
                 std::vector<Detection>* out) {
  DecProbes& p = P();
  const int grid_h = head.h();
  const int grid_w = head.w();
  const float cell_h =
      static_cast<float>(config.input_h) / static_cast<float>(grid_h);
  const float cell_w =
      static_cast<float>(config.input_w) / static_cast<float>(grid_w);

  for (int gy = 0; gy < grid_h; ++gy) {
    for (int gx = 0; gx < grid_w; ++gx) {
      p.u->Stmt(DecProbes::kSCell);
      const float objectness = Sigmoid(head.At(n, 4, gy, gx));
      if (!p.u->Branch(p.d_above_threshold,
                       objectness >= config.score_threshold)) {
        p.u->Stmt(DecProbes::kSReject);
        continue;
      }
      p.u->Stmt(DecProbes::kSAccept);

      Detection det;
      det.x = (gx + Sigmoid(head.At(n, 0, gy, gx))) * cell_w;
      det.y = (gy + Sigmoid(head.At(n, 1, gy, gx))) * cell_h;
      det.w = cell_w * std::exp(std::min(head.At(n, 2, gy, gx), 4.0f));
      det.h = cell_h * std::exp(std::min(head.At(n, 3, gy, gx), 4.0f));
      det.score = objectness;

      // Clamp boxes that extend past the image border (cells at the
      // edges with large predicted sizes).
      const bool out_x = p.u->Cond(
          p.d_clamp, 0,
          det.x - det.w / 2 < 0.0f ||
              det.x + det.w / 2 > static_cast<float>(config.input_w));
      const bool out_y = p.u->Cond(
          p.d_clamp, 1,
          det.y - det.h / 2 < 0.0f ||
              det.y + det.h / 2 > static_cast<float>(config.input_h));
      if (p.u->Dec(p.d_clamp, out_x || out_y)) {
        p.u->Stmt(DecProbes::kSClampApplied);
        const float x0 = std::max(0.0f, det.x - det.w / 2);
        const float y0 = std::max(0.0f, det.y - det.h / 2);
        const float x1 = std::min(static_cast<float>(config.input_w),
                                  det.x + det.w / 2);
        const float y1 = std::min(static_cast<float>(config.input_h),
                                  det.y + det.h / 2);
        det.x = (x0 + x1) / 2;
        det.y = (y0 + y1) / 2;
        det.w = x1 - x0;
        det.h = y1 - y0;
      }

      // Arg-max over class scores. With num_classes == 1 the loop body
      // is dead and d_class_better is never evaluated — the MC/DC
      // boundary case tests/nn/detection_property_test.cpp pins down.
      int best_cls = 0;
      float best_score = head.At(n, 5, gy, gx);
      for (int c = 1; c < config.num_classes; ++c) {
        const float s = head.At(n, 5 + c, gy, gx);
        if (p.u->Branch(p.d_class_better, s > best_score)) {
          p.u->Stmt(DecProbes::kSClassUpdate);
          best_score = s;
          best_cls = c;
        }
      }
      det.cls = best_cls;
      out->push_back(det);
    }
  }
}

}  // namespace

std::vector<Detection> DecodeDetections(const Tensor& head,
                                        const DetectorConfig& config) {
  std::vector<Detection> out;
  DecodeDetectionsInto(head, config, &out);
  return out;
}

void DecodeDetectionsInto(const Tensor& head, const DetectorConfig& config,
                          std::vector<Detection>* out) {
  CERTKIT_CHECK_MSG(head.c() == 5 + config.num_classes,
                    "head channel count must be 5 + classes");
  out->clear();
  for (int n = 0; n < head.n(); ++n) DecodeImage(head, config, n, out);
}

void DecodeDetectionsBatchInto(const Tensor& head,
                               const DetectorConfig& config,
                               std::vector<std::vector<Detection>>* out) {
  CERTKIT_CHECK_MSG(head.c() == 5 + config.num_classes,
                    "head channel count must be 5 + classes");
  out->resize(static_cast<std::size_t>(head.n()));
  for (int n = 0; n < head.n(); ++n) {
    auto& slot = (*out)[static_cast<std::size_t>(n)];
    slot.clear();
    DecodeImage(head, config, n, &slot);
  }
}

}  // namespace nn
