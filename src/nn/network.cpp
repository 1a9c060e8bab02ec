// Sequential network container and the TinyYolo detector assembly.
#include <cstring>

#include "coverage/coverage.h"
#include "nn/detector.h"
#include "obs/trace.h"

namespace nn {

namespace {
struct NetProbes {
  certkit::cov::Unit* u;
  int d_empty;
  enum : int { kSForwardLayer = 0, kSEmptyNetwork, kSDetect, kSCount };
};
NetProbes& P() {
  static NetProbes p = [] {
    NetProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/network.cc");
    q.u->DeclareStatements(NetProbes::kSCount);
    q.d_empty = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}
}  // namespace

void Network::Add(std::unique_ptr<Layer> layer) {
  CERTKIT_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
}

Tensor Network::Forward(const Tensor& input) {
  Tensor out;
  ForwardInto(input, &out);
  return out;
}

void Network::ForwardInto(const Tensor& input, Tensor* out) {
  NetProbes& p = P();
  CERTKIT_CHECK(out != nullptr && out != &input);
  if (p.u->Branch(p.d_empty, layers_.empty())) {
    // Degenerate configuration: identity. Never reached by a real detector.
    p.u->Stmt(NetProbes::kSEmptyNetwork);
    *out = input;
    return;
  }
  // Layers ping-pong between the two scratch activations; the final layer
  // writes straight into the caller's buffer. Every hop reuses capacity, so
  // a warm network allocates nothing.
  const Tensor* cur = &input;
  const std::size_t last = layers_.size() - 1;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    p.u->Stmt(NetProbes::kSForwardLayer);
    Tensor* dst = (i == last) ? out : &scratch_[i % 2];
    layers_[i]->ForwardInto(*cur, dst);
    cur = dst;
  }
}

TinyYoloDetector::TinyYoloDetector(const DetectorConfig& config)
    : config_(config) {
  CERTKIT_CHECK(config.input_h % 16 == 0 && config.input_w % 16 == 0);
  const Backend be = config.backend;
  auto conv = [&](int in_c, int out_c, int k, int stride, int pad) {
    const std::size_t wn =
        static_cast<std::size_t>(out_c) * in_c * k * k;
    network_.Add(std::make_unique<ConvLayer>(
        in_c, out_c, k, stride, pad, std::vector<float>(wn, 0.0f),
        std::vector<float>(static_cast<std::size_t>(out_c), 0.0f), be));
  };
  auto bn = [&](int channels) {
    network_.Add(std::make_unique<BatchNormLayer>(
        std::vector<float>(static_cast<std::size_t>(channels), 1.0f),
        std::vector<float>(static_cast<std::size_t>(channels), 0.0f)));
  };
  auto leaky = [&] {
    network_.Add(
        std::make_unique<ActivationLayer>(Activation::kLeakyRelu, 0.1f));
  };
  auto pool = [&] { network_.Add(std::make_unique<MaxPoolLayer>(2, 2)); };

  // Backbone: 64 -> 32 -> 16 -> 8, then upsample to a 16x16 detection grid.
  conv(3, 8, 3, 1, 1);
  bn(8);
  leaky();
  pool();
  conv(8, 16, 3, 1, 1);
  bn(16);
  leaky();
  pool();
  conv(16, 32, 3, 1, 1);
  bn(32);
  leaky();
  pool();
  conv(32, 32, 3, 1, 1);
  bn(32);
  leaky();
  network_.Add(std::make_unique<UpsampleLayer>(2));
  // Head: 1x1 conv to [tx, ty, tw, th, obj, classes...] with a linear
  // activation (the decoder applies its own sigmoids).
  conv(32, 5 + config.num_classes, 1, 1, 0);
  network_.Add(std::make_unique<ActivationLayer>(Activation::kLinear));
}

std::vector<Detection> TinyYoloDetector::Detect(const Tensor& frame) {
  std::vector<Detection> out;
  DetectInto(frame, &out);
  return out;
}

void TinyYoloDetector::DetectInto(const Tensor& frame,
                                  std::vector<Detection>* out) {
  NetProbes& p = P();
  p.u->Stmt(NetProbes::kSDetect);
  PreprocessInto(frame, config_.input_h, config_.input_w, &input_scratch_);
  network_.ForwardInto(input_scratch_, &head_scratch_);
  DecodeDetectionsInto(head_scratch_, config_, out);
  NmsInPlace(out, config_.nms_iou_threshold);
}

std::vector<std::vector<Detection>> TinyYoloDetector::DetectBatch(
    const std::vector<Tensor>& frames, certkit::support::ThreadPool* pool) {
  std::vector<std::vector<Detection>> out;
  DetectBatchInto(frames, &out, pool);
  return out;
}

void TinyYoloDetector::DetectBatchInto(
    const std::vector<Tensor>& frames,
    std::vector<std::vector<Detection>>* out,
    certkit::support::ThreadPool* pool) {
  NetProbes& p = P();
  // No out->clear() here: clearing would destroy the inner vectors and
  // forfeit their capacity every call. DecodeDetectionsBatchInto resizes
  // the outer vector and clears each slot in place.
  if (frames.empty()) {
    out->clear();
    return;
  }
  p.u->Stmt(NetProbes::kSDetect);
  const std::size_t count = frames.size();
  // Host-side per-frame stages go through here: pool workers when a pool is
  // given, a plain loop otherwise. Result slot i always belongs to frame i,
  // so scheduling cannot reorder outputs. Neither path allocates.
  const auto shard = [&](auto&& fn) {
    if (pool != nullptr) {
      pool->ParallelFor(count, fn);
    } else {
      for (std::size_t i = 0; i < count; ++i) fn(i);
    }
  };

  inputs_scratch_.resize(count);
  std::vector<Tensor>& inputs = inputs_scratch_;
  {
    certkit::obs::Span span("batch_preprocess", "nn");
    shard([&](std::size_t i) {
      CERTKIT_CHECK_MSG(frames[i].n() == 1,
                        "DetectBatch frames must be single-image tensors");
      PreprocessInto(frames[i], config_.input_h, config_.input_w, &inputs[i]);
    });
  }

  batch_scratch_.Reshape(static_cast<int>(count), inputs[0].c(),
                         config_.input_h, config_.input_w);
  Tensor& batch = batch_scratch_;
  {
    certkit::obs::Span span("batch_stack", "nn");
    const std::size_t plane = inputs[0].size();
    shard([&](std::size_t i) {
      CERTKIT_CHECK(inputs[i].size() == plane);
      std::memcpy(batch.data() + i * plane, inputs[i].data(),
                  plane * sizeof(float));
    });
  }

  {
    certkit::obs::Span span("batch_forward", "nn");
    network_.ForwardInto(batch, &head_scratch_);
  }

  {
    certkit::obs::Span span("batch_decode", "nn");
    DecodeDetectionsBatchInto(head_scratch_, config_, out);
  }

  {
    certkit::obs::Span span("batch_nms", "nn");
    shard([&](std::size_t i) {
      NmsInPlace(&(*out)[i], config_.nms_iou_threshold);
    });
  }
}

}  // namespace nn
