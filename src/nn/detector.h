// nn: the YOLO-style single-shot detector (the paper's object-detection
// subject, §2 and §3.2).
#ifndef NN_DETECTOR_H_
#define NN_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/tensor.h"
#include "support/thread_pool.h"

namespace nn {

struct Detection {
  float x = 0.0f;  // center, pixels in network-input space
  float y = 0.0f;
  float w = 0.0f;
  float h = 0.0f;
  float score = 0.0f;
  int cls = 0;
};

struct DetectorConfig {
  int input_h = 64;
  int input_w = 64;
  int num_classes = 2;
  float score_threshold = 0.5f;
  float nms_iou_threshold = 0.45f;
  Backend backend = Backend::kClosedSim;
};

// Sequential network container.
class Network {
 public:
  void Add(std::unique_ptr<Layer> layer);
  Tensor Forward(const Tensor& input);
  // Capacity-reusing forward: layers ping-pong between two member scratch
  // tensors and the last layer writes straight into *out, so a warm network
  // never allocates. `out` must not alias `input`. Bit-identical to
  // Forward (same layer math, same probe sequence).
  void ForwardInto(const Tensor& input, Tensor* out);
  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  Tensor scratch_[2];  // ping-pong activation buffers, warm after one call
};

// Decodes the head tensor (grid of [5 + classes] channels) into detections
// above the threshold. Channels per cell: tx, ty, tw, th, objectness,
// class scores.
std::vector<Detection> DecodeDetections(const Tensor& head,
                                        const DetectorConfig& config);
// Capacity-reusing variant: clears and refills *out.
void DecodeDetectionsInto(const Tensor& head, const DetectorConfig& config,
                          std::vector<Detection>* out);
// Same decode, but an N-batch head yields one detection list per image
// (slot n holds image n's detections, bit-identical to decoding image n
// alone). Resizes *out to N slots and clears and refills each one.
void DecodeDetectionsBatchInto(const Tensor& head,
                               const DetectorConfig& config,
                               std::vector<std::vector<Detection>>* out);

// Greedy IoU-based non-maximum suppression (class-aware).
std::vector<Detection> Nms(std::vector<Detection> detections,
                           float iou_threshold);
// In-place NMS: sorts and compacts *detections without allocating (the
// suppression flags live in thread_local scratch, so concurrent callers —
// e.g. DetectBatch pool workers — each get their own). Bit-identical
// results and probe sequence to Nms.
void NmsInPlace(std::vector<Detection>* detections, float iou_threshold);
// Intersection-over-union of two center-format boxes.
float Iou(const Detection& a, const Detection& b);

// The detector: preprocess -> backbone -> head -> decode -> NMS.
class TinyYoloDetector {
 public:
  explicit TinyYoloDetector(const DetectorConfig& config);

  // Runs detection on a raw frame (any size; values 0..255).
  std::vector<Detection> Detect(const Tensor& frame);

  // Allocation-free variant of Detect: all intermediates live in member
  // scratch buffers and *out is cleared and refilled reusing its capacity.
  // One warm-up call sizes everything; steady-state calls never touch the
  // heap. Not safe for concurrent calls on the same detector (use one
  // detector per thread, as the pipeline does).
  void DetectInto(const Tensor& frame, std::vector<Detection>* out);

  // Batched inference: preprocesses every frame (frames may differ in
  // size), stacks them into one N-batch tensor, runs a single forward pass
  // — the open-sim backend fuses the batch into one wide GEMM per conv, so
  // an N-batch costs the same number of device launches as one frame —
  // and decodes per image. Slot i of the result is bit-identical to
  // Detect(frames[i]) for every backend, any batch size, and any `pool`.
  //
  // `pool` (optional) shards the per-frame preprocess/stack/decode stages
  // across its workers. Pass nullptr to run inline on the calling thread —
  // required wherever per-thread attribution matters (cov::ThreadCapture /
  // obs::SpanCapture, e.g. campaign candidate evaluation), since probes
  // fired on pool workers land outside the caller's capture.
  std::vector<std::vector<Detection>> DetectBatch(
      const std::vector<Tensor>& frames,
      certkit::support::ThreadPool* pool = nullptr);

  // Allocation-free variant of DetectBatch (same contract); per-frame
  // stages may still run on `pool` workers — the member scratch slots they
  // touch are disjoint per frame.
  void DetectBatchInto(const std::vector<Tensor>& frames,
                       std::vector<std::vector<Detection>>* out,
                       certkit::support::ThreadPool* pool = nullptr);

  const DetectorConfig& config() const { return config_; }
  Network& network() { return network_; }

 private:
  DetectorConfig config_;
  Network network_;
  // Reused inference buffers (warm after the first call).
  Tensor input_scratch_;
  Tensor head_scratch_;
  Tensor batch_scratch_;
  std::vector<Tensor> inputs_scratch_;
};

// Weight constructors.
// Random (He-style) weights — used by the performance benchmarks, where
// values are irrelevant.
void InitRandomWeights(TinyYoloDetector* detector, std::uint64_t seed);
// Handcrafted "blob detector" weights: convolutions average brightness and
// the head maps bright regions to confident cell-sized detections. This
// makes the untrained network a *working* detector for the synthetic camera
// frames of the AD pipeline.
void InitBlobDetectorWeights(TinyYoloDetector* detector);

// Switches the detector to int8 inference: every ConvLayer's weights are
// snapped to a symmetric per-tensor int8 grid and input quantization is
// enabled on each conv, which then runs the true int8 path (int8 im2col +
// int32 micro-GEMM + per-layer-scale dequantize; see
// ConvLayer::SetInputQuantization). Deterministic and idempotent. Call
// after the weight constructors above; used as the quantized-vs-fp32 diff
// point of the replay differential oracle.
void QuantizeDetectorWeights(TinyYoloDetector* detector);

// Validated weight blob loading (versioned header + checksum), exercising
// the error paths a deployed loader needs.
struct WeightsBlob {
  std::vector<float> values;
};
bool SerializeWeights(const std::vector<float>& values, std::string* out);
bool DeserializeWeights(const std::string& buffer, WeightsBlob* out,
                        std::string* error);

}  // namespace nn

#endif  // NN_DETECTOR_H_
