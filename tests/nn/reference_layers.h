// The per-element probed loops of activation, max-pool, NMS and the
// preprocessor, kept as an executable specification of what the
// loop-granular production loops must record. Each fires every probe per
// element, through cov::Unit, into a "reference/<file>" unit declared with
// the production unit's layout ("yolo/<file>"), so statement and decision
// ids line up and covers compare directly.
#ifndef CERTKIT_TESTS_NN_REFERENCE_LAYERS_H_
#define CERTKIT_TESTS_NN_REFERENCE_LAYERS_H_

#include <vector>

#include "nn/detector.h"
#include "nn/layers.h"

namespace nn::reference {

void Activate(Activation kind, float leaky_slope, const Tensor& input,
              Tensor* out);
void MaxPool(int size, int stride, const Tensor& input, Tensor* out);
void NmsInPlace(std::vector<Detection>* detections, float iou_threshold);
void Preprocess(const Tensor& frame, int target_h, int target_w, Tensor* out);

}  // namespace nn::reference

#endif  // CERTKIT_TESTS_NN_REFERENCE_LAYERS_H_
