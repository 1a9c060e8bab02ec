// Loop-granular probes against the per-element reference loops
// (reference_layers.*). Over seeded random inputs, each production loop
// must write bit-identical outputs with probes off (the NullProbe
// instantiation) and on (LoopProbe), and its probed ThreadCapture cover
// must equal the reference's fact for fact: the same statements, decision
// outcomes and (mask, outcome) vectors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "coverage/coverage.h"
#include "nn/detector.h"
#include "nn/layers.h"
#include "reference_layers.h"
#include "support/rng.h"

namespace certkit::cov {
void PrintTo(const UnitCover& cover, std::ostream* os) {
  *os << "stmts {";
  for (const int s : cover.stmts) *os << " " << s;
  *os << " } decisions {";
  for (const auto& [id, dec] : cover.decisions) {
    *os << " " << id << ":" << (dec.seen_true ? "T" : "")
        << (dec.seen_false ? "F" : "") << "[";
    for (const auto& [mask, outcome] : dec.vectors) {
      *os << " " << mask << (outcome ? "T" : "F");
    }
    *os << " ]";
  }
  *os << " }";
}
}  // namespace certkit::cov

namespace nn {
namespace {

using certkit::cov::CoverSet;
using certkit::cov::ThreadCapture;
using certkit::cov::UnitCover;
using certkit::support::Xoshiro256;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

class ProbesOff {
 public:
  ProbesOff() { certkit::cov::SetProbesEnabled(false); }
  ~ProbesOff() { certkit::cov::SetProbesEnabled(true); }
  ProbesOff(const ProbesOff&) = delete;
  ProbesOff& operator=(const ProbesOff&) = delete;
};

bool Same(const Tensor& a, const Tensor& b) {
  return a.n() == b.n() && a.c() == b.c() && a.h() == b.h() &&
         a.w() == b.w() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameFloat(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

bool Same(const std::vector<Detection>& a, const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameFloat(a[i].x, b[i].x) || !SameFloat(a[i].y, b[i].y) ||
        !SameFloat(a[i].w, b[i].w) || !SameFloat(a[i].h, b[i].h) ||
        !SameFloat(a[i].score, b[i].score) || a[i].cls != b[i].cls) {
      return false;
    }
  }
  return true;
}

UnitCover CoverOf(const CoverSet& covers, const std::string& unit) {
  const auto it = covers.find(unit);
  return it == covers.end() ? UnitCover{} : it->second;
}

// Runs `production` with probes off, then on, and `reference` (probes on),
// each under its own capture; `file` names the units ("yolo/<file>" and
// "reference/<file>").
template <class Production, class Reference>
void ExpectEquivalent(const std::string& file, Production production,
                      Reference reference) {
  decltype(production()) release;
  {
    ProbesOff off;
    ThreadCapture capture;
    release = production();
    EXPECT_TRUE(capture.Take().empty()) << "probes off, yet facts fired";
  }
  ThreadCapture capture;
  const auto probed = production();
  const CoverSet probed_cover = capture.Take();
  const auto expected = reference();
  const CoverSet expected_cover = capture.Take();
  EXPECT_TRUE(Same(release, expected)) << "probes-off output differs";
  EXPECT_TRUE(Same(probed, expected)) << "probed output differs";
  EXPECT_EQ(CoverOf(probed_cover, "yolo/" + file),
            CoverOf(expected_cover, "reference/" + file));
  for (const auto& [unit, cover] : probed_cover) {
    EXPECT_EQ(unit, "yolo/" + file) << "facts fired into another unit";
  }
}

// Uniform values in [-3, 3), with NaN, +inf, -inf, -0 and 0 sprinkled in
// at `special_rate`.
Tensor RandomTensor(Xoshiro256* rng, int n, int c, int h, int w,
                    double special_rate) {
  static const float kSpecials[] = {kNaN, kInf, -kInf, -0.0f, 0.0f};
  Tensor t(n, c, h, w);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (rng->Bernoulli(special_rate)) {
      t.data()[i] = kSpecials[rng->UniformInt(0, 4)];
    } else {
      t.data()[i] = static_cast<float>(rng->UniformDouble(-3.0, 3.0));
    }
  }
  return t;
}

void CheckActivation(Activation kind, const Tensor& input) {
  ActivationLayer layer(kind, 0.1f);
  ExpectEquivalent(
      "activation.cc",
      [&] {
        Tensor out;
        layer.ForwardInto(input, &out);
        return out;
      },
      [&] {
        Tensor out;
        reference::Activate(kind, 0.1f, input, &out);
        return out;
      });
}

TEST(LoopProbeEquivalenceTest, Activation) {
  Xoshiro256 rng(2101);
  for (const Activation kind :
       {Activation::kLinear, Activation::kRelu, Activation::kLeakyRelu}) {
    SCOPED_TRACE(static_cast<int>(kind));
    for (int trial = 0; trial < 8; ++trial) {
      CheckActivation(kind, RandomTensor(&rng, 1 + trial % 2, 3, 5 + trial,
                                         7, trial % 2 == 0 ? 0.1 : 0.0));
    }
    Tensor specials(1, 1, 1, 5);
    const float kValues[] = {kNaN, kInf, -kInf, -0.0f, 0.0f};
    std::memcpy(specials.data(), kValues, sizeof(kValues));
    CheckActivation(kind, specials);
    Tensor negative = RandomTensor(&rng, 1, 2, 4, 4, 0.0);
    Tensor positive = negative;
    for (std::size_t i = 0; i < negative.size(); ++i) {
      negative.data()[i] = -std::fabs(negative.data()[i]) - 0.5f;
      positive.data()[i] = std::fabs(positive.data()[i]) + 0.5f;
    }
    CheckActivation(kind, negative);
    CheckActivation(kind, positive);
  }
}

TEST(LoopProbeEquivalenceTest, MaxPool) {
  struct Shape {
    int n, c, h, w, size, stride;
  };
  const Shape kShapes[] = {
      {1, 3, 8, 8, 2, 2},   {2, 2, 6, 10, 2, 2},  // even: the 2x2 fast path
      {1, 2, 7, 7, 2, 2},   {1, 1, 9, 6, 2, 2},   // ragged
      {1, 2, 6, 6, 3, 1},   {1, 1, 5, 4, 2, 1},   // stride != size
      {1, 2, 9, 7, 3, 2},   {1, 1, 4, 4, 4, 4},
  };
  Xoshiro256 rng(2102);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(testing::Message() << s.h << "x" << s.w << " size "
                                    << s.size << " stride " << s.stride);
    for (const double special_rate : {0.0, 0.15, 1.0}) {
      const Tensor input =
          RandomTensor(&rng, s.n, s.c, s.h, s.w, special_rate);
      MaxPoolLayer layer(s.size, s.stride);
      ExpectEquivalent(
          "pooling.cc",
          [&] {
            Tensor out;
            layer.ForwardInto(input, &out);
            return out;
          },
          [&] {
            Tensor out;
            reference::MaxPool(s.size, s.stride, input, &out);
            return out;
          });
    }
  }
}

std::vector<Detection> RandomBoxes(Xoshiro256* rng, int count,
                                   int classes) {
  std::vector<Detection> boxes;
  for (int i = 0; i < count; ++i) {
    Detection d;
    // Clustered centres so that many pairs overlap and get suppressed.
    d.x = static_cast<float>(16 * rng->UniformInt(0, 3) +
                             rng->UniformDouble(0.0, 12.0));
    d.y = static_cast<float>(16 * rng->UniformInt(0, 3) +
                             rng->UniformDouble(0.0, 12.0));
    d.w = static_cast<float>(rng->UniformDouble(1.0, 20.0));
    d.h = static_cast<float>(rng->UniformDouble(1.0, 20.0));
    // Coarse scores, so equal scores (the positional tie-break) occur.
    d.score = static_cast<float>(rng->UniformInt(1, 8)) / 8.0f;
    d.cls = static_cast<int>(rng->UniformInt(0, classes - 1));
    boxes.push_back(d);
  }
  return boxes;
}

TEST(LoopProbeEquivalenceTest, Nms) {
  Xoshiro256 rng(2103);
  for (const int count : {0, 1, 2, 7, 40}) {
    for (const int classes : {1, 3}) {
      for (int trial = 0; trial < 4; ++trial) {
        SCOPED_TRACE(testing::Message() << count << " boxes, " << classes
                                        << " classes, trial " << trial);
        const std::vector<Detection> boxes =
            RandomBoxes(&rng, count, classes);
        ExpectEquivalent(
            "nms.cc",
            [&] {
              std::vector<Detection> d = boxes;
              NmsInPlace(&d, 0.45f);
              return d;
            },
            [&] {
              std::vector<Detection> d = boxes;
              reference::NmsInPlace(&d, 0.45f);
              return d;
            });
      }
    }
  }
}

TEST(LoopProbeEquivalenceTest, Preprocess) {
  struct Shape {
    int h, w, target_h, target_w;
  };
  const Shape kShapes[] = {
      {24, 48, 32, 32},  // wide: letterbox bars above and below
      {48, 20, 32, 32},  // tall: bars left and right
      {30, 64, 48, 40},  // wide into a non-square target
      {64, 64, 32, 32},  // same aspect: plain resize
      {32, 32, 32, 32},  // same size: normalize only
  };
  Xoshiro256 rng(2104);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(testing::Message() << s.h << "x" << s.w << " -> "
                                    << s.target_h << "x" << s.target_w);
    Tensor frame(1, 3, s.h, s.w);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame.data()[i] = static_cast<float>(rng.UniformInt(0, 255));
    }
    ExpectEquivalent(
        "preprocess.cc",
        [&] {
          Tensor out;
          PreprocessInto(frame, s.target_h, s.target_w, &out);
          return out;
        },
        [&] {
          Tensor out;
          reference::Preprocess(frame, s.target_h, s.target_w, &out);
          return out;
        });
  }
}

}  // namespace
}  // namespace nn
