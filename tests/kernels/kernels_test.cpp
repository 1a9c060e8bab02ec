// Correctness tests for the GEMM, convolution, and stencil kernel libraries.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernels/conv.h"
#include "kernels/gemm.h"
#include "kernels/stencil.h"
#include "support/rng.h"

namespace kernels {
namespace {

using certkit::support::Xoshiro256;

std::vector<float> RandomVec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  return v;
}

void ExpectNear(const std::vector<float>& a, const std::vector<float>& b,
                float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

class GemmShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeSweep, CublasSimMatchesNaive) {
  const auto [m, n, k] = GetParam();
  GemmShape shape{m, n, k};
  auto a = RandomVec(static_cast<std::size_t>(m) * k, 1);
  auto b = RandomVec(static_cast<std::size_t>(k) * n, 2);
  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  std::vector<float> out(static_cast<std::size_t>(m) * n);
  cpublas::Sgemm(a.data(), b.data(), ref.data(), shape);
  cublas_sim::Sgemm(a.data(), b.data(), out.data(), shape);
  ExpectNear(out, ref, 1e-3f);
}

TEST_P(GemmShapeSweep, CutlassSimMatchesNaive) {
  const auto [m, n, k] = GetParam();
  GemmShape shape{m, n, k};
  auto a = RandomVec(static_cast<std::size_t>(m) * k, 3);
  auto b = RandomVec(static_cast<std::size_t>(k) * n, 4);
  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  std::vector<float> out(static_cast<std::size_t>(m) * n);
  cpublas::Sgemm(a.data(), b.data(), ref.data(), shape);
  cutlass_sim::Sgemm<>(a.data(), b.data(), out.data(), shape);
  ExpectNear(out, ref, 1e-3f);
}

TEST_P(GemmShapeSweep, CutlassAlternateTilesMatchNaive) {
  const auto [m, n, k] = GetParam();
  GemmShape shape{m, n, k};
  auto a = RandomVec(static_cast<std::size_t>(m) * k, 5);
  auto b = RandomVec(static_cast<std::size_t>(k) * n, 6);
  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  cpublas::Sgemm(a.data(), b.data(), ref.data(), shape);
  std::vector<float> out(static_cast<std::size_t>(m) * n);
  cutlass_sim::Sgemm<16, 128>(a.data(), b.data(), out.data(), shape);
  ExpectNear(out, ref, 1e-3f);
  cutlass_sim::Sgemm<128, 16>(a.data(), b.data(), out.data(), shape);
  ExpectNear(out, ref, 1e-3f);
  cutlass_sim::Sgemm<32, 32>(a.data(), b.data(), out.data(), shape);
  ExpectNear(out, ref, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(7, 5, 3),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 63, 31),
                      std::make_tuple(128, 32, 96),
                      std::make_tuple(33, 129, 65)));

struct ConvCase {
  ConvShape shape;
  const char* name;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, CudnnSimMatchesNaive) {
  const ConvShape s = GetParam().shape;
  auto in = RandomVec(s.InputSize(), 11);
  auto w = RandomVec(s.WeightSize(), 12);
  auto bias = RandomVec(static_cast<std::size_t>(s.out_channels), 13);
  std::vector<float> ref(s.OutputSize());
  std::vector<float> out(s.OutputSize());
  Conv2dNaive(in.data(), w.data(), bias.data(), ref.data(), s);
  cudnn_sim::Conv2d(in.data(), w.data(), bias.data(), out.data(), s);
  ExpectNear(out, ref, 1e-3f);
}

TEST_P(ConvSweep, IsaacSimMatchesNaive) {
  const ConvShape s = GetParam().shape;
  auto in = RandomVec(s.InputSize(), 14);
  auto w = RandomVec(s.WeightSize(), 15);
  auto bias = RandomVec(static_cast<std::size_t>(s.out_channels), 16);
  std::vector<float> ref(s.OutputSize());
  std::vector<float> out(s.OutputSize());
  Conv2dNaive(in.data(), w.data(), bias.data(), ref.data(), s);
  isaac_sim::Conv2d(in.data(), w.data(), bias.data(), out.data(), s);
  ExpectNear(out, ref, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Values(
        ConvCase{ConvShape{1, 1, 8, 8, 1, 3, 3, 1, 1}, "tiny"},
        ConvCase{ConvShape{1, 3, 16, 16, 8, 3, 3, 1, 1}, "rgb"},
        ConvCase{ConvShape{2, 4, 15, 17, 6, 3, 3, 1, 1}, "odd"},
        ConvCase{ConvShape{1, 8, 16, 16, 16, 3, 3, 2, 1}, "strided"},
        ConvCase{ConvShape{1, 4, 12, 12, 4, 1, 1, 1, 0}, "pointwise"},
        ConvCase{ConvShape{1, 2, 10, 10, 3, 5, 5, 1, 2}, "fivebyfive"}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return info.param.name;
    });

TEST(ConvTest, NoBiasIsZeroBias) {
  ConvShape s{1, 2, 8, 8, 3, 3, 3, 1, 1};
  auto in = RandomVec(s.InputSize(), 21);
  auto w = RandomVec(s.WeightSize(), 22);
  std::vector<float> zero_bias(static_cast<std::size_t>(s.out_channels),
                               0.0f);
  std::vector<float> with_null(s.OutputSize());
  std::vector<float> with_zero(s.OutputSize());
  cudnn_sim::Conv2d(in.data(), w.data(), nullptr, with_null.data(), s);
  cudnn_sim::Conv2d(in.data(), w.data(), zero_bias.data(), with_zero.data(),
                    s);
  ExpectNear(with_null, with_zero, 1e-6f);
}

// --- stencils ---

std::vector<float> NaiveStencil2D(const std::vector<float>& in, int h, int w,
                                  const stencil::StencilOptions& opt) {
  auto sample = [&](int y, int x) -> float {
    if (y >= 0 && y < h && x >= 0 && x < w) {
      return in[static_cast<std::size_t>(y) * w + x];
    }
    switch (opt.boundary) {
      case stencil::Boundary::kZero:
        return 0.0f;
      case stencil::Boundary::kPeriodic:
        return in[static_cast<std::size_t>(((y % h) + h) % h) * w +
                  (((x % w) + w) % w)];
      case stencil::Boundary::kReflect: {
        const int ry = y < 0 ? -y - 1 : (y >= h ? 2 * h - y - 1 : y);
        const int rx = x < 0 ? -x - 1 : (x >= w ? 2 * w - x - 1 : x);
        return in[static_cast<std::size_t>(ry) * w + rx];
      }
    }
    return 0.0f;
  };
  std::vector<float> out(in.size());
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      out[static_cast<std::size_t>(y) * w + x] =
          opt.center_weight * sample(y, x) +
          opt.neighbor_weight * (sample(y - 1, x) + sample(y + 1, x) +
                                 sample(y, x - 1) + sample(y, x + 1));
    }
  }
  return out;
}

class StencilBoundarySweep
    : public ::testing::TestWithParam<stencil::Boundary> {};

TEST_P(StencilBoundarySweep, Stencil2DMatchesNaive) {
  stencil::StencilOptions opt;
  opt.boundary = GetParam();
  const int h = 13, w = 17;
  auto in = RandomVec(static_cast<std::size_t>(h) * w, 41);
  std::vector<float> out(in.size());
  stencil::Stencil2D5Point(in.data(), out.data(), h, w, opt);
  auto ref = NaiveStencil2D(in, h, w, opt);
  ExpectNear(out, ref, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, StencilBoundarySweep,
                         ::testing::Values(stencil::Boundary::kZero,
                                           stencil::Boundary::kPeriodic,
                                           stencil::Boundary::kReflect));

TEST(StencilTest, Stencil3DConservesConstantFieldInterior) {
  // For a constant field and periodic boundary, out = (wc + 6*wn) * v
  // everywhere.
  stencil::StencilOptions opt;
  opt.boundary = stencil::Boundary::kPeriodic;
  const int d = 5, h = 6, w = 7;
  std::vector<float> in(static_cast<std::size_t>(d) * h * w, 2.0f);
  std::vector<float> out(in.size());
  stencil::Stencil3D7Point(in.data(), out.data(), d, h, w, opt);
  const float expected = (opt.center_weight + 6 * opt.neighbor_weight) * 2.0f;
  for (float v : out) ASSERT_NEAR(v, expected, 1e-5f);
}

TEST(StencilTest, CoverageAccumulates) {
  auto& unit = stencil::Stencil2DCoverage();
  unit.Reset();
  const int h = 8, w = 8;
  std::vector<float> in(64, 1.0f), out(64);
  stencil::StencilOptions opt;  // zero boundary only
  stencil::Stencil2D5Point(in.data(), out.data(), h, w, opt);
  // Statement coverage is partial: periodic/reflect statements never ran.
  EXPECT_GT(unit.StatementCoverage(), 0.0);
  EXPECT_LT(unit.StatementCoverage(), 1.0);
  // Running the other boundary modes raises coverage.
  opt.boundary = stencil::Boundary::kPeriodic;
  stencil::Stencil2D5Point(in.data(), out.data(), h, w, opt);
  opt.boundary = stencil::Boundary::kReflect;
  stencil::Stencil2D5Point(in.data(), out.data(), h, w, opt);
  EXPECT_DOUBLE_EQ(unit.StatementCoverage(), 1.0);
}

}  // namespace
}  // namespace kernels
