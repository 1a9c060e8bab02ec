// Exhaustive small-shape GEMM differencing.
//
// Every fp32 GEMM variant in the tree — the textbook cpublas reference, the
// cublas_sim 2×2 register-blocked tile (whose odd-m/odd-n remainder rows had
// no dedicated coverage) and every cutlass_sim tile instantiation — must be
// BIT-IDENTICAL on every shape with m, n, k in [1, 9]. Every int8 pair
// microkernel instance the host runs must be exact on the same shapes and
// on every vector fringe and long odd K, over a dense offset table and over
// overlapping windows of one pool.
//
// The contract that makes bit-for-bit (not epsilon) the right check: every
// fp32 implementation accumulates each output element as the same K-ordered
// mul-then-add sequence; register tiling spans M and N only. Stream digests
// show any FP reassociation, so this test pins the absence of reassociation
// at the kernel layer, including all tail paths (tile remainders).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "kernels/gemm.h"
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

void ExpectBitIdentical(const std::vector<float>& got,
                        const std::vector<float>& ref, GemmShape s,
                        const char* variant) {
  ASSERT_EQ(got.size(), ref.size());
  EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                           ref.size() * sizeof(float)))
      << variant << " diverges at m=" << s.m << " n=" << s.n << " k=" << s.k;
}

TEST(GemmExhaustiveProperty, AllVariantsBitIdenticalOnSmallShapes) {
  for (int m = 1; m <= 9; ++m) {
    for (int n = 1; n <= 9; ++n) {
      for (int k = 1; k <= 9; ++k) {
        const GemmShape s{m, n, k};
        const std::uint64_t seed =
            static_cast<std::uint64_t>((m * 100 + n * 10 + k));
        const auto a = RandomVec(static_cast<std::size_t>(m) * k, seed);
        const auto b = RandomVec(static_cast<std::size_t>(k) * n, seed + 7);
        std::vector<float> ref(static_cast<std::size_t>(m) * n);
        cpublas::Sgemm(a.data(), b.data(), ref.data(), s);

        std::vector<float> out(ref.size());

        cublas_sim::Sgemm(a.data(), b.data(), out.data(), s);
        ExpectBitIdentical(out, ref, s, "cublas_sim (64x64 tail paths)");

        cutlass_sim::Sgemm<>(a.data(), b.data(), out.data(), s);
        ExpectBitIdentical(out, ref, s, "cutlass_sim<64,64>");
        cutlass_sim::Sgemm<2, 2>(a.data(), b.data(), out.data(), s);
        ExpectBitIdentical(out, ref, s, "cutlass_sim<2,2>");
        cutlass_sim::Sgemm<3, 5>(a.data(), b.data(), out.data(), s);
        ExpectBitIdentical(out, ref, s, "cutlass_sim<3,5>");
      }
    }
  }
}

// The int8 pair microkernel, every instance the host's cpuid allows over a
// dense offset table, and the GemmS16S32DotT adapter over it, against a
// scalar int32 reference.
// Operands span the whole int8 grid [-127, 127].
class Int8Case {
 public:
  Int8Case(GemmShape s, std::uint64_t seed, bool extremes) : s_(s) {
    Xoshiro256 rng(seed);
    const auto draw = [&] {
      if (extremes) {
        return static_cast<std::int16_t>(rng.UniformInt(0, 1) ? 127 : -127);
      }
      return static_cast<std::int16_t>(rng.UniformInt(-127, 127));
    };
    a_.resize(static_cast<std::size_t>(s.m) * s.k);
    b_.resize(static_cast<std::size_t>(s.k) * s.n);
    for (auto& x : a_) x = draw();
    for (auto& x : b_) x = draw();
    ref_.assign(static_cast<std::size_t>(s.m) * s.n, 0);
    for (int i = 0; i < s.m; ++i) {
      for (int j = 0; j < s.n; ++j) {
        std::int32_t acc = 0;
        for (int kk = 0; kk < s.k; ++kk) acc += A(i, kk) * B(kk, j);
        ref_[static_cast<std::size_t>(i) * s.n + j] = acc;
      }
    }
  }

  // Checks one pair instance over a dense B (rows[p] = p·N): exact output,
  // and nothing written past C.
  void CheckPairKernel(const micro::PairKernel& kernel) const {
    const int pairs = (s_.k + 1) / 2;
    std::vector<std::int32_t> ap(static_cast<std::size_t>(s_.m) * pairs);
    std::vector<std::int32_t> bp(static_cast<std::size_t>(pairs) * s_.n);
    std::vector<std::size_t> rows(pairs);
    for (int i = 0; i < s_.m; ++i) {
      for (int p = 0; p < pairs; ++p) {
        ap[static_cast<std::size_t>(i) * pairs + p] =
            micro::PackPair(A(i, 2 * p), A(i, 2 * p + 1));
      }
    }
    for (int p = 0; p < pairs; ++p) {
      rows[p] = static_cast<std::size_t>(p) * s_.n;
      for (int j = 0; j < s_.n; ++j) {
        bp[rows[p] + j] = micro::PackPair(B(2 * p, j), B(2 * p + 1, j));
      }
    }
    std::vector<std::int32_t> out(ref_.size() + kGuard, kSentinel);
    kernel.gemm_rows(ap.data(), bp.data(), rows.data(), out.data(), s_);
    Expect(out, kernel.isa);
  }

  void CheckDotTAdapter() const {
    std::vector<std::int16_t> bt(b_.size());
    for (int kk = 0; kk < s_.k; ++kk) {
      for (int j = 0; j < s_.n; ++j) {
        bt[static_cast<std::size_t>(j) * s_.k + kk] = B(kk, j);
      }
    }
    std::vector<std::int32_t> out(ref_.size() + kGuard, kSentinel);
    micro::GemmS16S32DotT(a_.data(), bt.data(), out.data(), s_);
    Expect(out, "GemmS16S32DotT");
  }

 private:
  static constexpr std::size_t kGuard = 64;
  static constexpr std::int32_t kSentinel = 0x5a5a5a5a;

  // Out-of-range K indices read as 0: the odd-K pad.
  std::int16_t A(int i, int kk) const {
    return kk < s_.k ? a_[static_cast<std::size_t>(i) * s_.k + kk] : 0;
  }
  std::int16_t B(int kk, int j) const {
    return kk < s_.k ? b_[static_cast<std::size_t>(kk) * s_.n + j] : 0;
  }

  void Expect(const std::vector<std::int32_t>& out, const char* what) const {
    const std::vector<std::int32_t> head(out.begin(),
                                         out.begin() + ref_.size());
    ASSERT_EQ(head, ref_) << what << " m=" << s_.m << " n=" << s_.n
                          << " k=" << s_.k;
    for (std::size_t g = ref_.size(); g < out.size(); ++g) {
      ASSERT_EQ(out[g], kSentinel) << what << " wrote past C";
    }
  }

  GemmShape s_;
  std::vector<std::int16_t> a_, b_;
  std::vector<std::int32_t> ref_;
};

void CheckAllInt8Kernels(GemmShape s, bool extremes) {
  const Int8Case c(
      s, static_cast<std::uint64_t>(s.m * 100003 + s.n * 331 + s.k),
      extremes);
  for (const micro::PairKernel& kernel : micro::SupportedPairKernels()) {
    c.CheckPairKernel(kernel);
  }
  c.CheckDotTAdapter();
}

// m up to 9 hits every row fringe of an 8-row tile; n up to 70 passes two
// full 2-vector panels of the widest instance (32 int32 lanes) plus every
// one-vector and lane-masked fringe of each width.
TEST(GemmExhaustiveProperty, Int8KernelExactOnSmallShapes) {
  for (int m = 1; m <= 9; ++m) {
    for (int n = 1; n <= 70; ++n) {
      for (int k = 1; k <= 9; ++k) CheckAllInt8Kernels({m, n, k}, false);
    }
  }
}

// Odd K up to 289 (the detector's deepest conv is K = 288) with operands
// all at ±127: the largest accumulators, and a zero high half in the last
// pair.
TEST(GemmExhaustiveProperty, Int8KernelExactOnLongOddK) {
  for (int k = 1; k <= 289; k += 2) {
    CheckAllInt8Kernels({9, 37, k}, true);
    CheckAllInt8Kernels({3, 70, k}, false);
  }
}

// The offset-table entry of every instance: B's rows are windows of one
// pool of pairs, overlapping and out of order, one of them ending exactly
// at the pool's end (the conv path reads its quantized planes this way),
// against a scalar int32 reference.
TEST(GemmExhaustiveProperty, Int8KernelReadsRowsThroughOffsetTable) {
  Xoshiro256 rng(31);
  const auto half = [](std::int32_t pair, int shift) {
    return static_cast<std::int16_t>(static_cast<std::uint32_t>(pair) >>
                                     shift);
  };
  for (int m = 1; m <= 9; ++m) {
    for (int n = 1; n <= 70; n += 3) {
      for (int pairs = 1; pairs <= 5; ++pairs) {
        const std::size_t pool_size = n + 2 * pairs + 7;
        const auto draw = [&] {
          return micro::PackPair(
              static_cast<std::int16_t>(rng.UniformInt(-127, 127)),
              static_cast<std::int16_t>(rng.UniformInt(-127, 127)));
        };
        std::vector<std::int32_t> pool(pool_size), a(m * pairs);
        for (auto& x : pool) x = draw();
        for (auto& x : a) x = draw();
        std::vector<std::size_t> rows(pairs);
        for (int p = 0; p < pairs; ++p) {
          rows[p] = p == pairs / 2
                        ? pool_size - n
                        : static_cast<std::size_t>(
                              rng.UniformInt(0, pool_size - n));
        }
        std::vector<std::int32_t> ref(m * n, 0);
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            for (int p = 0; p < pairs; ++p) {
              const std::int32_t w = a[i * pairs + p];
              const std::int32_t x = pool[rows[p] + j];
              ref[i * n + j] +=
                  half(w, 0) * half(x, 0) + half(w, 16) * half(x, 16);
            }
          }
        }
        constexpr std::int32_t kSentinel = 0x5a5a5a5a;
        for (const micro::PairKernel& kernel : micro::SupportedPairKernels()) {
          std::vector<std::int32_t> out(ref.size() + 64, kSentinel);
          kernel.gemm_rows(a.data(), pool.data(), rows.data(), out.data(),
                           {m, n, 2 * pairs});
          const std::vector<std::int32_t> head(out.begin(),
                                               out.begin() + ref.size());
          ASSERT_EQ(head, ref) << kernel.isa << " m=" << m << " n=" << n
                               << " pairs=" << pairs;
          for (std::size_t g = ref.size(); g < out.size(); ++g) {
            ASSERT_EQ(out[g], kSentinel) << kernel.isa << " wrote past C";
          }
        }
      }
    }
  }
}

// The instance table comes from cpuid, narrowest first, SSE2 always.
TEST(GemmExhaustiveProperty, Int8InstancesFollowCpuid) {
  const auto kernels = micro::SupportedPairKernels();
  std::vector<std::string> isas;
  for (const micro::PairKernel& k : kernels) isas.push_back(k.isa);
  std::vector<std::string> expected = {"sse2"};
  if (__builtin_cpu_supports("avx2")) expected.push_back("avx2");
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw")) {
    expected.push_back("avx512bw");
    if (__builtin_cpu_supports("avx512vnni")) {
      expected.push_back("avx512vnni");
    }
  }
  EXPECT_EQ(isas, expected);
}

}  // namespace
}  // namespace kernels
