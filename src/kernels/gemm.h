// kernels: the fp32 GEMMs of Figures 7 and 8a, and the int8 GEMM the
// quantized conv path runs.
//
// Three fp32 stand-ins reproduce the paper's library comparison:
//  * cublas_sim  — the "closed-source vendor library": one fixed, hand-tuned
//    configuration (64×64 output tiles, one grid block per tile, a 2×2
//    register-blocked inner kernel), run by cutlass_sim's 64×64 instance.
//  * cutlass_sim — the "open-source template library": the same decomposition
//    expressed as composable C++ templates over tile sizes, so device-wide
//    GEMMs are constructed from primitives (CUTLASS's design), reaching
//    performance comparable to the vendor kernel.
//  * cpublas     — the "CPU BLAS two orders of magnitude slower" reference
//    point: a single-threaded naive triple loop.
// They operate on row-major float matrices, C[M,N] = A[M,K] * B[K,N], and
// accumulate every output element as the same K-ordered mul-then-add
// sequence, so all three are bit-identical (the gemm property test pins it).
//
// micro is the real-hardware CPU path: the int8 microkernel the quantized
// conv runs (K-paired int16 operands, int32 accumulators, B rows through an
// offset table, one SIMD template dispatched on cpuid).
#ifndef KERNELS_GEMM_H_
#define KERNELS_GEMM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "gpusim/gpusim.h"
#include "support/check.h"

namespace kernels {

struct GemmShape {
  int m = 0, n = 0, k = 0;
  bool operator==(const GemmShape&) const = default;
};

// Naive single-threaded CPU reference (also the correctness oracle).
namespace cpublas {
void Sgemm(const float* a, const float* b, float* c, GemmShape shape);
}  // namespace cpublas

// "Vendor library": the fixed 64×64 configuration of cutlass_sim::Sgemm.
namespace cublas_sim {
void Sgemm(const float* a, const float* b, float* c, GemmShape shape,
           gpusim::Device& device = gpusim::Device::Instance());
}  // namespace cublas_sim

// "Open template library": tile sizes are template parameters. A device-wide
// GEMM is composed from the block-level primitive, as in CUTLASS.
namespace cutlass_sim {

template <int kTileM, int kTileN>
struct TileGemm {
  static_assert(kTileM > 0 && kTileN > 0);

  // Computes the (bm, bn) output tile: a 2x2 register-blocked thread tile
  // inside the block tile, mirroring CUTLASS's threadblock/warp/thread
  // decomposition.
  static void ComputeTile(const float* a, const float* b, float* c,
                          GemmShape s, int bm, int bn) {
    const int m0 = bm * kTileM;
    const int n0 = bn * kTileN;
    const int m1 = m0 + kTileM < s.m ? m0 + kTileM : s.m;
    const int n1 = n0 + kTileN < s.n ? n0 + kTileN : s.n;

    int i = m0;
    for (; i + 2 <= m1; i += 2) {
      const float* a0 = a + static_cast<std::size_t>(i) * s.k;
      const float* a1 = a0 + s.k;
      float* c0 = c + static_cast<std::size_t>(i) * s.n;
      float* c1 = c0 + s.n;
      for (int j = n0; j < n1; ++j) {
        c0[j] = 0.0f;
        c1[j] = 0.0f;
      }
      for (int kk = 0; kk < s.k; ++kk) {
        const float av0 = a0[kk];
        const float av1 = a1[kk];
        const float* brow = b + static_cast<std::size_t>(kk) * s.n;
        int j = n0;
        for (; j + 2 <= n1; j += 2) {
          const float b0 = brow[j];
          const float b1 = brow[j + 1];
          c0[j] += av0 * b0;
          c0[j + 1] += av0 * b1;
          c1[j] += av1 * b0;
          c1[j + 1] += av1 * b1;
        }
        for (; j < n1; ++j) {
          c0[j] += av0 * brow[j];
          c1[j] += av1 * brow[j];
        }
      }
    }
    for (; i < m1; ++i) {  // remainder row
      const float* arow = a + static_cast<std::size_t>(i) * s.k;
      float* crow = c + static_cast<std::size_t>(i) * s.n;
      for (int j = n0; j < n1; ++j) crow[j] = 0.0f;
      for (int kk = 0; kk < s.k; ++kk) {
        const float av = arow[kk];
        const float* brow = b + static_cast<std::size_t>(kk) * s.n;
        for (int j = n0; j < n1; ++j) crow[j] += av * brow[j];
      }
    }
  }
};

// Device-wide GEMM composed from the tile primitive.
template <int kTileM = 64, int kTileN = 64>
void Sgemm(const float* a, const float* b, float* c, GemmShape s,
           gpusim::Device& device = gpusim::Device::Instance()) {
  CERTKIT_CHECK(s.m > 0 && s.n > 0 && s.k > 0);
  gpusim::Dim3 grid;
  grid.x = static_cast<unsigned>((s.n + kTileN - 1) / kTileN);
  grid.y = static_cast<unsigned>((s.m + kTileM - 1) / kTileM);
  device.Launch(grid, gpusim::Dim3{1, 1, 1},
                [=](const gpusim::KernelContext& ctx) {
                  TileGemm<kTileM, kTileN>::ComputeTile(
                      a, b, c, s, static_cast<int>(ctx.block_idx.y),
                      static_cast<int>(ctx.block_idx.x));
                });
}

}  // namespace cutlass_sim

// Host microkernel: the int8 path the pipeline tick actually runs. Unlike
// the device sims above it never goes through gpusim::Device — no launches,
// no std::function, no heap traffic — and it is allocation-free by
// construction (registers + caller-owned buffers only; the exceptions are
// the thread_local offset table of the dense GemmPairS16S32 and the
// GemmS16S32DotT adapter's pack buffers, which a warm caller reuses).
namespace micro {

// The int8 kernel runs on K-paired int16 operands. A pair is one int32
// holding two int16 values, the lower-index one in the low half: A is
// [M, P] pairs with A[m][p] = (a[m][2p], a[m][2p+1]), and row p of B holds
// the pairs (b[2p][n], b[2p+1][n]) for n < N, P = (K + 1) / 2. When K is
// odd the high half of the last pair is 0. One PMADDWD step then
// multiplies a broadcast weight pair into a vector of pixels and sums each
// pair, so the kernel vectorizes across output pixels, not along K.
//
// B's rows need not be one dense matrix: the kernel reads row p from
// b + rows[p], an offset table. A dense [P, N] matrix is rows[p] = p·N; the
// conv path's stride-1 rows are windows of its quantized input planes,
// read in place (nn/quantized.cpp). Rows may overlap.
//
// Exactness: operands are int8-grid values (|v| <= 127), so a pair sum is
// at most 2·127² and an accumulator at most K·127², which fits int32 for
// any K below 133000. Integer addition is associative, so every vector
// width, and VNNI's fused multiply-add, produces the same bits.
inline std::int32_t PackPair(std::int16_t lo, std::int16_t hi) {
  const std::uint16_t lo_bits = lo;  // two's-complement bit patterns
  const std::uint16_t hi_bits = hi;
  const std::uint32_t word = lo_bits | (std::uint32_t{hi_bits} << 16);
  return std::bit_cast<std::int32_t>(word);
}

// C[M,N] = A·B over paired operands (layout above), row p of B at
// b + rows[p] (rows has P entries); `shape.k` is K, not P. Every row must
// hold N readable pairs.
using PairRowsGemmFn = void (*)(const std::int32_t* a, const std::int32_t* b,
                                const std::size_t* rows, std::int32_t* c,
                                GemmShape shape);

// One instantiation of the pair microkernel for one instruction set.
struct PairKernel {
  const char* isa;  // "sse2", "avx2", "avx512bw" or "avx512vnni"
  PairRowsGemmFn gemm_rows;
};

// The instances this CPU runs, narrowest first: one per level of the ISA
// ladder (support/isa.h) up to the widest, so SSE2 (the x86-64 baseline)
// always, then AVX2, AVX-512BW and AVX-512 VNNI when cpuid reports them.
// There is no way to set it. Tests check every entry.
std::span<const PairKernel> SupportedPairKernels();

// The instance of the widest ladder level: the conv path's entry.
void GemmPairRowsS16S32(const std::int32_t* a, const std::int32_t* b,
                        const std::size_t* rows, std::int32_t* c,
                        GemmShape shape);
// The same over a dense [P, N] B. It builds the offset table in
// thread_local scratch, so a warm caller does not allocate.
void GemmPairS16S32(const std::int32_t* a, const std::int32_t* b,
                    std::int32_t* c, GemmShape shape);

// C[M,N] = A·Bᵀ with A[M,K] and BT[N,K] both row-major int16 on the int8
// grid, int32 accumulation. An adapter for int16 operands (the perf ledger
// times the kernel through it): it packs A and Bᵀ into pairs (thread_local
// scratch, so a warm caller does not allocate) and runs GemmPairS16S32.
void GemmS16S32DotT(const std::int16_t* a, const std::int16_t* bt,
                    std::int32_t* c, GemmShape shape);

}  // namespace micro

}  // namespace kernels

#endif  // KERNELS_GEMM_H_
