#include "kernels/gemm.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "support/isa.h"

#if !defined(__x86_64__)
#error "the int8 pair microkernel is written for x86-64 (SSE2 baseline)"
#endif

// The AVX2 and AVX-512 policies' vectors pass through the shared kernel
// template, which GCC compiles without their target, so GCC warns that
// passing them would use a different ABI. Every such call is inlined into
// a target entry point (flatten): no vector value crosses a call boundary.
// GCC emits this warning at the end of the TU, so the suppression cannot
// be scoped with push/pop.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace kernels {

namespace cpublas {

void Sgemm(const float* a, const float* b, float* c, GemmShape s) {
  CERTKIT_CHECK(s.m > 0 && s.n > 0 && s.k > 0);
  // Deliberately the textbook i-j-k loop: single-threaded with a stride-N
  // inner access pattern. This is the "CPU library" reference point whose
  // gap to the device kernels Figure 7 reports.
  for (int i = 0; i < s.m; ++i) {
    for (int j = 0; j < s.n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < s.k; ++kk) {
        acc += a[static_cast<std::size_t>(i) * s.k + kk] *
               b[static_cast<std::size_t>(kk) * s.n + j];
      }
      c[static_cast<std::size_t>(i) * s.n + j] = acc;
    }
  }
}

}  // namespace cpublas

namespace cublas_sim {

void Sgemm(const float* a, const float* b, float* c, GemmShape s,
           gpusim::Device& device) {
  cutlass_sim::Sgemm<64, 64>(a, b, c, s, device);
}

}  // namespace cublas_sim

namespace micro {

using certkit::support::Isa;
using certkit::support::IsaTag;
using certkit::support::RunAt;
using certkit::support::RunWidest;
using certkit::support::WidestIsa;

// One microkernel template, PairGemm<V>, over a small vector policy V:
//   Reg, kLanes       the vector of int32 lanes;
//   kRows             MR, the weight rows of a register tile;
//   Zero, Broadcast, Load, Store, MaddAdd (acc + PMADDWD(a, b));
//   LoadFirst, StoreFirst   the first `count` lanes only, 0 < count < kLanes,
//                     touching no memory past them (the N fringe).
// A register tile is MR weight rows × 2 vectors of pixels: per pair step it
// looks up the step's B row in the offset table, loads two vectors of it,
// broadcasts one A pair per row, and runs MR·2 multiply-adds into int32
// accumulators that stay in registers for all of K.
//
// The SSE2 policy is the x86-64 baseline and carries no target. The AVX2,
// AVX-512BW and AVX-512 VNNI policies are compiled under "avx2",
// "avx512f,avx512bw" and "avx512f,avx512bw,avx512vnni", the levels of the
// ISA ladder (support/isa.h) that runs PairGemm; the VNNI policy is the
// AVX-512BW one with MaddAdd as one `vpdpwssd`. GCC's "avx512f" target
// enables FMA; the kernels library builds with -ffp-contract=off, so no
// float code here is contracted at any level.
namespace {

// Unaligned SSE2 access to int16 and int32 arrays.
__m128i LoadU128(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}
void StoreU128(void* p, __m128i v) {
  _mm_storeu_si128(static_cast<__m128i*>(p), v);
}

struct Sse2 {
  using Reg = __m128i;
  static constexpr int kLanes = 4;
  static constexpr int kRows = 4;  // 8 accumulators of 16 xmm
  static Reg Zero() { return _mm_setzero_si128(); }
  static Reg Broadcast(std::int32_t v) { return _mm_set1_epi32(v); }
  static Reg Load(const std::int32_t* p) { return LoadU128(p); }
  static void Store(std::int32_t* p, Reg v) { StoreU128(p, v); }
  static Reg MaddAdd(Reg acc, Reg a, Reg b) {
    return _mm_add_epi32(acc, _mm_madd_epi16(a, b));
  }
  static Reg LoadFirst(const std::int32_t* p, int count) {
    std::int32_t lanes[kLanes] = {};
    std::memcpy(lanes, p, count * sizeof(*p));
    return LoadU128(lanes);
  }
  static void StoreFirst(std::int32_t* p, Reg v, int count) {
    std::int32_t lanes[kLanes];
    StoreU128(lanes, v);
    std::memcpy(p, lanes, count * sizeof(*p));
  }
};

#pragma GCC push_options
#pragma GCC target("avx2")
struct Avx2 {
  using Reg = __m256i;
  static constexpr int kLanes = 8;
  static constexpr int kRows = 4;  // 8 accumulators of 16 ymm
  static Reg Zero() { return _mm256_setzero_si256(); }
  static Reg Broadcast(std::int32_t v) { return _mm256_set1_epi32(v); }
  static Reg Load(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void Store(std::int32_t* p, Reg v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Reg MaddAdd(Reg acc, Reg a, Reg b) {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(a, b));
  }
  static Reg FirstLanes(int count) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(count),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Reg LoadFirst(const std::int32_t* p, int count) {
    return _mm256_maskload_epi32(p, FirstLanes(count));
  }
  static void StoreFirst(std::int32_t* p, Reg v, int count) {
    _mm256_maskstore_epi32(p, FirstLanes(count), v);
  }
};
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw")
struct Avx512 {
  using Reg = __m512i;
  static constexpr int kLanes = 16;
  static constexpr int kRows = 8;  // 16 accumulators of 32 zmm
  static Reg Zero() { return _mm512_setzero_si512(); }
  static Reg Broadcast(std::int32_t v) { return _mm512_set1_epi32(v); }
  static Reg Load(const std::int32_t* p) { return _mm512_loadu_si512(p); }
  static void Store(std::int32_t* p, Reg v) { _mm512_storeu_si512(p, v); }
  static Reg MaddAdd(Reg acc, Reg a, Reg b) {
    return _mm512_add_epi32(acc, _mm512_madd_epi16(a, b));
  }
  static __mmask16 FirstLanes(int count) {
    return _cvtu32_mask16((1u << count) - 1u);
  }
  static Reg LoadFirst(const std::int32_t* p, int count) {
    return _mm512_maskz_loadu_epi32(FirstLanes(count), p);
  }
  static void StoreFirst(std::int32_t* p, Reg v, int count) {
    _mm512_mask_storeu_epi32(p, FirstLanes(count), v);
  }
};
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vnni")
struct Avx512Vnni : Avx512 {
  static Reg MaddAdd(Reg acc, Reg a, Reg b) {
    return _mm512_dpwssd_epi32(acc, a, b);
  }
};
#pragma GCC pop_options

// The operands of one PairGemm call.
struct PairTile {
  const std::int32_t* a;     // [M, pairs]
  const std::int32_t* b;     // row p of B starts at b + rows[p]
  const std::size_t* rows;   // [pairs]
  std::int32_t* c;           // [M, N]
  int n, pairs;
};

// Vector v of a tile row. With kFringe the last vector holds only `last`
// (< kLanes) columns and is loaded and stored lane-masked.
template <class V, int kVecs, bool kFringe>
[[gnu::always_inline]] inline typename V::Reg LoadVec(const std::int32_t* p,
                                                      int v, int last) {
  return kFringe && v == kVecs - 1 ? V::LoadFirst(p, last) : V::Load(p);
}

template <class V, int kVecs, bool kFringe>
[[gnu::always_inline]] inline void StoreVec(std::int32_t* p,
                                            typename V::Reg x, int v,
                                            int last) {
  if (kFringe && v == kVecs - 1) {
    V::StoreFirst(p, x, last);
  } else {
    V::Store(p, x);
  }
}

// The MR × kVecs-vector tile of C at row i0, column j0.
template <class V, int MR, int kVecs, bool kFringe>
[[gnu::always_inline]] inline void Tile(const PairTile& t, int i0, int j0,
                                        int last) {
  using Reg = typename V::Reg;
  constexpr int L = V::kLanes;
  const std::size_t pairs = t.pairs;  // index arithmetic in size_t
  const std::size_t n = t.n;
  Reg acc[MR][kVecs];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < kVecs; ++v) acc[r][v] = V::Zero();
  }
  const std::int32_t* arow = t.a + i0 * pairs;
  const std::int32_t* bcol = t.b + j0;
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::int32_t* bp = bcol + t.rows[p];
    Reg bv[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      bv[v] = LoadVec<V, kVecs, kFringe>(bp + v * L, v, last);
    }
    for (int r = 0; r < MR; ++r) {
      const Reg av = V::Broadcast(arow[r * pairs + p]);
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = V::MaddAdd(acc[r][v], av, bv[v]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    std::int32_t* crow = t.c + (i0 + r) * n + j0;
    for (int v = 0; v < kVecs; ++v) {
      StoreVec<V, kVecs, kFringe>(crow + v * L, acc[r][v], v, last);
    }
  }
}

// Every row of one column panel: full MR-row tiles, then the M fringe as
// tiles of MR/2, MR/4, ..., 1 rows (MR is a power of two).
template <class V, int kVecs, bool kFringe>
[[gnu::always_inline]] inline void Panel(const PairTile& t, int m, int j0,
                                         int last) {
  constexpr int MR = V::kRows;
  static_assert((MR & (MR - 1)) == 0);
  int i = 0;
  for (; i + MR <= m; i += MR) Tile<V, MR, kVecs, kFringe>(t, i, j0, last);
  if constexpr (MR >= 8) {
    if (m - i >= 4) { Tile<V, 4, kVecs, kFringe>(t, i, j0, last); i += 4; }
  }
  if (m - i >= 2) { Tile<V, 2, kVecs, kFringe>(t, i, j0, last); i += 2; }
  if (m - i >= 1) Tile<V, 1, kVecs, kFringe>(t, i, j0, last);
}

// Column panels outermost: a panel of B (pairs × 2 vectors) stays in L1
// while every row tile of A sweeps it. The N fringe is one full vector if
// at least kLanes columns remain, then one lane-masked vector.
template <class V>
[[gnu::always_inline]] inline void PairGemm(const std::int32_t* a,
                                            const std::int32_t* b,
                                            const std::size_t* rows,
                                            std::int32_t* c, GemmShape s) {
  constexpr int L = V::kLanes;
  const PairTile t{a, b, rows, c, s.n, (s.k + 1) / 2};
  int j = 0;
  for (; j + 2 * L <= s.n; j += 2 * L) Panel<V, 2, false>(t, s.m, j, L);
  if (s.n - j >= L) {
    Panel<V, 1, false>(t, s.m, j, L);
    j += L;
  }
  if (j < s.n) Panel<V, 1, true>(t, s.m, j, s.n - j);
}

// The pair GEMM at one ladder level, on that level's policy.
struct PairGemmCall {
  const std::int32_t* a;
  const std::int32_t* b;
  const std::size_t* rows;
  std::int32_t* c;
  GemmShape s;

  template <Isa L>
  void operator()(IsaTag<L>) const {
    using V = std::conditional_t<
        L == Isa::kAvx512Vnni, Avx512Vnni,
        std::conditional_t<
            L == Isa::kAvx512, Avx512,
            std::conditional_t<L == Isa::kAvx2, Avx2, Sse2>>>;
    PairGemm<V>(a, b, rows, c, s);
  }
};

// The offset table of a dense [P, N] B: rows[p] = p·N.
const std::size_t* DenseRows(GemmShape s) {
  thread_local std::vector<std::size_t> rows;
  rows.resize((s.k + 1) / 2);
  for (std::size_t p = 0; p < rows.size(); ++p) rows[p] = p * s.n;
  return rows.data();
}

template <Isa L>
void PairRowsGemmAt(const std::int32_t* a, const std::int32_t* b,
                    const std::size_t* rows, std::int32_t* c, GemmShape s) {
  RunAt(L, PairGemmCall{a, b, rows, c, s});
}

// One instance per ladder level, narrowest first.
constexpr PairKernel kPairKernels[] = {
    {"sse2", &PairRowsGemmAt<Isa::kBaseline>},
    {"avx2", &PairRowsGemmAt<Isa::kAvx2>},
    {"avx512bw", &PairRowsGemmAt<Isa::kAvx512>},
    {"avx512vnni", &PairRowsGemmAt<Isa::kAvx512Vnni>}};

}  // namespace

std::span<const PairKernel> SupportedPairKernels() {
  const Isa widest = WidestIsa();  // one entry per level up to the widest
  return {kPairKernels, 1u + (widest >= Isa::kAvx2) +
                            (widest >= Isa::kAvx512) +
                            (widest >= Isa::kAvx512Vnni)};
}

void GemmPairS16S32(const std::int32_t* a, const std::int32_t* b,
                    std::int32_t* c, GemmShape s) {
  CERTKIT_CHECK(s.m > 0 && s.n > 0 && s.k > 0);
  RunWidest(PairGemmCall{a, b, DenseRows(s), c, s});
}

void GemmPairRowsS16S32(const std::int32_t* a, const std::int32_t* b,
                        const std::size_t* rows, std::int32_t* c,
                        GemmShape s) {
  CERTKIT_CHECK(s.m > 0 && s.n > 0 && s.k > 0);
  RunWidest(PairGemmCall{a, b, rows, c, s});
}

void GemmS16S32DotT(const std::int16_t* a, const std::int16_t* bt,
                    std::int32_t* c, GemmShape s) {
  CERTKIT_CHECK(s.m > 0 && s.n > 0 && s.k > 0);
  const int pairs = (s.k + 1) / 2;
  const int full = s.k / 2;  // pairs with both halves in range
  const std::size_t n = s.n, k = s.k, row_pairs = pairs;
  thread_local std::vector<std::int32_t> ap, bp;
  ap.resize(s.m * row_pairs);
  bp.resize(row_pairs * n);
  // Pair p of a K-row: (row[2p], row[2p+1]), or (row[2p], 0) past K.
  const auto pair = [&](const std::int16_t* row, int p) {
    return PackPair(row[2 * p], p < full ? row[2 * p + 1] : std::int16_t{0});
  };
  for (int i = 0; i < s.m; ++i) {
    const std::int16_t* row = a + i * k;
    for (int p = 0; p < pairs; ++p) ap[i * row_pairs + p] = pair(row, p);
  }
  // B[p][j] = pair p of Bᵀ row j: a transpose, done kBlock rows of Bᵀ at a
  // time so those rows stay in L1 and each write run of B is a cache line.
  constexpr int kBlock = 16;
  for (int j0 = 0; j0 < s.n; j0 += kBlock) {
    const int j1 = std::min(j0 + kBlock, s.n);
    for (int p = 0; p < pairs; ++p) {
      std::int32_t* dst = bp.data() + p * n;
      for (int j = j0; j < j1; ++j) dst[j] = pair(bt + j * k, p);
    }
  }
  GemmPairS16S32(ap.data(), bp.data(), c, s);
}

}  // namespace micro

}  // namespace kernels
