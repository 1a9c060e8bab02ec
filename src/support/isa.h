// certkit support: the instruction-set ladder the tick path's loops run on.
//
// Four levels, each containing the one below it: the x86-64 baseline
// (SSE2), AVX2, AVX-512 (F and BW), and AVX-512 with VNNI, whose
// `vpdpwssd` is the int8 pair GEMM's multiply-add in one instruction.
// WidestIsa() is read from cpuid once per process; there is no way to set
// it. RunWidest(body) calls
// body(IsaTag<L>{}) for the widest level L, inside a wrapper compiled for L
// with [[gnu::target]] whose [[gnu::flatten]] inlines the body, so the loops
// the body runs are vectorized at that width. A body that needs its width
// (the pair GEMM's intrinsics) reads L from the tag; the others ignore it.
//
// What a body must respect (DESIGN.md, "The ISA ladder"):
//  * A hot loop takes its pointers and scalars as by-value parameters of a
//    function the body calls. Written inline in a by-reference lambda, the
//    loop reloads captured scalars through the closure (a store to the
//    output may alias them) and stays scalar.
//  * GCC's "avx512f" target enables FMA, so a library that runs float
//    bodies builds with -ffp-contract=off (src/CMakeLists.txt); otherwise
//    `a * b + c` would round differently at AVX-512 than at the baseline.
//  * Dispatch is these explicit wrappers, not [[gnu::target_clones]]: the
//    ifunc resolver that target_clones emits crashes at startup under
//    -fsanitize=thread with GCC 12.
#ifndef CERTKIT_SUPPORT_ISA_H_
#define CERTKIT_SUPPORT_ISA_H_

#include <type_traits>

namespace certkit::support {

enum class Isa { kBaseline, kAvx2, kAvx512, kAvx512Vnni };

template <Isa L>
using IsaTag = std::integral_constant<Isa, L>;

// The widest level this CPU runs; __builtin_cpu_supports also checks that
// the OS saves the wider register state.
Isa WidestIsa();

template <class Body>
[[gnu::flatten]] inline decltype(auto) RunBaseline(Body& body) {
  return body(IsaTag<Isa::kBaseline>{});
}

template <class Body>
[[gnu::target("avx2"), gnu::flatten]] inline decltype(auto) RunAvx2(
    Body& body) {
  return body(IsaTag<Isa::kAvx2>{});
}

template <class Body>
[[gnu::target("avx512f,avx512bw"), gnu::flatten]] inline decltype(auto)
RunAvx512(Body& body) {
  return body(IsaTag<Isa::kAvx512>{});
}

template <class Body>
[[gnu::target("avx512f,avx512bw,avx512vnni"), gnu::flatten]] inline
decltype(auto) RunAvx512Vnni(Body& body) {
  return body(IsaTag<Isa::kAvx512Vnni>{});
}

// Runs `body` at `level`, which this CPU must support.
template <class Body>
decltype(auto) RunAt(Isa level, Body&& body) {
  return level == Isa::kAvx512Vnni ? RunAvx512Vnni(body)
         : level == Isa::kAvx512   ? RunAvx512(body)
         : level == Isa::kAvx2     ? RunAvx2(body)
                                   : RunBaseline(body);
}

template <class Body>
decltype(auto) RunWidest(Body&& body) {
  return RunAt(WidestIsa(), body);
}

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_ISA_H_
