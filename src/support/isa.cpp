#include "support/isa.h"

namespace certkit::support {

namespace {
Isa DetectWidestIsa() {
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool avx512 = avx2 && __builtin_cpu_supports("avx512f") &&
                      __builtin_cpu_supports("avx512bw");
  const bool vnni = avx512 && __builtin_cpu_supports("avx512vnni");
  return vnni     ? Isa::kAvx512Vnni
         : avx512 ? Isa::kAvx512
         : avx2   ? Isa::kAvx2
                  : Isa::kBaseline;
}
}  // namespace

Isa WidestIsa() {
  static const Isa widest = DetectWidestIsa();  // once per process
  return widest;
}

}  // namespace certkit::support
