#include "kernels/stencil.h"

#include <mutex>

#include "support/check.h"

namespace kernels::stencil {

namespace {

using certkit::cov::Unit;

// Statement/decision probe layout for the 2D kernel. Ids are stable; the
// declaration happens once per process.
struct Probes2D {
  Unit* unit;
  // decisions
  int d_interior;   // 2 conditions: y in range && x in range
  int d_boundary;   // 3-way boundary mode (as 2 decisions below)
  int d_is_zero;    // boundary == kZero
  int d_is_periodic;  // boundary == kPeriodic
  // statements
  enum : int {
    kSLoad = 0,
    kSInterior,
    kSZero,
    kSPeriodic,
    kSReflect,
    kSStore,
    kSCount
  };
};

Probes2D& GetProbes2D() {
  static Probes2D probes = [] {
    Probes2D p;
    p.unit = &certkit::cov::Registry::Instance().GetOrCreate(
        "stencil/stencil2d.cu");
    p.unit->DeclareStatements(Probes2D::kSCount);
    p.d_interior = p.unit->DeclareDecision(2);
    p.d_is_zero = p.unit->DeclareDecision(1);
    p.d_is_periodic = p.unit->DeclareDecision(1);
    p.d_boundary = p.unit->DeclareDecision(1);  // boundary taken at all
    return p;
  }();
  return probes;
}

struct Probes3D {
  Unit* unit;
  int d_interior;  // 3 conditions
  int d_is_zero;
  int d_is_periodic;
  enum : int {
    kSLoad = 0,
    kSInterior,
    kSZero,
    kSPeriodic,
    kSReflect,
    kSStore,
    kSCount
  };
};

Probes3D& GetProbes3D() {
  static Probes3D probes = [] {
    Probes3D p;
    p.unit = &certkit::cov::Registry::Instance().GetOrCreate(
        "stencil/stencil3d.cu");
    p.unit->DeclareStatements(Probes3D::kSCount);
    p.d_interior = p.unit->DeclareDecision(3);
    p.d_is_zero = p.unit->DeclareDecision(1);
    p.d_is_periodic = p.unit->DeclareDecision(1);
    return p;
  }();
  return probes;
}

int WrapIndex(int i, int n, Boundary boundary, Unit& u, int d_zero,
              int d_periodic) {
  if (i >= 0 && i < n) return i;
  if (u.Branch(d_zero, boundary == Boundary::kZero)) {
    u.Stmt(Probes2D::kSZero);  // same slot layout in both probe structs
    return -1;                 // sentinel: contributes 0
  }
  if (u.Branch(d_periodic, boundary == Boundary::kPeriodic)) {
    u.Stmt(Probes2D::kSPeriodic);
    return ((i % n) + n) % n;
  }
  u.Stmt(Probes2D::kSReflect);
  return i < 0 ? -i - 1 : 2 * n - i - 1;
}

}  // namespace

Unit& Stencil2DCoverage() { return *GetProbes2D().unit; }

void Stencil2D5Point(const float* in, float* out, int h, int w,
                     const StencilOptions& options, gpusim::Device& device) {
  CERTKIT_CHECK(h > 0 && w > 0);
  Probes2D& p = GetProbes2D();
  Unit& u = *p.unit;
  const float wc = options.center_weight;
  const float wn = options.neighbor_weight;
  const Boundary boundary = options.boundary;

  gpusim::Dim3 grid{static_cast<unsigned>((w + 15) / 16),
                    static_cast<unsigned>((h + 15) / 16), 1};
  gpusim::Dim3 block{16, 16, 1};
  device.Launch(grid, block, [&, in, out, h, w](
                                 const gpusim::KernelContext& ctx) {
    const int x = static_cast<int>(ctx.GlobalX());
    const int y = static_cast<int>(ctx.GlobalY());
    const bool cy = u.Cond(p.d_interior, 0, y < h);
    const bool cx = u.Cond(p.d_interior, 1, x < w);
    if (!u.Dec(p.d_interior, cy && cx)) {
      return;  // thread outside the domain
    }
    u.Stmt(Probes2D::kSLoad);
    auto at = [&](int yy, int xx) -> float {
      if (yy >= 0 && yy < h && xx >= 0 && xx < w) {
        u.Stmt(Probes2D::kSInterior);
        return in[static_cast<std::size_t>(yy) * w + xx];
      }
      const int wy = WrapIndex(yy, h, boundary, u, p.d_is_zero,
                               p.d_is_periodic);
      const int wx = WrapIndex(xx, w, boundary, u, p.d_is_zero,
                               p.d_is_periodic);
      if (wy < 0 || wx < 0) return 0.0f;
      return in[static_cast<std::size_t>(wy) * w + wx];
    };
    const float value = wc * at(y, x) +
                        wn * (at(y - 1, x) + at(y + 1, x) + at(y, x - 1) +
                              at(y, x + 1));
    u.Stmt(Probes2D::kSStore);
    out[static_cast<std::size_t>(y) * w + x] = value;
  });
}

void Stencil3D7Point(const float* in, float* out, int d, int h, int w,
                     const StencilOptions& options, gpusim::Device& device) {
  CERTKIT_CHECK(d > 0 && h > 0 && w > 0);
  Probes3D& p = GetProbes3D();
  Unit& u = *p.unit;
  const float wc = options.center_weight;
  const float wn = options.neighbor_weight;
  const Boundary boundary = options.boundary;

  gpusim::Dim3 grid{static_cast<unsigned>((w + 7) / 8),
                    static_cast<unsigned>((h + 7) / 8),
                    static_cast<unsigned>(d)};
  gpusim::Dim3 block{8, 8, 1};
  device.Launch(grid, block, [&, in, out, d, h, w](
                                 const gpusim::KernelContext& ctx) {
    const int x = static_cast<int>(ctx.GlobalX());
    const int y = static_cast<int>(ctx.GlobalY());
    const int z = static_cast<int>(ctx.block_idx.z);
    const bool cz = u.Cond(p.d_interior, 0, z < d);
    const bool cy = u.Cond(p.d_interior, 1, y < h);
    const bool cx = u.Cond(p.d_interior, 2, x < w);
    if (!u.Dec(p.d_interior, cz && cy && cx)) {
      return;
    }
    u.Stmt(Probes3D::kSLoad);
    auto at = [&](int zz, int yy, int xx) -> float {
      if (zz >= 0 && zz < d && yy >= 0 && yy < h && xx >= 0 && xx < w) {
        u.Stmt(Probes3D::kSInterior);
        return in[(static_cast<std::size_t>(zz) * h + yy) * w + xx];
      }
      const int wz = WrapIndex(zz, d, boundary, u, p.d_is_zero,
                               p.d_is_periodic);
      const int wy = WrapIndex(yy, h, boundary, u, p.d_is_zero,
                               p.d_is_periodic);
      const int wx = WrapIndex(xx, w, boundary, u, p.d_is_zero,
                               p.d_is_periodic);
      if (wz < 0 || wy < 0 || wx < 0) return 0.0f;
      return in[(static_cast<std::size_t>(wz) * h + wy) * w + wx];
    };
    const float value =
        wc * at(z, y, x) +
        wn * (at(z - 1, y, x) + at(z + 1, y, x) + at(z, y - 1, x) +
              at(z, y + 1, x) + at(z, y, x - 1) + at(z, y, x + 1));
    u.Stmt(Probes3D::kSStore);
    out[(static_cast<std::size_t>(z) * h + y) * w + x] = value;
  });
}

}  // namespace kernels::stencil
