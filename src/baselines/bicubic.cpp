#include "src/baselines/bicubic.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.hpp"
#include "src/common/workspace.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::baselines {
namespace {

/// Catmull-Rom kernel (a = -0.5), the classic bicubic weighting.
float cubic_kernel(float x) {
  x = std::abs(x);
  if (x <= 1.f) {
    return 1.5f * x * x * x - 2.5f * x * x + 1.f;
  }
  if (x < 2.f) {
    return -0.5f * x * x * x + 2.5f * x * x - 4.f * x + 2.f;
  }
  return 0.f;
}

/// Catmull-Rom taps of one fine coordinate along an axis: the four weights
/// and the clamped coarse sample indices they apply to.
struct AxisTaps {
  float weight[4];
  std::int64_t index[4];
};

/// Taps of fine coordinate t over an axis of `size` coarse samples.
/// Cell-centre alignment: fine centre (t+0.5) maps to coarse coordinate
/// (t+0.5)/factor - 0.5 in sample index space.
AxisTaps axis_taps(std::int64_t t, float inv, std::int64_t size) {
  const float v = (static_cast<float>(t) + 0.5f) * inv - 0.5f;
  const auto v0 = static_cast<std::int64_t>(std::floor(v));
  const float fv = v - static_cast<float>(v0);
  AxisTaps taps{};
  for (int i = 0; i < 4; ++i) {
    taps.weight[i] = cubic_kernel(fv - static_cast<float>(i - 1));
    taps.index[i] = std::clamp<std::int64_t>(v0 - 1 + i, 0, size - 1);
  }
  return taps;
}

/// Column taps are stored as raw bytes in arena scratch (the arena hands
/// out floats) and copied in and out by value.
constexpr std::int64_t kTapFloats =
    (sizeof(AxisTaps) + sizeof(float) - 1) / sizeof(float);

/// Taps of every fine column, computed once per call into arena scratch
/// (freed by the caller's Workspace::Scope).
const float* column_taps(Workspace& ws, std::int64_t ow, float inv,
                         std::int64_t w) {
  float* raw = ws.alloc(ow * kTapFloats);
  for (std::int64_t c = 0; c < ow; ++c) {
    const AxisTaps taps = axis_taps(c, inv, w);
    std::memcpy(raw + c * kTapFloats, &taps, sizeof(AxisTaps));
  }
  return raw;
}

AxisTaps column_tap(const float* raw, std::int64_t c) {
  AxisTaps taps{};
  std::memcpy(&taps, raw + c * kTapFloats, sizeof(AxisTaps));
  return taps;
}

}  // namespace

void bicubic_upsample_into(const float* coarse, std::int64_t h,
                           std::int64_t w, int factor, float* out,
                           bool accumulate) {
  check(h >= 1 && w >= 1, "bicubic_upsample: empty grid");
  check(factor >= 1, "bicubic_upsample requires factor >= 1");
  const std::int64_t oh = h * factor, ow = w * factor;
  const float inv = 1.f / static_cast<float>(factor);
  Workspace& ws = Workspace::tls();
  Workspace::Scope scratch(ws);
  const float* cols = column_taps(ws, ow, inv, w);
  for (std::int64_t r = 0; r < oh; ++r) {
    const AxisTaps row = axis_taps(r, inv, h);
    const float* src[4];
    for (int i = 0; i < 4; ++i) src[i] = coarse + row.index[i] * w;
    float* orow = out + r * ow;
    for (std::int64_t c = 0; c < ow; ++c) {
      const AxisTaps col = column_tap(cols, c);
      float acc = 0.f;
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          acc += row.weight[i] * col.weight[j] * src[i][col.index[j]];
        }
      }
      orow[c] = accumulate ? orow[c] + acc : acc;
    }
  }
}

Tensor bicubic_upsample(const Tensor& coarse, int factor) {
  check(coarse.rank() == 2, "bicubic_upsample expects a rank-2 grid");
  const std::int64_t h = coarse.dim(0), w = coarse.dim(1);
  Tensor out(Shape{h * factor, w * factor});
  bicubic_upsample_into(coarse.data(), h, w, factor, out.data(),
                        /*accumulate=*/false);
  return out;
}

Tensor bicubic_upsample_adjoint(const Tensor& grad_fine, int factor) {
  check(grad_fine.rank() == 2, "bicubic_upsample_adjoint expects rank-2");
  check(factor >= 1, "bicubic_upsample_adjoint requires factor >= 1");
  const std::int64_t oh = grad_fine.dim(0), ow = grad_fine.dim(1);
  check(oh % factor == 0 && ow % factor == 0,
        "bicubic_upsample_adjoint: fine dims must be multiples of factor");
  const std::int64_t h = oh / factor, w = ow / factor;
  Tensor out(Shape{h, w});
  const float inv = 1.f / static_cast<float>(factor);
  Workspace& ws = Workspace::tls();
  Workspace::Scope scratch(ws);
  const float* cols = column_taps(ws, ow, inv, w);
  const float* grad = grad_fine.data();
  float* dst = out.data();
  // Scatter order per coarse cell: fine rows, fine columns, row taps,
  // column taps — the forward's transpose, accumulated in that order.
  for (std::int64_t r = 0; r < oh; ++r) {
    const AxisTaps row = axis_taps(r, inv, h);
    for (std::int64_t c = 0; c < ow; ++c) {
      const float g = grad[r * ow + c];
      if (g == 0.f) continue;
      const AxisTaps col = column_tap(cols, c);
      for (int i = 0; i < 4; ++i) {
        float* orow = dst + row.index[i] * w;
        for (int j = 0; j < 4; ++j) {
          orow[col.index[j]] += g * row.weight[i] * col.weight[j];
        }
      }
    }
  }
  return out;
}

Tensor BicubicInterpolator::super_resolve(
    const Tensor& fine_frame, const data::ProbeLayout& layout) const {
  if (const auto* uniform =
          dynamic_cast<const data::UniformProbeLayout*>(&layout)) {
    return bicubic_upsample(uniform->coarsen(fine_frame), uniform->factor());
  }
  // Heterogeneous layout: no regular coarse grid. Pool the spread map to
  // the finest probe size and resample.
  Tensor spread = layout.spread_average(fine_frame);
  return bicubic_upsample(avg_pool2d(spread, 2), 2);
}

}  // namespace mtsr::baselines
