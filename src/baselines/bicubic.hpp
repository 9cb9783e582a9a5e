// Bicubic interpolation baseline.
//
// Catmull-Rom bicubic resampling, the "popular non-parametric tool
// frequently used to enhance the resolution of images" the paper compares
// against. For uniform probe layouts the coarse (H/f, W/f) grid is
// interpolated directly to the fine grid. For the mixture layout (probes of
// unequal sizes, so no regular coarse grid exists) the per-cell spread map
// is pooled to the finest probe granularity (2×2) and bicubic-resampled
// back, producing the characteristic smooth surface of Fig. 11's bicubic
// panel; this generic path is documented in DESIGN.md.
#pragma once

#include "src/baselines/super_resolver.hpp"

namespace mtsr::baselines {

/// Upsamples a (h, w) grid by an integer factor with Catmull-Rom bicubic
/// interpolation, treating samples as cell-centre values. Output is
/// (h*factor, w*factor).
[[nodiscard]] Tensor bicubic_upsample(const Tensor& coarse, int factor);

/// Raw-pointer form of bicubic_upsample: the (h, w) grid at `coarse`
/// upsamples into the (h·factor, w·factor) grid at `out`, which it
/// overwrites, or adds to when `accumulate` is set. Per element the same
/// arithmetic as bicubic_upsample; scratch comes from the thread's
/// Workspace, so it makes no heap allocation.
void bicubic_upsample_into(const float* coarse, std::int64_t h,
                           std::int64_t w, int factor, float* out,
                           bool accumulate);

/// Adjoint of bicubic_upsample: maps a fine-grid cotangent (h*factor,
/// w*factor) back to the coarse grid (h, w), satisfying
/// <bicubic_upsample(x), y> == <x, bicubic_upsample_adjoint(y)>. Used to
/// backpropagate through bicubic residual bases.
[[nodiscard]] Tensor bicubic_upsample_adjoint(const Tensor& grad_fine,
                                              int factor);

/// Bicubic interpolation baseline over any probe layout.
class BicubicInterpolator final : public SuperResolver {
 public:
  BicubicInterpolator() = default;

  [[nodiscard]] Tensor super_resolve(
      const Tensor& fine_frame, const data::ProbeLayout& layout) const override;
  [[nodiscard]] std::string name() const override { return "Bicubic"; }
};

}  // namespace mtsr::baselines
