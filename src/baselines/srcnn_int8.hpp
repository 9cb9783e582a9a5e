// SrcnnInt8: the int8 inference mirror of a fitted SRCNN baseline.
//
// Same one-shot conversion story as ZipNetInt8 (src/core/zipnet_int8.hpp):
// the constructor walks the trained 9-1-5 stack and mirrors each conv as a
// depth-1 QuantConv3d — the two ReLUs fuse into the GEMM epilogue as LeakyReLU with
// slope 0 (max(y, 0·y) is exactly max(y, 0)), the output conv stays linear.
// SRCNN has no BatchNorm, so there is nothing to fold; the bicubic
// upscaling and the mean/stddev normalisation around the network run in
// float exactly as in Srcnn::super_resolve.
//
// Calibration workflow:
//   auto int8 = SrcnnInt8::convert(srcnn, fine_frames, layout);
// runs the float (calibrating) resolve over each raw fine frame, recording
// every layer's activation range, then freezes. The frozen resolver is the
// "srcnn-int8" serving model (serving::quantize_srcnn).
#pragma once

#include <memory>
#include <vector>

#include "src/baselines/srcnn.hpp"
#include "src/baselines/super_resolver.hpp"
#include "src/nn/quantized.hpp"

namespace mtsr::baselines {

/// int8 inference twin of a fitted Srcnn. Single-snapshot like every
/// SuperResolver: raw (rows, cols) MB frames in and out.
class SrcnnInt8 final : public SuperResolver {
 public:
  /// Mirrors `srcnn`'s trained network (throws when unfitted). The float
  /// resolver is only read during construction and may be freed after.
  explicit SrcnnInt8(const Srcnn& srcnn);

  /// Inference-only: conversion inherits the float fit. Throws.
  void fit(const std::vector<Tensor>& fine_frames,
           const data::ProbeLayout& layout) override;

  /// Float (calibrating) resolve recording activation ranges. Output
  /// matches Srcnn::super_resolve to float-associativity error.
  [[nodiscard]] Tensor super_resolve_calibrate(const Tensor& fine_frame,
                                               const data::ProbeLayout& layout);

  /// Quantises + packs every layer. Requires at least one
  /// super_resolve_calibrate() pass; super_resolve() is int8 from here on.
  void freeze();

  /// int8 resolve (requires freeze()).
  [[nodiscard]] Tensor super_resolve(
      const Tensor& fine_frame, const data::ProbeLayout& layout) const override;

  [[nodiscard]] std::string name() const override { return "srcnn-int8"; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// One-shot conversion: mirror, calibrate over every raw fine frame,
  /// freeze. Throws when `calibration` is empty — the activation scales
  /// would be unconstrained.
  [[nodiscard]] static std::unique_ptr<SrcnnInt8> convert(
      const Srcnn& srcnn, const std::vector<Tensor>& calibration,
      const data::ProbeLayout& layout);

 private:
  [[nodiscard]] Tensor run(const Tensor& fine_frame,
                           const data::ProbeLayout& layout,
                           bool quantised) const;

  double mean_ = 0.0;
  double stddev_ = 1.0;
  // forward_calibrate mutates the range observers; mutable mirrors the
  // float Srcnn's treatment of its network under the const interface.
  mutable std::vector<std::unique_ptr<nn::QuantConv3d>> layers_;
  bool frozen_ = false;
};

}  // namespace mtsr::baselines
