// ZipNetInt8: the int8 inference mirror of the ZipNet generator.
//
// Built by one-shot conversion from a trained (or checkpoint-restored)
// float ZipNet: the constructor walks the generator's blocks and mirrors
// each [conv → BatchNorm → LeakyReLU] stack as one quantised layer with the
// BatchNorm folded into the conv's scales (src/nn/quantized.hpp). The skip
// wiring of the zipper chain, the collapse between the 3-D and 2-D stages
// and the residual interpolation base are replicated exactly — those run in
// float either way; only the GEMMs (the dominant cost) run u8·s8.
//
// Channels-last contract: inside the network every activation is a
// channels-last batch of workspace rows, (N, D, H, W, C) through the 3-D
// stages and (N, H, W, C) after the collapse, so each layer's GEMM output
// rows feed the next layer as they stand. The collapse itself is the entry
// conv, run as a depth-S 3-D conv over the last stage's output. The public
// input and output have one channel (C = 1 at both ends), where NCHW and
// NHWC coincide, so the interface below is unchanged and the outputs are
// bit-identical to an NCHW execution of the same quantised network.
//
// Calibration workflow:
//   auto int8 = ZipNetInt8::convert(generator, calibration_batches);
// runs a float forward over each calibration batch (a handful of warm-up
// coarse-window batches, (B, S, ci, ci) normalised), recording every
// layer's activation range, then freezes: weights quantise per output
// channel, pack once, and the float copies are released. The frozen network
// is the "zipnet-int8" serving model (src/serving/model.hpp).
#pragma once

#include <memory>
#include <vector>

#include "src/core/zipnet.hpp"
#include "src/nn/quantized.hpp"

namespace mtsr::core {

/// int8 inference twin of a ZipNet generator. Input (N, S, ci, ci) coarse
/// sequences; output (N, ci·Πf, ci·Πf) fine predictions (normalised
/// units) — the same contract as ZipNet::forward(·, training=false).
class ZipNetInt8 {
 public:
  /// Mirrors `generator`'s architecture with folded float weights. The
  /// generator is only read during construction and may be freed after.
  explicit ZipNetInt8(const ZipNet& generator);

  ZipNetInt8(const ZipNetInt8&) = delete;
  ZipNetInt8& operator=(const ZipNetInt8&) = delete;

  /// Float (folded-BN) forward recording activation ranges. Output matches
  /// the float generator's inference forward to fold-associativity error.
  [[nodiscard]] Tensor forward_calibrate(const Tensor& input);

  /// Quantises + packs every layer. Requires at least one
  /// forward_calibrate() pass; forward() is int8 from here on.
  void freeze();

  /// int8 forward (requires freeze()).
  [[nodiscard]] Tensor forward(const Tensor& input);

  [[nodiscard]] bool frozen() const { return frozen_; }
  [[nodiscard]] const ZipNetConfig& config() const { return config_; }
  [[nodiscard]] int total_upscale() const;
  [[nodiscard]] std::int64_t temporal_length() const {
    return config_.temporal_length;
  }

  /// One-shot conversion: mirror, calibrate over every batch ((B, S, ci,
  /// ci) normalised coarse sequences), freeze. Throws when `calibration`
  /// is empty — the activation scales would be unconstrained.
  [[nodiscard]] static std::unique_ptr<ZipNetInt8> convert(
      const ZipNet& generator, const std::vector<Tensor>& calibration);

 private:
  [[nodiscard]] Tensor run(const Tensor& input, bool quantised);

  ZipNetConfig config_;

  /// One 3-D upscaling stage: deconv + refinement convs (BN + LeakyReLU
  /// folded/fused into each).
  struct Stage3d {
    std::unique_ptr<nn::QuantConvTranspose3d> deconv;
    std::vector<std::unique_ptr<nn::QuantConv3d>> convs;
  };
  std::vector<Stage3d> upscale_;
  std::unique_ptr<nn::QuantConv3d> entry_;  ///< depth-S collapse conv
  std::vector<std::unique_ptr<nn::QuantConv3d>> zipper_;
  std::vector<std::unique_ptr<nn::QuantConv3d>> final_;  ///< last is linear
  bool frozen_ = false;
};

}  // namespace mtsr::core
