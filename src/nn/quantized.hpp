// Quantised inference-only layers: the int8 forward variants of the
// generator's hot layers (Conv2d/Conv3d/ConvTranspose3d), built by one-shot
// conversion from their trained float counterparts. A Conv2d converts to
// the depth-1 QuantConv3d.
//
// Every layer here is CHANNELS-LAST: it takes and returns (N, H, W, C) /
// (N, D, H, W, C) batches, either as Tensors or as ChannelsLast views of
// raw workspace rows. A conv's GEMM produces one row per output position
// holding that position's channels, so in the row form each layer's GEMM
// output is the next layer's input as it stands — no relayout between
// layers.
//
// Life cycle of every layer here:
//  1. CONSTRUCT from the float layer — an optional following BatchNorm is
//     folded into the weights and bias at this point (inference-mode BN is
//     a per-channel affine map, so W' = g·W, b' = g·(b − μ) + β with
//     g = γ/√(σ²+ε)); a LeakyReLU slope can be attached so the activation
//     fuses into the GEMM epilogue.
//  2. CALIBRATE: forward_calibrate() runs the float path over warm-up
//     batches, recording the input range each call (quant::RangeObserver).
//     Behind the channels-last interface it is the NCHW float layer: exact
//     transposes in and out, so the recorded ranges are those of the float
//     network. Its outputs match the unfused float [conv → BN → LeakyReLU]
//     stack to float-associativity error (~1e-6), so warm-up predictions
//     are full-quality.
//  3. FREEZE: weights quantise to per-output-channel symmetric s8 (in the
//     float layer's own K order), permute to the channels-last K order
//     (kz, ky, kx, c) and pack ONCE into the PackedInt8B panel layout;
//     activation scale/zero-point fix from the observed range. s32
//     accumulation is exact, so the permutation changes no output bit.
//     After freeze() the float weight copy is released and forward() runs
//     the u8·s8 path: quantise the input once → lower the bytes straight
//     into the GEMM's A operand (vol2row_u8_into, one row per output
//     position) → gemm_u8s8 with the dequant + bias + LeakyReLU epilogue
//     fused into the panel store, whose rows are the channels-last output.
//
// All scratch is carved from the thread's Workspace, so steady-state int8
// serving performs zero arena growth exactly like the float path.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/workspace.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/conv3d.hpp"
#include "src/nn/conv_transpose3d.hpp"
#include "src/tensor/quant.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::nn {

/// A channels-last batch in raw memory: n·d·h·w positions, each holding
/// `channels` floats at position stride `ld` >= channels (a conv's output
/// keeps its GEMM's padded column span as `ld`). 2-D batches have d = 1.
/// Layers only read their input view.
struct ChannelsLast {
  float* data = nullptr;
  std::int64_t n = 0, d = 1, h = 0, w = 0;
  std::int64_t channels = 0, ld = 0;

  [[nodiscard]] std::int64_t positions() const { return n * d * h * w; }
};

namespace detail {

/// State shared by every quantised layer: the calibration observer and,
/// after freeze(), the packed weights + fused epilogue constants. The
/// epilogue arrays are zero-padded to the packed column span (npad) so the
/// GEMM can run its vector path over the padded destination even for
/// few-output-channel layers.
struct QuantCore {
  quant::RangeObserver in_range;
  quant::ActQuant act;
  PackedInt8B packed;
  std::vector<float> col_scale;  ///< act.scale × weight scale, npad entries
  std::vector<float> bias_pad;   ///< fused bias, npad entries (conv only)
  bool frozen = false;
};

}  // namespace detail

/// Quantised Conv3d (+ folded BatchNorm, + fused LeakyReLU) over
/// (N, D, H, W, C) batches.
class QuantConv3d {
 public:
  /// `bn` (nullable) is folded; `lrelu_alpha` = 1 means no activation.
  QuantConv3d(const Conv3d& conv, const BatchNorm* bn,
              float lrelu_alpha = 1.f);

  /// A 2-D conv is the 3-D conv of kernel depth 1: on (N, H, W, C) it
  /// yields (N, H', W', O). Over C·depth stacked channels (channel
  /// c·depth + s) it is the 3-D conv with kernel depth `depth` and no depth
  /// padding: on an (N, depth, H, W, C) batch it yields (N, 1, H', W', O).
  /// This is ZipNet's collapse from its 3-D to its 2-D stage, taken without
  /// a relayout; its K order is (s, ky, kx, c).
  QuantConv3d(const Conv2d& conv, const BatchNorm* bn,
              float lrelu_alpha = 1.f, int depth = 1);

  /// Float reference forward: records the input range for calibration.
  /// The Tensor forms take (N, H, W, C) (depth 1) or (N, D, H, W, C) and
  /// return the output at the input's rank.
  [[nodiscard]] Tensor forward_calibrate(const Tensor& input);
  /// Row form: the output is carved from `ws`; the layer's scratch is
  /// released from `ws` on return.
  [[nodiscard]] ChannelsLast forward_calibrate(const ChannelsLast& input,
                                               Workspace& ws);
  /// Quantises + packs the weights and fixes the activation scale.
  void freeze();
  /// int8 forward (requires freeze()).
  [[nodiscard]] Tensor forward(const Tensor& input) const;
  /// Row form: the output goes to `out` when given — it must hold
  /// positions × out_stride() floats — and is carved from `ws` otherwise.
  [[nodiscard]] ChannelsLast forward(const ChannelsLast& input, Workspace& ws,
                                     float* out = nullptr) const;
  [[nodiscard]] bool frozen() const { return core_.frozen; }
  /// Position stride of the row-form output: the calibration path writes
  /// packed rows, the int8 path keeps its GEMM's padded column span (the
  /// pad channels hold 0).
  [[nodiscard]] std::int64_t out_stride() const {
    return core_.frozen ? core_.packed.npad : out_channels_;
  }

 private:
  [[nodiscard]] std::array<std::int64_t, 3> out_extent(
      const ChannelsLast& input) const;

  std::int64_t in_channels_, out_channels_;
  std::array<int, 3> kernel_, stride_, padding_;
  float alpha_;
  Tensor wf_;  ///< folded float weights (O, C·kd·kh·kw), freed by freeze()
  Tensor bf_;  ///< folded float bias (O)
  detail::QuantCore core_;
};

/// Quantised ConvTranspose3d — the ZipNet upscaling stage's first layer —
/// over (N, D, H, W, C) batches. BatchNorm folds; the LeakyReLU applies
/// after the scatter (transposed convolutions accumulate overlapping taps,
/// so bias and activation cannot fuse into the GEMM epilogue). Its output
/// rows are packed (stride = out_channels).
class QuantConvTranspose3d {
 public:
  QuantConvTranspose3d(const ConvTranspose3d& deconv, const BatchNorm* bn,
                       float lrelu_alpha = 1.f);

  [[nodiscard]] Tensor forward_calibrate(const Tensor& input);
  /// Row forms, with QuantConv3d's output contract.
  [[nodiscard]] ChannelsLast forward_calibrate(const ChannelsLast& input,
                                               Workspace& ws);
  void freeze();
  [[nodiscard]] Tensor forward(const Tensor& input) const;
  [[nodiscard]] ChannelsLast forward(const ChannelsLast& input, Workspace& ws,
                                     float* out = nullptr) const;
  [[nodiscard]] bool frozen() const { return core_.frozen; }

 private:
  [[nodiscard]] std::array<std::int64_t, 3> out_extent(
      const ChannelsLast& input) const;

  std::int64_t in_channels_, out_channels_;
  std::array<int, 3> kernel_, stride_, padding_;
  float alpha_;
  Tensor wf_;  ///< folded float weights (C, O·kd·kh·kw)
  Tensor bf_;
  detail::QuantCore core_;
};

}  // namespace mtsr::nn
