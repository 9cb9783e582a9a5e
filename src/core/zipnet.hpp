// ZipNet: the paper's generator architecture (Section 3.2, Figs. 3-4).
//
// Three stages:
//  1. 3D upscaling blocks — one per upscale stage. Each block is a 3-D
//     transposed convolution (stride (1, f, f): spatial enlargement by the
//     stage factor f, temporal depth preserved) followed by `convs_per_block`
//     3-D convolutions, each with batch-norm + LeakyReLU. These "jointly
//     extract spatial and temporal features". The paper uses 1 to 3 blocks
//     depending on resolution; the factor decompositions used here are
//     up-2 → {2}, up-4 → {2, 2}, up-10 → {1, 2, 5} (a factor-1 block is a
//     pure 3-D refinement stage, giving the paper's three blocks for up-10).
//  2. Zipper convolutional blocks — after collapsing (channels × temporal
//     depth) into 2-D feature maps, a chain of M modules (conv+BN+LReLU).
//     Skip wiring is the "zipper": module outputs x_i = B_i(x_{i-1}) + x_{i-2}
//     form two interleaved residual chains (staggered skip connections
//     linking every two modules), plus a global skip x_M + x_0. No extra
//     parameters are introduced by any skip. The paper's ResNet ablation
//     (non-overlapping pairs) and no-skip variant are selectable for the
//     ablation bench.
//  3. Convolutional blocks — three plain conv+BN+LReLU layers with growing
//     feature maps, then a linear 3×3 conv producing the single-channel
//     fine-grained prediction.
//
// The paper's full-scale configuration (24 zipper modules, >50 layers) is
// constructible; benches default to CPU-scale widths (DESIGN.md §7).
#pragma once

#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"
#include "src/nn/sequential.hpp"

namespace mtsr::core {

/// Skip-connection wiring of the zipper chain (ablation knob).
enum class SkipMode {
  kZipper,         ///< staggered overlapping skips + global skip (the paper)
  kResidualPairs,  ///< classic ResNet: non-overlapping pair skips + global
  kNone,           ///< plain chain, no skips
};

/// Architecture hyper-parameters.
struct ZipNetConfig {
  std::int64_t temporal_length = 3;       ///< S, input snapshots
  std::vector<int> upscale_factors{2, 2}; ///< per-stage spatial factors
  std::int64_t base_channels = 8;         ///< 3-D stage feature maps
  int convs_per_block = 1;                ///< 3-D convs per upscaling block (paper: 3)
  int zipper_modules = 6;                 ///< M, conv modules in the zipper (paper: 24)
  std::int64_t zipper_channels = 16;      ///< zipper feature maps
  std::int64_t final_channels = 24;       ///< first final-block width; grows per layer
  float lrelu_alpha = 0.1f;               ///< Eq. 3 slope
  SkipMode skip_mode = SkipMode::kZipper;
  /// CPU-scale training aid (DESIGN.md §7): adds a bicubic upsampling of the
  /// most recent coarse frame to the network output, so the stack learns the
  /// *correction* to an interpolation baseline rather than the full
  /// mapping. Cuts convergence from GPU-days to CPU-seconds; kNone gives
  /// the paper-exact architecture. Only valid when the coarse input is
  /// spatially aligned with the output (the pipeline selects kNone for the
  /// mixture instance, whose input square is a distorted projection).
  enum class ResidualBase { kNone, kBicubic };
  ResidualBase residual_base = ResidualBase::kBicubic;
};

/// The ZipNet generator. Input (N, S, ci, ci) coarse sequences; output
/// (N, ci·Πf, ci·Πf) fine predictions (normalised units).
class ZipNet final : public nn::Layer {
 public:
  ZipNet(ZipNetConfig config, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  std::vector<std::pair<std::string, Tensor*>> buffers() override;
  void prepare_replica_slots(int count) override;
  void reduce_replica_slots(int count) override;
  [[nodiscard]] std::string name() const override;

  /// Total spatial upscaling factor (product of stage factors).
  [[nodiscard]] int total_upscale() const;

  [[nodiscard]] const ZipNetConfig& config() const { return config_; }

  /// Read-only structural access — the int8 conversion (zipnet_int8.hpp)
  /// walks these blocks to mirror the architecture with quantised layers.
  [[nodiscard]] const std::vector<std::unique_ptr<nn::Sequential>>&
  upscale_blocks() const {
    return upscale_blocks_;
  }
  [[nodiscard]] const nn::Sequential& entry_block() const { return *entry_; }
  [[nodiscard]] const std::vector<std::unique_ptr<nn::Sequential>>&
  zipper_blocks() const {
    return zipper_modules_;
  }
  [[nodiscard]] const nn::Sequential& final_block() const { return *final_; }

 private:
  /// Extracts the most recent temporal slice of an (N, S, ci, ci) input.
  [[nodiscard]] Tensor crop_latest_input(const Tensor& input) const;

  ZipNetConfig config_;

  std::vector<std::unique_ptr<nn::Sequential>> upscale_blocks_;
  std::unique_ptr<nn::Sequential> entry_;   ///< collapse -> zipper width
  std::vector<std::unique_ptr<nn::Sequential>> zipper_modules_;
  std::unique_ptr<nn::Sequential> final_;

  // Forward caches, one slot per replica slice (slot 0 in direct mode).
  // The zipper activations themselves are local to forward — backward only
  // routes gradients along the (linear) skips, so nothing batch-sized is
  // pinned between passes.
  struct Cache {
    Shape input_shape;
    Shape collapsed_shape;  ///< (N, C·S, h, w) between 3-D and 2-D stages
    bool forward_ran = false;
  };
  std::vector<Cache> cache_ = std::vector<Cache>(1);
  Cache& cache_slot();
};

/// Stage-factor decomposition for a total upscale factor, following the
/// paper's block counts: 2 → {2}; 4 → {2,2}; 10 → {1,2,5}. Other totals are
/// factorised greedily into factors <= 5 (1 is only used for 10).
[[nodiscard]] std::vector<int> upscale_stages(int total_factor);

/// Extracts the most recent temporal slice of an (N, S, ci, ci) coarse
/// input — the frame the residual interpolation base upsamples. Shared by
/// the float generator and its int8 mirror.
[[nodiscard]] Tensor latest_coarse_frame(const Tensor& input);

/// Adds the residual interpolation base in place: `latest` (N, ci, ci)
/// bicubic-upsampled by `factor` onto `result` (N, ci·factor, ci·factor).
/// kNone is a no-op.
void add_residual_base(Tensor& result, const Tensor& latest,
                       ZipNetConfig::ResidualBase mode, int factor);

}  // namespace mtsr::core
