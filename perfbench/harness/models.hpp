// Models and inputs the workloads serve: the seeded serving generator, the
// traced serving::Model decorator, the analytic FLOP count and the Milan
// city frames.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/zipnet.hpp"
#include "src/serving/model.hpp"
#include "src/tensor/tensor.hpp"

namespace perfbench {

/// Decorator that forwards every call to the wrapped model and records a
/// "model.predict" span around predict and a "ckpt.load" span around
/// load_checkpoint. A checkpoint reload returns a decorated replacement, so
/// spans keep flowing after the online trainer promotes.
class TracedModel final : public mtsr::serving::Model {
 public:
  explicit TracedModel(std::shared_ptr<mtsr::serving::Model> inner);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::int64_t temporal_length() const override {
    return inner_->temporal_length();
  }
  [[nodiscard]] mtsr::serving::ModelInputs inputs() const override {
    return inner_->inputs();
  }
  void validate(const mtsr::serving::StreamContext& stream) const override {
    inner_->validate(stream);
  }
  [[nodiscard]] mtsr::Tensor predict(
      const mtsr::serving::WindowBatch& batch,
      const mtsr::serving::StreamContext& stream) override;
  [[nodiscard]] std::shared_ptr<mtsr::serving::Model> load_checkpoint(
      const std::string& path) const override;

 private:
  std::shared_ptr<mtsr::serving::Model> inner_;
};

/// The serving generator architecture of the wire workloads (the CPU-scale
/// widths the repository's serving benches use), up-4, S = 3.
[[nodiscard]] mtsr::core::ZipNetConfig serving_zipnet_config();

/// A generator with seeded initial weights (no training).
[[nodiscard]] std::unique_ptr<mtsr::core::ZipNet> seeded_generator(
    const mtsr::core::ZipNetConfig& config, std::uint64_t weight_seed);

/// FLOPs of one generator pass over one window, counted as 2 x the
/// multiply-accumulates of every convolution, from the layer shapes.
/// Batch-norm, activations and the residual interpolation base are not
/// counted.
[[nodiscard]] double flop_per_window(const mtsr::core::ZipNet& net,
                                     std::int64_t coarse_side);

/// `count` consecutive snapshots of a synthetic Milan city.
[[nodiscard]] std::vector<mtsr::Tensor> city_frames(std::int64_t side,
                                                    std::int64_t hotspots,
                                                    std::uint64_t seed,
                                                    std::int64_t t0,
                                                    std::int64_t count);

/// Bitwise equality of two tensors (shape and every float's bits).
[[nodiscard]] bool bitwise_equal(const mtsr::Tensor& a, const mtsr::Tensor& b);

/// max |a - b| / max |b|; infinity on a shape mismatch.
[[nodiscard]] double relative_max_diff(const mtsr::Tensor& a,
                                       const mtsr::Tensor& b);

}  // namespace perfbench
