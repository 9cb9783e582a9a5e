// Global average pooling.
//
// GlobalAvgPool reduces (N, C, H, W) to (N, C) so the discriminator head can
// accept any spatial size — needed because the four MTSR instances present
// different grid geometries to the same VGG-style discriminator.
#pragma once

#include "src/nn/layer.hpp"

namespace mtsr::nn {

/// Global average pooling over all spatial axes of an (N, C, ...) tensor.
class GlobalAvgPool final : public Layer {
 public:
  GlobalAvgPool() = default;

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void prepare_replica_slots(int count) override;
  [[nodiscard]] std::string name() const override;

 private:
  std::vector<Shape> input_shape_ = std::vector<Shape>(1);  // per slot
};

}  // namespace mtsr::nn
