// Elementwise activation layers.
//
// The paper uses LeakyReLU (Eq. 3, alpha ~= 0.1) throughout both networks
// and a sigmoid on the discriminator output to constrain it to (0, 1).
// ReLU serves the SRCNN baseline.
//
// Forward caches are per-replica-slot (slot 0 in direct mode) so concurrent
// data-parallel train slices never share cached activations.
#pragma once

#include "src/nn/layer.hpp"

namespace mtsr::nn {

/// LeakyReLU(x) = x for x > 0, alpha*x otherwise (Eq. 3 of the paper).
class LeakyReLU final : public Layer {
 public:
  explicit LeakyReLU(float alpha = 0.1f);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void prepare_replica_slots(int count) override;
  [[nodiscard]] std::string name() const override;

 private:
  float alpha_;
  std::vector<Tensor> input_ = std::vector<Tensor>(1);
};

/// Standard ReLU.
class ReLU final : public Layer {
 public:
  ReLU() = default;

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void prepare_replica_slots(int count) override;
  [[nodiscard]] std::string name() const override;

 private:
  std::vector<Tensor> input_ = std::vector<Tensor>(1);
};

/// Logistic sigmoid; saturates to (0, 1).
class Sigmoid final : public Layer {
 public:
  Sigmoid() = default;

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void prepare_replica_slots(int count) override;
  [[nodiscard]] std::string name() const override;

 private:
  std::vector<Tensor> output_ = std::vector<Tensor>(1);
};

}  // namespace mtsr::nn
