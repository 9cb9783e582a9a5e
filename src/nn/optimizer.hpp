// The Adam optimizer.
//
// The paper trains all models with Adam (Kingma & Ba) at learning rate 1e-4
// (Section 3.4).
#pragma once

#include <vector>

#include "src/nn/layer.hpp"

namespace mtsr::nn {

/// Adam optimizer (Kingma & Ba, ICLR'15) with bias correction. step()
/// applies the accumulated gradients to the registered parameters, then the
/// caller zeroes gradients for the next batch.
class Adam final {
 public:
  Adam(std::vector<Parameter*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float epsilon = 1e-8f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using each parameter's accumulated gradient.
  void step();

  /// Zeroes all registered gradient accumulators.
  void zero_grad();

  /// Current learning rate.
  [[nodiscard]] float learning_rate() const { return lr_; }
  /// Changes the learning rate (e.g. for decay schedules).
  void set_learning_rate(float lr);

  /// Number of steps taken so far (used by bias correction).
  [[nodiscard]] std::int64_t steps() const { return t_; }

 private:
  std::vector<Parameter*> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float epsilon_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace mtsr::nn
