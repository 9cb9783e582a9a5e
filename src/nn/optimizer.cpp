#include "src/nn/optimizer.hpp"

#include <cmath>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"

namespace mtsr::nn {
namespace {

// Elementwise optimizer updates have no cross-element dependency, so any
// chunking yields bit-identical results; the grain only amortises dispatch.
constexpr std::int64_t kStepGrain = 4096;

}  // namespace

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float epsilon)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  check(lr > 0.f, "Adam requires positive learning rate");
  check(beta1 >= 0.f && beta1 < 1.f, "Adam beta1 must be in [0,1)");
  check(beta2 >= 0.f && beta2 < 1.f, "Adam beta2 must be in [0,1)");
  check(epsilon > 0.f, "Adam epsilon must be positive");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    check(p != nullptr, "Adam received a null parameter");
    m_.emplace_back(Tensor::zeros(p->value.shape()));
    v_.emplace_back(Tensor::zeros(p->value.shape()));
  }
}

void Adam::zero_grad() {
  for (Parameter* p : params_) {
    float* g = p->grad.data();
    parallel_for_grain(p->grad.size(), kStepGrain,
                       [g](std::int64_t begin, std::int64_t end, int) {
                         for (std::int64_t j = begin; j < end; ++j) {
                           g[j] = 0.f;
                         }
                       });
  }
}

void Adam::set_learning_rate(float lr) {
  check(lr > 0.f, "set_learning_rate requires positive learning rate");
  lr_ = lr;
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.f - std::pow(beta2_, static_cast<float>(t_));
  const float beta1 = beta1_;
  const float beta2 = beta2_;
  const float epsilon = epsilon_;
  const float lr = lr_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    float* m = m_[i].data();
    float* v = v_[i].data();
    const float* g = p.grad.data();
    float* w = p.value.data();
    parallel_for_grain(
        p.value.size(), kStepGrain,
        [m, v, g, w, bc1, bc2, beta1, beta2, epsilon, lr](
            std::int64_t begin, std::int64_t end, int) {
          for (std::int64_t j = begin; j < end; ++j) {
            m[j] = beta1 * m[j] + (1.f - beta1) * g[j];
            v[j] = beta2 * v[j] + (1.f - beta2) * g[j] * g[j];
            const float m_hat = m[j] / bc1;
            const float v_hat = v[j] / bc2;
            w[j] -= lr * m_hat / (std::sqrt(v_hat) + epsilon);
          }
        });
  }
}

}  // namespace mtsr::nn
