#include "src/nn/activations.hpp"

#include <cmath>
#include <sstream>

#include "src/common/check.hpp"
#include "src/nn/replica.hpp"

namespace mtsr::nn {
namespace {

// Per-slot cache access shared by the four activations: slot 0 in direct
// mode, the slice's private slot inside a replicated step.
Tensor& cache_slot(std::vector<Tensor>& slots, const char* what) {
  const auto i = static_cast<std::size_t>(replica::cache_index());
  check(i < slots.size(), what);
  return slots[i];
}

void grow_slots(std::vector<Tensor>& slots, int count) {
  if (slots.size() < static_cast<std::size_t>(count)) {
    slots.resize(static_cast<std::size_t>(count));
  }
}

}  // namespace

LeakyReLU::LeakyReLU(float alpha) : alpha_(alpha) {
  check(alpha >= 0.f && alpha < 1.f, "LeakyReLU alpha must be in [0,1)");
}

Tensor LeakyReLU::forward(const Tensor& input, bool /*training*/) {
  cache_slot(input_, "LeakyReLU: replica slot not prepared") = input;
  Tensor out = input;
  float* p = out.data();
  const std::int64_t n = out.size();
  for (std::int64_t i = 0; i < n; ++i) {
    if (p[i] < 0.f) p[i] *= alpha_;
  }
  return out;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  const Tensor& cached =
      cache_slot(input_, "LeakyReLU: replica slot not prepared");
  check(!cached.empty(), "LeakyReLU::backward called before forward");
  check(grad_output.shape() == cached.shape(),
        "LeakyReLU::backward grad shape mismatch");
  Tensor grad = grad_output;
  float* g = grad.data();
  const float* x = cached.data();
  const std::int64_t n = grad.size();
  for (std::int64_t i = 0; i < n; ++i) {
    if (x[i] < 0.f) g[i] *= alpha_;
  }
  return grad;
}

void LeakyReLU::prepare_replica_slots(int count) {
  Layer::prepare_replica_slots(count);
  grow_slots(input_, count);
}

std::string LeakyReLU::name() const {
  std::ostringstream out;
  out << "LeakyReLU(" << alpha_ << ")";
  return out.str();
}

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  cache_slot(input_, "ReLU: replica slot not prepared") = input;
  Tensor out = input;
  for (float* p = out.data(); p != out.data() + out.size(); ++p) {
    if (*p < 0.f) *p = 0.f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  const Tensor& cached = cache_slot(input_, "ReLU: replica slot not prepared");
  check(!cached.empty(), "ReLU::backward called before forward");
  check(grad_output.shape() == cached.shape(),
        "ReLU::backward grad shape mismatch");
  Tensor grad = grad_output;
  float* g = grad.data();
  const float* x = cached.data();
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    if (x[i] <= 0.f) g[i] = 0.f;
  }
  return grad;
}

void ReLU::prepare_replica_slots(int count) {
  Layer::prepare_replica_slots(count);
  grow_slots(input_, count);
}

std::string ReLU::name() const { return "ReLU"; }

Tensor Sigmoid::forward(const Tensor& input, bool /*training*/) {
  Tensor out = input;
  for (float* p = out.data(); p != out.data() + out.size(); ++p) {
    *p = 1.f / (1.f + std::exp(-*p));
  }
  cache_slot(output_, "Sigmoid: replica slot not prepared") = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  const Tensor& cached =
      cache_slot(output_, "Sigmoid: replica slot not prepared");
  check(!cached.empty(), "Sigmoid::backward called before forward");
  check(grad_output.shape() == cached.shape(),
        "Sigmoid::backward grad shape mismatch");
  Tensor grad = grad_output;
  float* g = grad.data();
  const float* y = cached.data();
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    g[i] *= y[i] * (1.f - y[i]);
  }
  return grad;
}

void Sigmoid::prepare_replica_slots(int count) {
  Layer::prepare_replica_slots(count);
  grow_slots(output_, count);
}

std::string Sigmoid::name() const { return "Sigmoid"; }

}  // namespace mtsr::nn
