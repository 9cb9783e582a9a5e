#include "src/nn/pooling.hpp"

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/nn/replica.hpp"

namespace mtsr::nn {
namespace {

// Per-slot cached input shape: slot 0 in direct mode, the slice's private
// slot inside a replicated step.
Shape& shape_slot(std::vector<Shape>& slots, const char* what) {
  const auto i = static_cast<std::size_t>(replica::cache_index());
  check(i < slots.size(), what);
  return slots[i];
}

}  // namespace

Tensor GlobalAvgPool::forward(const Tensor& input, bool /*training*/) {
  check(input.rank() >= 3, "GlobalAvgPool expects (N, C, ...) input");
  shape_slot(input_shape_, "GlobalAvgPool: replica slot not prepared") =
      input.shape();
  const std::int64_t n = input.dim(0), c = input.dim(1);
  std::int64_t inner = 1;
  for (int i = 2; i < input.rank(); ++i) inner *= input.dim(i);
  check(inner > 0, "GlobalAvgPool on empty spatial extent");

  Tensor out(Shape{n, c});
  const float* px = input.data();
  float* po = out.data();
  parallel_for(n * c, [&](std::int64_t i) {
    double acc = 0.0;
    const float* base = px + i * inner;
    for (std::int64_t j = 0; j < inner; ++j) acc += base[j];
    po[i] = static_cast<float>(acc / static_cast<double>(inner));
  });
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  const Shape& shape =
      shape_slot(input_shape_, "GlobalAvgPool: replica slot not prepared");
  check(shape.rank() >= 3, "GlobalAvgPool::backward before forward");
  const std::int64_t n = shape.dim(0), c = shape.dim(1);
  check(grad_output.rank() == 2 && grad_output.dim(0) == n &&
            grad_output.dim(1) == c,
        "GlobalAvgPool::backward grad shape mismatch");
  std::int64_t inner = 1;
  for (int i = 2; i < shape.rank(); ++i) inner *= shape.dim(i);

  Tensor grad(shape);
  float* pg = grad.data();
  const float* pdy = grad_output.data();
  const float scale = 1.f / static_cast<float>(inner);
  parallel_for(n * c, [&](std::int64_t i) {
    const float g = pdy[i] * scale;
    float* base = pg + i * inner;
    for (std::int64_t j = 0; j < inner; ++j) base[j] = g;
  });
  return grad;
}

void GlobalAvgPool::prepare_replica_slots(int count) {
  Layer::prepare_replica_slots(count);
  if (input_shape_.size() < static_cast<std::size_t>(count)) {
    input_shape_.resize(static_cast<std::size_t>(count));
  }
}

std::string GlobalAvgPool::name() const { return "GlobalAvgPool"; }

}  // namespace mtsr::nn
