#include "src/nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"

namespace mtsr::nn {
namespace {

// Loss sums use per-chunk double partials combined in ascending slot order;
// chunk geometry is pure in n, so every pool size produces identical bits.
constexpr std::int64_t kLossGrain = 1024;

double combine_partials(const std::vector<double>& partials) {
  double acc = 0.0;
  for (double p : partials) acc += p;
  return acc;
}

}  // namespace

SliceLossResult mse_loss_slice(const Tensor& prediction, const Tensor& target,
                               std::int64_t total_elements) {
  check(prediction.shape() == target.shape(), "mse_loss_slice shape mismatch");
  check(prediction.size() > 0, "mse_loss_slice on empty tensors");
  check(total_elements >= prediction.size(),
        "mse_loss_slice: total smaller than slice");
  const std::int64_t n = prediction.size();
  Tensor grad(prediction.shape());
  const float* p = prediction.data();
  const float* t = target.data();
  float* g = grad.data();
  const float scale = 2.f / static_cast<float>(total_elements);
  std::vector<double> partials(
      static_cast<std::size_t>(parallel_chunk_count(n)), 0.0);
  double* parts = partials.data();
  parallel_for_grain(n, kLossGrain,
                     [p, t, g, scale, parts](std::int64_t begin,
                                             std::int64_t end, int slot) {
                       double acc = 0.0;
                       for (std::int64_t i = begin; i < end; ++i) {
                         const float d = p[i] - t[i];
                         acc += static_cast<double>(d) * d;
                         g[i] = scale * d;
                       }
                       parts[slot] = acc;
                     });
  return {combine_partials(partials), std::move(grad)};
}

SliceLossResult bce_loss_slice(const Tensor& probability, float label,
                               std::int64_t total_rows, float eps) {
  check(probability.rank() == 2 && probability.dim(1) == 1,
        "bce_loss_slice expects (N, 1) probabilities");
  check(label == 0.f || label == 1.f, "bce_loss_slice label must be 0 or 1");
  const std::int64_t n = probability.dim(0);
  check(n > 0, "bce_loss_slice on empty batch");
  check(total_rows >= n, "bce_loss_slice: total smaller than slice");
  Tensor grad(probability.shape());
  const float* p = probability.data();
  float* g = grad.data();
  const float total = static_cast<float>(total_rows);
  std::vector<double> partials(
      static_cast<std::size_t>(parallel_chunk_count(n)), 0.0);
  double* parts = partials.data();
  parallel_for_chunks(
      n, [p, g, label, eps, total, parts](std::int64_t begin, std::int64_t end,
                                          int slot) {
        double acc = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          const float pi = std::clamp(p[i], eps, 1.f - eps);
          if (label == 1.f) {
            acc += -std::log(static_cast<double>(pi));
            g[i] = -1.f / (pi * total);
          } else {
            acc += -std::log(1.0 - static_cast<double>(pi));
            g[i] = 1.f / ((1.f - pi) * total);
          }
        }
        parts[slot] = acc;
      });
  return {combine_partials(partials), std::move(grad)};
}

Tensor per_sample_sq_error(const Tensor& prediction, const Tensor& target) {
  check(prediction.shape() == target.shape(),
        "per_sample_sq_error shape mismatch");
  check(prediction.rank() >= 2, "per_sample_sq_error expects a batch axis");
  const std::int64_t n = prediction.dim(0);
  const std::int64_t inner = prediction.size() / n;
  Tensor out(Shape{n});
  const float* p = prediction.data();
  const float* t = target.data();
  float* o = out.data();
  // Sample accumulations are independent and each stays serial, so the
  // per-sample bits match the historic serial loop exactly.
  parallel_for(n, [p, t, o, inner](std::int64_t i) {
    double acc = 0.0;
    for (std::int64_t j = 0; j < inner; ++j) {
      const double d =
          static_cast<double>(p[i * inner + j]) - t[i * inner + j];
      acc += d * d;
    }
    o[i] = static_cast<float>(acc);
  });
  return out;
}

}  // namespace mtsr::nn
