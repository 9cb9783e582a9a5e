// Direct validation of the GAN loss mathematics (Eqs. 5, 8, 9): the
// assembled generator gradient (data term + adversarial term routed through
// the discriminator) is compared against central differences of the scalar
// loss. This complements test_gan_trainer.cpp, which only checks training
// dynamics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/core/discriminator.hpp"
#include "src/nn/loss.hpp"

namespace mtsr::core {
namespace {

// Eq. 9 evaluated for a given prediction batch against a fixed target and
// discriminator: mean_i (1 - 2 log D(pred_i)) * ||target_i - pred_i||^2.
double eq9_loss(Discriminator& d, const Tensor& pred, const Tensor& target,
                float clamp) {
  Tensor probs = d.forward(pred, /*training=*/false);
  Tensor sq = nn::per_sample_sq_error(pred, target);
  double acc = 0.0;
  for (std::int64_t i = 0; i < probs.dim(0); ++i) {
    const double di = std::clamp(probs.flat(i), clamp, 1.f - clamp);
    acc += (1.0 - 2.0 * std::log(di)) * sq.flat(i);
  }
  return acc / static_cast<double>(probs.dim(0));
}

// The gradient assembly used by GanTrainer::train_generator_step.
Tensor eq9_gradient(Discriminator& d, const Tensor& pred,
                    const Tensor& target, float clamp) {
  const std::int64_t n = pred.dim(0);
  Tensor probs = d.forward(pred, /*training=*/false);
  Tensor sq = nn::per_sample_sq_error(pred, target);
  Tensor grad_probs(Shape{n, 1});
  std::vector<float> scale(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float di = std::clamp(probs.flat(i), clamp, 1.f - clamp);
    scale[static_cast<std::size_t>(i)] =
        (1.f - 2.f * std::log(di)) / static_cast<float>(n);
    grad_probs.flat(i) = (-2.f / di) * sq.flat(i) / static_cast<float>(n);
  }
  d.zero_grad();
  Tensor grad = d.backward(grad_probs);
  const std::int64_t inner = pred.size() / n;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < inner; ++j) {
      const std::int64_t off = i * inner + j;
      grad.flat(off) += 2.f * scale[static_cast<std::size_t>(i)] *
                        (pred.flat(off) - target.flat(off));
    }
  }
  return grad;
}

TEST(GanLossMath, Eq9GradientMatchesFiniteDifference) {
  Rng rng(190);
  DiscriminatorConfig config;
  config.base_channels = 2;
  Discriminator d(config, rng);
  Tensor pred = Tensor::randn(Shape{2, 8, 8}, rng);
  Tensor target = Tensor::randn(Shape{2, 8, 8}, rng);
  const float clamp = 1e-4f;

  Tensor analytic = eq9_gradient(d, pred, target, clamp);

  // Spot-check a sample of coordinates with central differences.
  Rng pick(191);
  const double delta = 1e-2;
  int checked = 0;
  for (int k = 0; k < 24; ++k) {
    const std::int64_t i = pick.uniform_int(0, pred.size() - 1);
    Tensor up = pred;
    up.flat(i) += static_cast<float>(delta);
    Tensor down = pred;
    down.flat(i) -= static_cast<float>(delta);
    const double numeric =
        (eq9_loss(d, up, target, clamp) - eq9_loss(d, down, target, clamp)) /
        (2.0 * delta);
    const double denom =
        std::max({std::abs(numeric), std::abs((double)analytic.flat(i)), 0.05});
    // 0.2: float32 finite differences through a discriminator with LeakyReLU
    // kinks; a routing error would register as O(1).
    EXPECT_LT(std::abs(analytic.flat(i) - numeric) / denom, 0.2)
        << "coordinate " << i;
    ++checked;
  }
  EXPECT_EQ(checked, 24);
}

TEST(GanLossMath, Eq9WeightsLargeErrorsMoreWhenDiscriminatorRejects) {
  // The empirical loss multiplies each sample's squared error by
  // (1 - 2 log D): a sample the discriminator rejects (small D) must
  // contribute more than one it accepts, for equal squared error.
  const double rejected = 1.0 - 2.0 * std::log(0.05);
  const double accepted = 1.0 - 2.0 * std::log(0.95);
  EXPECT_GT(rejected, accepted);
  EXPECT_GT(rejected, 1.0);  // always amplifies relative to plain MSE
}

TEST(GanLossMath, Eq5DiscriminatorObjectiveViaBce) {
  // Eq. 5 maximises log D(real) + log(1 - D(fake)); our trainer minimises
  // the equivalent BCE pair. Verify the correspondence numerically.
  Tensor p_real(Shape{2, 1}, {0.8f, 0.6f});
  Tensor p_fake(Shape{2, 1}, {0.3f, 0.1f});
  // Each batch is one whole slice: its mean is the slice sum over 2 rows.
  const double bce = (nn::bce_loss_slice(p_real, 1.f, 2).sum +
                      nn::bce_loss_slice(p_fake, 0.f, 2).sum) /
                     2.0;
  const double eq5 = (std::log(0.8) + std::log(0.6)) / 2.0 +
                     (std::log(0.7) + std::log(0.9)) / 2.0;
  EXPECT_NEAR(bce, -eq5, 1e-5);
}

}  // namespace
}  // namespace mtsr::core
