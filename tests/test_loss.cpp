// Tests for loss functions: values, gradients (vs. finite differences) and
// numerical-stability clamps.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/nn/loss.hpp"

namespace mtsr::nn {
namespace {

// Whole-batch losses are the one-slice case: the slice is the full batch,
// so the mean is the slice sum over the slice's own count.
double mse_mean(const Tensor& pred, const Tensor& target) {
  return mse_loss_slice(pred, target, pred.size()).sum /
         static_cast<double>(pred.size());
}

SliceLossResult bce_full(const Tensor& probability, float label) {
  return bce_loss_slice(probability, label, probability.dim(0));
}

double bce_mean(const Tensor& probability, float label) {
  return bce_full(probability, label).sum /
         static_cast<double>(probability.dim(0));
}

TEST(MseLoss, ValueAndGradient) {
  Tensor pred(Shape{2, 2}, {1.f, 2.f, 3.f, 4.f});
  Tensor target(Shape{2, 2}, {1.f, 1.f, 1.f, 1.f});
  const Tensor grad = mse_loss_slice(pred, target, pred.size()).grad;
  EXPECT_NEAR(mse_mean(pred, target), (0.0 + 1.0 + 4.0 + 9.0) / 4.0, 1e-7);
  // d/dp mean((p - t)²) = 2 (p - t) / n.
  EXPECT_FLOAT_EQ(grad.flat(0), 0.f);
  EXPECT_FLOAT_EQ(grad.flat(1), 2.f * 1.f / 4.f);
  EXPECT_FLOAT_EQ(grad.flat(3), 2.f * 3.f / 4.f);
}

TEST(MseLoss, GradientMatchesFiniteDifference) {
  Rng rng(40);
  Tensor pred = Tensor::randn(Shape{3, 3}, rng);
  Tensor target = Tensor::randn(Shape{3, 3}, rng);
  const Tensor grad = mse_loss_slice(pred, target, pred.size()).grad;
  const double delta = 1e-3;
  for (std::int64_t i = 0; i < pred.size(); ++i) {
    Tensor up = pred;
    up.flat(i) += static_cast<float>(delta);
    Tensor down = pred;
    down.flat(i) -= static_cast<float>(delta);
    const double numeric =
        (mse_mean(up, target) - mse_mean(down, target)) /
        (2.0 * delta);
    EXPECT_NEAR(grad.flat(i), numeric, 1e-3);
  }
}

TEST(BceLoss, PerfectPredictionsGiveSmallLoss) {
  Tensor good(Shape{2, 1}, {0.999f, 0.999f});
  EXPECT_LT(bce_mean(good, 1.f), 0.01);
  Tensor bad(Shape{2, 1}, {0.001f, 0.001f});
  EXPECT_LT(bce_mean(bad, 0.f), 0.01);
}

TEST(BceLoss, WrongPredictionsGiveLargeLoss) {
  Tensor wrong(Shape{1, 1}, {0.01f});
  EXPECT_GT(bce_mean(wrong, 1.f), 4.0);
}

TEST(BceLoss, GradientSignsPushTowardLabel) {
  Tensor p(Shape{1, 1}, {0.3f});
  // Label 1: increasing p lowers the loss -> negative gradient.
  EXPECT_LT(bce_full(p, 1.f).grad.flat(0), 0.f);
  // Label 0: increasing p raises the loss -> positive gradient.
  EXPECT_GT(bce_full(p, 0.f).grad.flat(0), 0.f);
}

TEST(BceLoss, ClampsExtremeProbabilities) {
  Tensor p(Shape{1, 1}, {0.f});
  const SliceLossResult result = bce_full(p, 1.f);
  EXPECT_TRUE(std::isfinite(result.sum));
  EXPECT_TRUE(result.grad.all_finite());
}

TEST(BceLoss, RejectsBadInputs) {
  Tensor p(Shape{2, 2});
  EXPECT_THROW((void)bce_loss_slice(p, 1.f, 2), ContractViolation);
  Tensor q(Shape{2, 1});
  EXPECT_THROW((void)bce_loss_slice(q, 0.5f, 2), ContractViolation);
}

TEST(PerSampleSqError, ComputesPerSampleNorms) {
  Tensor pred(Shape{2, 2}, {1.f, 1.f, 0.f, 0.f});
  Tensor target(Shape{2, 2}, {0.f, 0.f, 0.f, 3.f});
  Tensor e = per_sample_sq_error(pred, target);
  ASSERT_EQ(e.shape(), Shape({2}));
  EXPECT_FLOAT_EQ(e.flat(0), 2.f);
  EXPECT_FLOAT_EQ(e.flat(1), 9.f);
}

}  // namespace
}  // namespace mtsr::nn
