// Tests for Adam: update math, convergence on a quadratic, and
// learning-rate plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/check.hpp"
#include "src/nn/optimizer.hpp"

namespace mtsr::nn {
namespace {

TEST(Adam, FirstStepHasUnitScaleViaBiasCorrection) {
  // With bias correction, the first Adam step is ≈ lr * sign(grad).
  Parameter p("w", Tensor::zeros(Shape{1}));
  p.grad.fill(0.3f);
  Adam adam({&p}, /*lr=*/0.01f);
  adam.step();
  EXPECT_NEAR(p.value.flat(0), -0.01f, 1e-5);
  EXPECT_EQ(adam.steps(), 1);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimise f(w) = (w - 3)²; gradient 2(w - 3).
  Parameter p("w", Tensor::zeros(Shape{1}));
  Adam adam({&p}, /*lr=*/0.1f);
  for (int i = 0; i < 500; ++i) {
    adam.zero_grad();
    p.grad.flat(0) = 2.f * (p.value.flat(0) - 3.f);
    adam.step();
  }
  EXPECT_NEAR(p.value.flat(0), 3.f, 1e-2);
}

TEST(Adam, HandlesMultipleParameters) {
  Parameter a("a", Tensor::zeros(Shape{2}));
  Parameter b("b", Tensor::zeros(Shape{3}));
  Adam adam({&a, &b}, 0.05f);
  for (int i = 0; i < 400; ++i) {
    adam.zero_grad();
    for (std::int64_t j = 0; j < 2; ++j) {
      a.grad.flat(j) = 2.f * (a.value.flat(j) - 1.f);
    }
    for (std::int64_t j = 0; j < 3; ++j) {
      b.grad.flat(j) = 2.f * (b.value.flat(j) + 2.f);
    }
    adam.step();
  }
  EXPECT_NEAR(a.value.flat(0), 1.f, 5e-2);
  EXPECT_NEAR(b.value.flat(2), -2.f, 5e-2);
}

TEST(Optimizer, ZeroGradClearsAllParameters) {
  Parameter a("a", Tensor::zeros(Shape{2}));
  a.grad.fill(5.f);
  Adam adam({&a}, 0.1f);
  adam.zero_grad();
  EXPECT_EQ(a.grad.squared_norm(), 0.0);
}

TEST(Optimizer, LearningRateIsMutable) {
  Parameter a("a", Tensor::zeros(Shape{1}));
  Adam adam({&a}, 0.1f);
  adam.set_learning_rate(0.01f);
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.01f);
  EXPECT_THROW(adam.set_learning_rate(-1.f), ContractViolation);
}

TEST(Optimizer, RejectsBadConstruction) {
  Parameter a("a", Tensor::zeros(Shape{1}));
  EXPECT_THROW(Adam({&a}, 0.f), ContractViolation);
  EXPECT_THROW(Adam({&a}, 0.1f, 1.5f), ContractViolation);
}

}  // namespace
}  // namespace mtsr::nn
