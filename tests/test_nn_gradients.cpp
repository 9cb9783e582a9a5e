// Analytic-vs-numerical gradient checks for every layer — the main
// correctness oracle for the from-scratch neural-network framework. Each
// check compares the layer's backward() against central differences of a
// random linear probe loss, over both the input and all parameters.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/conv3d.hpp"
#include "src/nn/conv_transpose3d.hpp"
#include "src/nn/dense.hpp"
#include "src/nn/grad_check.hpp"
#include "src/nn/pooling.hpp"
#include "src/nn/sequential.hpp"

namespace mtsr::nn {
namespace {

// A coordinate fails only when BOTH its absolute error (float32 noise
// floor) and relative error exceed tolerance — see grad_check.hpp.
void expect_gradients_match(Layer& layer, const Tensor& input, Rng& rng) {
  const GradCheckResult result = check_layer_gradients(layer, input, rng);
  EXPECT_EQ(result.violations, 0)
      << layer.name() << " max_abs=" << result.max_abs_error
      << " max_rel=" << result.max_rel_error;
}

TEST(GradCheck, Conv2dBasic) {
  Rng rng(100);
  Conv2d layer(2, 3, 3, 1, 1, rng);
  expect_gradients_match(layer, Tensor::randn(Shape{2, 2, 5, 5}, rng), rng);
}

TEST(GradCheck, Conv2dStride2NoBias) {
  Rng rng(101);
  Conv2d layer(1, 2, 3, 2, 1, rng, /*bias=*/false);
  expect_gradients_match(layer, Tensor::randn(Shape{1, 1, 6, 6}, rng), rng);
}

TEST(GradCheck, Conv2dKernel1) {
  Rng rng(102);
  Conv2d layer(3, 2, 1, 1, 0, rng);
  expect_gradients_match(layer, Tensor::randn(Shape{2, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, Conv3dBasic) {
  Rng rng(103);
  Conv3d layer(1, 2, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}, rng);
  expect_gradients_match(layer, Tensor::randn(Shape{2, 1, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, Conv3dAnisotropicKernel) {
  Rng rng(104);
  Conv3d layer(2, 1, {1, 3, 3}, {1, 1, 1}, {0, 1, 1}, rng);
  expect_gradients_match(layer, Tensor::randn(Shape{1, 2, 2, 4, 3}, rng), rng);
}

TEST(GradCheck, ConvTranspose3dSpatialUpscale) {
  Rng rng(107);
  // The ZipNet upscaling geometry: depth preserved, spatial doubled.
  ConvTranspose3d layer(1, 2, {3, 4, 4}, {1, 2, 2}, {1, 1, 1}, rng);
  expect_gradients_match(layer, Tensor::randn(Shape{1, 1, 3, 3, 3}, rng), rng);
}

TEST(GradCheck, ConvTranspose3dFactor5) {
  Rng rng(108);
  ConvTranspose3d layer(1, 1, {3, 7, 7}, {1, 5, 5}, {1, 1, 1}, rng);
  expect_gradients_match(layer, Tensor::randn(Shape{1, 1, 2, 2, 2}, rng), rng);
}

TEST(GradCheck, BatchNorm2d) {
  Rng rng(109);
  BatchNorm layer(3);
  expect_gradients_match(layer, Tensor::randn(Shape{4, 3, 3, 3}, rng), rng);
}

TEST(GradCheck, BatchNorm3d) {
  Rng rng(110);
  BatchNorm layer(2);
  expect_gradients_match(layer, Tensor::randn(Shape{3, 2, 2, 3, 3}, rng), rng);
}

TEST(GradCheck, LeakyReLU) {
  Rng rng(111);
  LeakyReLU layer(0.1f);
  expect_gradients_match(layer, Tensor::randn(Shape{2, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, Sigmoid) {
  Rng rng(112);
  Sigmoid layer;
  expect_gradients_match(layer, Tensor::randn(Shape{4, 5}, rng), rng);
}

TEST(GradCheck, ReLULayer) {
  Rng rng(114);
  ReLU layer;
  // Shift inputs away from the kink to keep finite differences clean.
  Tensor input = Tensor::randn(Shape{2, 8}, rng);
  input.apply_([](float v) { return std::abs(v) < 0.05f ? v + 0.2f : v; });
  expect_gradients_match(layer, input, rng);
}

TEST(GradCheck, DenseLayer) {
  Rng rng(115);
  Dense layer(6, 4, rng);
  expect_gradients_match(layer, Tensor::randn(Shape{3, 6}, rng), rng);
}

TEST(GradCheck, GlobalAvgPoolLayer) {
  Rng rng(116);
  GlobalAvgPool layer;
  expect_gradients_match(layer, Tensor::randn(Shape{2, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, SequentialComposition) {
  Rng rng(118);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  net.emplace<BatchNorm>(2);
  net.emplace<LeakyReLU>(0.1f);
  net.emplace<Conv2d>(2, 1, 3, 1, 1, rng);
  expect_gradients_match(net, Tensor::randn(Shape{2, 1, 5, 5}, rng), rng);
}

// Parameterised sweep: Conv2d gradients across kernel/stride/padding.
struct Conv2dCase {
  int kernel, stride, padding;
  std::int64_t in_ch, out_ch, extent;
};

class Conv2dGradSweep : public ::testing::TestWithParam<Conv2dCase> {};

TEST_P(Conv2dGradSweep, MatchesNumericalGradients) {
  const auto p = GetParam();
  Rng rng(200 + p.kernel * 10 + p.stride);
  Conv2d layer(p.in_ch, p.out_ch, p.kernel, p.stride, p.padding, rng);
  Tensor input = Tensor::randn(Shape{2, p.in_ch, p.extent, p.extent}, rng);
  expect_gradients_match(layer, input, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conv2dGradSweep,
    ::testing::Values(Conv2dCase{1, 1, 0, 1, 1, 4},
                      Conv2dCase{3, 1, 1, 1, 2, 5},
                      Conv2dCase{3, 2, 1, 2, 1, 6},
                      Conv2dCase{5, 1, 2, 1, 1, 6},
                      Conv2dCase{2, 2, 0, 2, 2, 4}));

}  // namespace
}  // namespace mtsr::nn
