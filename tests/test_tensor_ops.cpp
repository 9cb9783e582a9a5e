// Unit and property tests for the free tensor operations: matmul variants,
// im2col/col2im adjointness, padding/cropping, pooling and upsampling.
#include <gtest/gtest.h>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr {
namespace {

TEST(Matmul, KnownProduct) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.f);
}

TEST(Matmul, InnerDimMismatchThrows) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{2, 2});
  EXPECT_THROW((void)matmul(a, b), ContractViolation);
}

TEST(Matmul, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{4, 3}, rng);
  Tensor b = Tensor::randn(Shape{4, 5}, rng);
  Tensor via_tn = matmul_tn(a, b);                 // aᵀ b
  Tensor expected = matmul(transpose(a), b);
  ASSERT_EQ(via_tn.shape(), expected.shape());
  for (std::int64_t i = 0; i < via_tn.size(); ++i) {
    EXPECT_NEAR(via_tn.flat(i), expected.flat(i), 1e-5);
  }

  Tensor c = Tensor::randn(Shape{5, 3}, rng);
  Tensor via_nt = matmul_nt(a.reshape(Shape{4, 3}), c);  // a cᵀ
  Tensor expected2 = matmul(a, transpose(c));
  for (std::int64_t i = 0; i < via_nt.size(); ++i) {
    EXPECT_NEAR(via_nt.flat(i), expected2.flat(i), 1e-5);
  }
}

TEST(Transpose, RoundTripIsIdentity) {
  Rng rng(2);
  Tensor a = Tensor::randn(Shape{3, 7}, rng);
  Tensor tt = transpose(transpose(a));
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.flat(i), tt.flat(i));
  }
}

TEST(Im2col, ShapeAndContentFor2x2Kernel) {
  // 1 channel, 3x3 image, 2x2 kernel, stride 1, no padding -> 4 patches.
  Tensor img = Tensor::arange(9).reshape(Shape{1, 3, 3});
  Tensor cols = im2col(img, 2, 2, 1, 1, 0, 0);
  ASSERT_EQ(cols.shape(), Shape({4, 4}));
  // First patch (top-left): 0 1 3 4 down the rows of cols.
  EXPECT_EQ(cols.at(0, 0), 0.f);
  EXPECT_EQ(cols.at(1, 0), 1.f);
  EXPECT_EQ(cols.at(2, 0), 3.f);
  EXPECT_EQ(cols.at(3, 0), 4.f);
  // Last patch (bottom-right): 4 5 7 8.
  EXPECT_EQ(cols.at(0, 3), 4.f);
  EXPECT_EQ(cols.at(3, 3), 8.f);
}

TEST(Im2col, ZeroPaddingReadsZeros) {
  Tensor img = Tensor::ones(Shape{1, 2, 2});
  Tensor cols = im2col(img, 3, 3, 1, 1, 1, 1);
  ASSERT_EQ(cols.shape(), Shape({9, 4}));
  // Top-left output position: kernel tap (0,0) hits padding.
  EXPECT_EQ(cols.at(0, 0), 0.f);
  // Centre tap (1,1) hits the image.
  EXPECT_EQ(cols.at(4, 0), 1.f);
}

TEST(Im2colCol2im, AdjointIdentityOnOnes) {
  // col2im(im2col(x)) counts how many patches cover each pixel.
  Tensor img = Tensor::ones(Shape{1, 3, 3});
  Tensor cols = im2col(img, 2, 2, 1, 1, 0, 0);
  Tensor back = col2im(cols, 1, 3, 3, 2, 2, 1, 1, 0, 0);
  EXPECT_EQ(back.at(0, 0, 0), 1.f);  // corner covered once
  EXPECT_EQ(back.at(0, 0, 1), 2.f);  // edge covered twice
  EXPECT_EQ(back.at(0, 1, 1), 4.f);  // centre covered four times
}

TEST(Im2colCol2im, AdjointInnerProductProperty) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity the
  // conv backward pass relies on.
  Rng rng(3);
  Tensor x = Tensor::randn(Shape{2, 5, 4}, rng);
  Tensor cols = im2col(x, 3, 2, 2, 1, 1, 0);
  Tensor y = Tensor::randn(cols.shape(), rng);
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cols.size(); ++i) {
    lhs += static_cast<double>(cols.flat(i)) * y.flat(i);
  }
  Tensor back = col2im(y, 2, 5, 4, 3, 2, 2, 1, 1, 0);
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x.flat(i)) * back.flat(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Pad2d, PlacesContentCentrally) {
  Tensor x = Tensor::ones(Shape{1, 2, 2});
  Tensor p = pad2d(x, 1, 2);
  ASSERT_EQ(p.shape(), Shape({1, 4, 6}));
  EXPECT_EQ(p.at(0, 0, 0), 0.f);
  EXPECT_EQ(p.at(0, 1, 2), 1.f);
  EXPECT_EQ(p.at(0, 2, 3), 1.f);
  EXPECT_EQ(p.at(0, 3, 5), 0.f);
}

TEST(Crop2d, ExtractsWindow) {
  Tensor x = Tensor::arange(16).reshape(Shape{4, 4});
  Tensor c = crop2d(x, 1, 2, 2, 2);
  ASSERT_EQ(c.shape(), Shape({2, 2}));
  EXPECT_EQ(c.at(0, 0), 6.f);
  EXPECT_EQ(c.at(1, 1), 11.f);
}

TEST(Crop2d, OutOfRangeThrows) {
  Tensor x(Shape{4, 4});
  EXPECT_THROW((void)crop2d(x, 3, 0, 2, 2), ContractViolation);
}

TEST(Pool2d, AverageOfBlocks) {
  Tensor x = Tensor::arange(16).reshape(Shape{4, 4});
  Tensor p = avg_pool2d(x, 2);
  ASSERT_EQ(p.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(p.at(0, 0), (0 + 1 + 4 + 5) / 4.f);
  EXPECT_FLOAT_EQ(p.at(1, 1), (10 + 11 + 14 + 15) / 4.f);
}

TEST(Pool2d, IndivisibleExtentThrows) {
  Tensor x(Shape{5, 4});
  EXPECT_THROW((void)avg_pool2d(x, 2), ContractViolation);
}

TEST(UpsampleNearest, ReplicatesValues) {
  Tensor x = Tensor::arange(4).reshape(Shape{2, 2});
  Tensor u = upsample_nearest2d(x, 2);
  ASSERT_EQ(u.shape(), Shape({4, 4}));
  EXPECT_EQ(u.at(0, 0), 0.f);
  EXPECT_EQ(u.at(0, 1), 0.f);
  EXPECT_EQ(u.at(1, 1), 0.f);
  EXPECT_EQ(u.at(2, 2), 3.f);
}

TEST(UpsamplePool, UpThenDownIsIdentity) {
  Rng rng(5);
  Tensor x = Tensor::randn(Shape{3, 5}, rng);
  Tensor round = avg_pool2d(upsample_nearest2d(x, 4), 4);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(round.flat(i), x.flat(i), 1e-5);
  }
}

TEST(StackSelect, RoundTrip) {
  Rng rng(6);
  std::vector<Tensor> parts = {Tensor::randn(Shape{2, 3}, rng),
                               Tensor::randn(Shape{2, 3}, rng)};
  Tensor stacked = stack0(parts);
  ASSERT_EQ(stacked.shape(), Shape({2, 2, 3}));
  Tensor second = select0(stacked, 1);
  for (std::int64_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second.flat(i), parts[1].flat(i));
  }
}

TEST(Concat0, JoinsAlongAxis0) {
  Tensor a = Tensor::ones(Shape{1, 3});
  Tensor b = Tensor::full(Shape{2, 3}, 2.f);
  Tensor c = concat0({a, b});
  ASSERT_EQ(c.shape(), Shape({3, 3}));
  EXPECT_EQ(c.at(0, 0), 1.f);
  EXPECT_EQ(c.at(2, 2), 2.f);
}

TEST(Concat0, TrailingDimMismatchThrows) {
  EXPECT_THROW((void)concat0({Tensor(Shape{1, 3}), Tensor(Shape{1, 4})}),
               ContractViolation);
}

// Property sweep: im2col/col2im shape algebra over kernel/stride/padding.
struct ConvGeom {
  int kernel, stride, pad;
};

class Im2colGeometry : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(Im2colGeometry, ShapesFollowConvArithmetic) {
  const auto [k, s, p] = GetParam();
  const std::int64_t h = 9, w = 7, c = 2;
  Tensor img(Shape{c, h, w});
  const std::int64_t oh = (h + 2 * p - k) / s + 1;
  const std::int64_t ow = (w + 2 * p - k) / s + 1;
  Tensor cols = im2col(img, k, k, s, s, p, p);
  EXPECT_EQ(cols.dim(0), c * k * k);
  EXPECT_EQ(cols.dim(1), oh * ow);
  Tensor back = col2im(cols, c, h, w, k, k, s, s, p, p);
  EXPECT_EQ(back.shape(), img.shape());
}

INSTANTIATE_TEST_SUITE_P(Sweep, Im2colGeometry,
                         ::testing::Values(ConvGeom{1, 1, 0}, ConvGeom{3, 1, 1},
                                           ConvGeom{3, 2, 1}, ConvGeom{5, 1, 2},
                                           ConvGeom{2, 2, 0},
                                           ConvGeom{3, 3, 0}));

}  // namespace
}  // namespace mtsr
