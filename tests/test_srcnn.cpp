// Tests for the SRCNN baseline: training reduces loss, prediction shape and
// improvement over raw bicubic on structured traffic.
#include <gtest/gtest.h>

#include "src/common/check.hpp"
#include "src/baselines/bicubic.hpp"
#include "src/baselines/srcnn.hpp"
#include "src/data/milan.hpp"
#include "src/data/probes.hpp"
#include "src/metrics/metrics.hpp"

namespace mtsr::baselines {
namespace {

TEST(Srcnn, RequiresFitBeforePredict) {
  Srcnn srcnn;
  data::UniformProbeLayout layout(8, 8, 2);
  EXPECT_THROW((void)srcnn.super_resolve(Tensor(Shape{8, 8}), layout),
               ContractViolation);

  // Negative replica counts are rejected: fit always runs the sliced step.
  SrcnnConfig config;
  config.replicas = -1;
  Srcnn rejected(config);
  EXPECT_THROW(rejected.fit({Tensor::ones(Shape{8, 8})}, layout),
               ContractViolation);
}

TEST(Srcnn, TrainingLossDecreases) {
  data::MilanConfig mc;
  mc.rows = 24;
  mc.cols = 24;
  mc.num_hotspots = 10;
  mc.seed = 9;
  data::MilanTrafficGenerator gen(mc);
  auto train = gen.generate(60, 8);

  data::UniformProbeLayout layout(24, 24, 4);
  SrcnnConfig config;
  config.channels1 = 8;
  config.channels2 = 4;
  config.window = 16;
  config.epochs = 20;
  config.crops_per_epoch = 24;
  Srcnn srcnn(config);
  srcnn.fit(train, layout);

  const auto& history = srcnn.loss_history();
  ASSERT_EQ(history.size(), 20u);
  // Mean of the last five epochs below the first epoch's loss.
  double tail = 0.0;
  for (std::size_t i = history.size() - 5; i < history.size(); ++i) {
    tail += history[i];
  }
  tail /= 5.0;
  EXPECT_LT(tail, history.front());
}

TEST(Srcnn, PredictsFullGridAndBeatsNothing) {
  data::MilanConfig mc;
  mc.rows = 24;
  mc.cols = 24;
  mc.num_hotspots = 10;
  mc.seed = 10;
  data::MilanTrafficGenerator gen(mc);
  auto train = gen.generate(60, 10);
  auto test = gen.generate(90, 1);

  data::UniformProbeLayout layout(24, 24, 2);
  SrcnnConfig config;
  config.channels1 = 8;
  config.channels2 = 4;
  config.window = 16;
  config.epochs = 80;
  config.crops_per_epoch = 48;
  config.learning_rate = 1e-3f;
  Srcnn srcnn(config);
  srcnn.fit(train, layout);

  Tensor out = srcnn.super_resolve(test[0], layout);
  EXPECT_EQ(out.shape(), test[0].shape());
  EXPECT_TRUE(out.all_finite());
  // Loose sanity bound: the trained network should stay in the same error
  // regime as bicubic (it refines the bicubic mid image).
  BicubicInterpolator bicubic;
  const double err_nn = metrics::nrmse(out, test[0]);
  const double err_bc =
      metrics::nrmse(bicubic.super_resolve(test[0], layout), test[0]);
  EXPECT_LT(err_nn, err_bc * 2.0);
  EXPECT_EQ(srcnn.name(), "SRCNN");
}

}  // namespace
}  // namespace mtsr::baselines
