#include "models.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/rng.hpp"
#include "src/data/milan.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/conv3d.hpp"
#include "src/nn/conv_transpose3d.hpp"
#include "trace.hpp"

namespace perfbench {

TracedModel::TracedModel(std::shared_ptr<mtsr::serving::Model> inner)
    : inner_(std::move(inner)) {}

mtsr::Tensor TracedModel::predict(const mtsr::serving::WindowBatch& batch,
                                  const mtsr::serving::StreamContext& stream) {
  trace::Scope span("model.predict");
  return inner_->predict(batch, stream);
}

std::shared_ptr<mtsr::serving::Model> TracedModel::load_checkpoint(
    const std::string& path) const {
  trace::Scope span("ckpt.load");
  return std::make_shared<TracedModel>(inner_->load_checkpoint(path));
}

mtsr::core::ZipNetConfig serving_zipnet_config() {
  mtsr::core::ZipNetConfig config;
  config.temporal_length = 3;
  config.upscale_factors = {2, 2};
  config.base_channels = 4;
  config.zipper_modules = 4;
  config.zipper_channels = 16;
  config.final_channels = 12;
  return config;
}

std::unique_ptr<mtsr::core::ZipNet> seeded_generator(
    const mtsr::core::ZipNetConfig& config, std::uint64_t weight_seed) {
  mtsr::Rng rng(weight_seed);
  return std::make_unique<mtsr::core::ZipNet>(config, rng);
}

namespace {

/// Conv MACs of one Sequential; `depth` x `side` x `side` is the spatial
/// extent entering it, updated in place as transposed convs upscale.
double sequential_macs(const mtsr::nn::Sequential& seq, std::int64_t& depth,
                       std::int64_t& side) {
  double macs = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const mtsr::nn::Layer& layer = seq.layer(i);
    if (const auto* t = dynamic_cast<const mtsr::nn::ConvTranspose3d*>(&layer)) {
      // Every input position scatters the whole kernel.
      macs += static_cast<double>(t->weight().size()) *
              static_cast<double>(depth * side * side);
      side *= t->stride()[1];
    } else if (const auto* c3 = dynamic_cast<const mtsr::nn::Conv3d*>(&layer)) {
      macs += static_cast<double>(c3->weight().size()) *
              static_cast<double>(depth * side * side);
    } else if (const auto* c2 = dynamic_cast<const mtsr::nn::Conv2d*>(&layer)) {
      macs += static_cast<double>(c2->weight().size()) *
              static_cast<double>(side * side);
    }
  }
  return macs;
}

}  // namespace

double flop_per_window(const mtsr::core::ZipNet& net, std::int64_t coarse_side) {
  std::int64_t depth = net.config().temporal_length;
  std::int64_t side = coarse_side;
  double macs = 0;
  for (const auto& block : net.upscale_blocks()) {
    macs += sequential_macs(*block, depth, side);
  }
  depth = 1;  // channels x time collapse into 2-D feature maps
  macs += sequential_macs(net.entry_block(), depth, side);
  for (const auto& block : net.zipper_blocks()) {
    macs += sequential_macs(*block, depth, side);
  }
  macs += sequential_macs(net.final_block(), depth, side);
  return 2.0 * macs;
}

std::vector<mtsr::Tensor> city_frames(std::int64_t side, std::int64_t hotspots,
                                      std::uint64_t seed, std::int64_t t0,
                                      std::int64_t count) {
  mtsr::data::MilanConfig config;
  config.rows = side;
  config.cols = side;
  config.num_hotspots = hotspots;
  config.seed = seed;
  return mtsr::data::MilanTrafficGenerator(config).generate(t0, count);
}

bool bitwise_equal(const mtsr::Tensor& a, const mtsr::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

double relative_max_diff(const mtsr::Tensor& a, const mtsr::Tensor& b) {
  if (!(a.shape() == b.shape())) return std::numeric_limits<double>::infinity();
  double diff = 0, scale = 0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, static_cast<double>(std::fabs(a.flat(i) - b.flat(i))));
    scale = std::max(scale, static_cast<double>(std::fabs(b.flat(i))));
  }
  return scale > 0 ? diff / scale : diff;
}

}  // namespace perfbench
