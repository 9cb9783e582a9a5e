#include "src/core/zipnet.hpp"

#include <sstream>

#include "src/baselines/bicubic.hpp"
#include "src/common/check.hpp"
#include "src/nn/replica.hpp"
#include "src/tensor/tensor_ops.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/conv3d.hpp"
#include "src/nn/conv_transpose3d.hpp"

namespace mtsr::core {

std::vector<int> upscale_stages(int total_factor) {
  check(total_factor >= 1, "upscale_stages: factor must be >= 1");
  switch (total_factor) {
    case 1: return {1};
    case 2: return {2};
    case 4: return {2, 2};
    case 10: return {1, 2, 5};  // three blocks, as the paper uses for up-10
    default: break;
  }
  std::vector<int> stages;
  int remaining = total_factor;
  for (int f : {5, 4, 3, 2}) {
    while (remaining % f == 0) {
      stages.push_back(f);
      remaining /= f;
    }
  }
  check(remaining == 1,
        "upscale_stages: factor has a prime component larger than 5");
  return stages;
}

ZipNet::ZipNet(ZipNetConfig config, Rng& rng) : config_(std::move(config)) {
  check(config_.temporal_length >= 1, "ZipNet: S must be >= 1");
  check(!config_.upscale_factors.empty(), "ZipNet: need upscale stages");
  check(config_.zipper_modules >= 2, "ZipNet: need at least 2 zipper modules");
  check(config_.base_channels > 0 && config_.zipper_channels > 0 &&
            config_.final_channels > 0,
        "ZipNet: bad channel widths");

  const float alpha = config_.lrelu_alpha;
  const std::int64_t c = config_.base_channels;

  // --- 3D upscaling blocks ---------------------------------------------
  std::int64_t in_ch = 1;
  for (int f : config_.upscale_factors) {
    check(f >= 1, "ZipNet: upscale factors must be >= 1");
    auto block = std::make_unique<nn::Sequential>();
    // Transposed conv: depth kernel 3/stride 1 keeps S; spatial kernel f+2
    // with stride f and padding 1 gives exactly in*f output extent.
    block->emplace<nn::ConvTranspose3d>(
        in_ch, c, std::array<int, 3>{3, f + 2, f + 2},
        std::array<int, 3>{1, f, f}, std::array<int, 3>{1, 1, 1}, rng);
    block->emplace<nn::BatchNorm>(c);
    block->emplace<nn::LeakyReLU>(alpha);
    for (int k = 0; k < config_.convs_per_block; ++k) {
      block->emplace<nn::Conv3d>(c, c, std::array<int, 3>{3, 3, 3},
                                 std::array<int, 3>{1, 1, 1},
                                 std::array<int, 3>{1, 1, 1}, rng);
      block->emplace<nn::BatchNorm>(c);
      block->emplace<nn::LeakyReLU>(alpha);
    }
    upscale_blocks_.push_back(std::move(block));
    in_ch = c;
  }

  // --- Entry convolution: collapse (C·S) feature maps to zipper width ---
  entry_ = std::make_unique<nn::Sequential>();
  entry_->emplace<nn::Conv2d>(c * config_.temporal_length,
                              config_.zipper_channels, 3, 1, 1, rng);
  entry_->emplace<nn::BatchNorm>(config_.zipper_channels);
  entry_->emplace<nn::LeakyReLU>(alpha);

  // --- Zipper modules -----------------------------------------------------
  for (int m = 0; m < config_.zipper_modules; ++m) {
    auto module = std::make_unique<nn::Sequential>();
    module->emplace<nn::Conv2d>(config_.zipper_channels,
                                config_.zipper_channels, 3, 1, 1, rng);
    module->emplace<nn::BatchNorm>(config_.zipper_channels);
    module->emplace<nn::LeakyReLU>(alpha);
    zipper_modules_.push_back(std::move(module));
  }

  // --- Final convolutional blocks: growing widths, then 1-channel output --
  final_ = std::make_unique<nn::Sequential>();
  const std::int64_t f1 = config_.final_channels;
  const std::int64_t f2 = f1 + f1 / 2;
  final_->emplace<nn::Conv2d>(config_.zipper_channels, f1, 3, 1, 1, rng);
  final_->emplace<nn::BatchNorm>(f1);
  final_->emplace<nn::LeakyReLU>(alpha);
  final_->emplace<nn::Conv2d>(f1, f2, 3, 1, 1, rng);
  final_->emplace<nn::BatchNorm>(f2);
  final_->emplace<nn::LeakyReLU>(alpha);
  final_->emplace<nn::Conv2d>(f2, 1, 3, 1, 1, rng);
}

int ZipNet::total_upscale() const {
  int total = 1;
  for (int f : config_.upscale_factors) total *= f;
  return total;
}

Tensor ZipNet::forward(const Tensor& input, bool training) {
  check(input.rank() == 4, "ZipNet expects (N, S, ci, ci) input");
  check(input.dim(1) == config_.temporal_length,
        "ZipNet input temporal length mismatch");
  Cache& cache = cache_slot();
  cache.input_shape = input.shape();
  const std::int64_t n = input.dim(0), s = input.dim(1);

  // (N, S, ci, ci) -> (N, 1, S, ci, ci): one 3-D channel, depth = time.
  Tensor u = input.reshape(
      Shape{n, 1, s, input.dim(2), input.dim(3)});
  for (auto& block : upscale_blocks_) {
    u = block->forward(u, training);
  }

  // Collapse channels × depth into 2-D feature maps.
  const std::int64_t ch = u.dim(1), h = u.dim(3), w = u.dim(4);
  cache.collapsed_shape = Shape{n, ch * s, h, w};
  Tensor x0 = entry_->forward(u.reshape(cache.collapsed_shape), training);

  // Zipper chain: x_i = B_i(x_{i-1}) [+ x_{i-2}]. The activations are only
  // needed while wiring the skips, so the chain is local to forward;
  // backward re-derives the skip routing from indices alone.
  std::vector<Tensor> chain;
  chain.reserve(zipper_modules_.size() + 1);
  chain.push_back(std::move(x0));
  for (std::size_t i = 0; i < zipper_modules_.size(); ++i) {
    Tensor xi = zipper_modules_[i]->forward(chain.back(), training);
    const std::size_t idx = i + 1;  // index of x_i in the chain
    switch (config_.skip_mode) {
      case SkipMode::kZipper:
        if (idx >= 2) xi.add_(chain[idx - 2]);
        break;
      case SkipMode::kResidualPairs:
        if (idx >= 2 && idx % 2 == 0) xi.add_(chain[idx - 2]);
        break;
      case SkipMode::kNone:
        break;
    }
    chain.push_back(std::move(xi));
  }
  cache.forward_ran = true;

  Tensor z = chain.back();
  if (config_.skip_mode != SkipMode::kNone) {
    z = z.add(chain.front());  // global skip
  }

  Tensor out = final_->forward(z, training);  // (N, 1, H, W)
  Tensor result = out.reshape(Shape{n, out.dim(2), out.dim(3)});

  if (config_.residual_base != ZipNetConfig::ResidualBase::kNone) {
    // Most recent coarse frame, upsampled to the output geometry.
    Tensor latest = crop_latest_input(input);
    add_residual_base(result, latest, config_.residual_base,
                      total_upscale());
  }
  return result;
}

Tensor ZipNet::crop_latest_input(const Tensor& input) const {
  return latest_coarse_frame(input);
}

Tensor latest_coarse_frame(const Tensor& input) {
  check(input.rank() == 4, "latest_coarse_frame expects (N, S, ci, ci)");
  const std::int64_t n = input.dim(0), s = input.dim(1);
  const std::int64_t ci_h = input.dim(2), ci_w = input.dim(3);
  Tensor latest(Shape{n, ci_h, ci_w});
  const std::int64_t frame = ci_h * ci_w;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* src = input.data() + ((i * s) + (s - 1)) * frame;
    std::copy(src, src + frame, latest.data() + i * frame);
  }
  return latest;
}

void add_residual_base(Tensor& result, const Tensor& latest,
                       ZipNetConfig::ResidualBase mode, int factor) {
  if (mode == ZipNetConfig::ResidualBase::kNone) return;
  // Accumulate each window's bicubic base straight into its prediction.
  const std::int64_t n = latest.dim(0);
  const std::int64_t h = latest.dim(1), w = latest.dim(2);
  const std::int64_t fine = h * factor * w * factor;
  check(result.size() == n * fine,
        "add_residual_base: prediction/coarse frame size mismatch");
  for (std::int64_t i = 0; i < n; ++i) {
    baselines::bicubic_upsample_into(latest.data() + i * h * w, h, w, factor,
                                     result.data() + i * fine,
                                     /*accumulate=*/true);
  }
}

Tensor ZipNet::backward(const Tensor& grad_output) {
  Cache& cache = cache_slot();
  check(cache.forward_ran, "ZipNet::backward called before forward");
  const std::int64_t n = cache.input_shape.dim(0);
  check(grad_output.rank() == 3 && grad_output.dim(0) == n,
        "ZipNet::backward grad shape mismatch");

  Tensor g = final_->backward(grad_output.reshape(
      Shape{n, 1, grad_output.dim(1), grad_output.dim(2)}));

  // Gradients flowing into each x_i of the zipper chain.
  const std::size_t m = zipper_modules_.size();
  std::vector<Tensor> grad_x(m + 1);
  grad_x[m] = g;
  if (config_.skip_mode != SkipMode::kNone) {
    grad_x[0] = g;  // global skip contribution to x_0
  }

  for (std::size_t idx = m; idx >= 1; --idx) {
    // x_idx = B_idx(x_{idx-1}) [+ x_{idx-2}] — route the incoming gradient
    // through the module and along the skip.
    Tensor gi = grad_x[idx];
    check_internal(!gi.empty(), "zipper backward: missing gradient");
    const bool has_skip =
        (config_.skip_mode == SkipMode::kZipper && idx >= 2) ||
        (config_.skip_mode == SkipMode::kResidualPairs && idx >= 2 &&
         idx % 2 == 0);
    if (has_skip) {
      if (grad_x[idx - 2].empty()) {
        grad_x[idx - 2] = gi;
      } else {
        grad_x[idx - 2].add_(gi);
      }
    }
    Tensor gprev = zipper_modules_[idx - 1]->backward(gi);
    if (grad_x[idx - 1].empty()) {
      grad_x[idx - 1] = std::move(gprev);
    } else {
      grad_x[idx - 1].add_(gprev);
    }
  }

  Tensor gu = entry_->backward(grad_x[0]);

  // Un-collapse to (N, C, S, h, w) and run the 3-D stages in reverse.
  const std::int64_t s = config_.temporal_length;
  const std::int64_t ch = cache.collapsed_shape.dim(1) / s;
  Tensor g5 = gu.reshape(Shape{n, ch, s, cache.collapsed_shape.dim(2),
                               cache.collapsed_shape.dim(3)});
  for (auto it = upscale_blocks_.rbegin(); it != upscale_blocks_.rend();
       ++it) {
    g5 = (*it)->backward(g5);
  }
  Tensor grad_input = g5.reshape(cache.input_shape);

  if (config_.residual_base != ZipNetConfig::ResidualBase::kNone) {
    // Route the residual path's gradient back to the latest coarse frame
    // through the bicubic upsampling's exact adjoint.
    const std::int64_t n = cache.input_shape.dim(0),
                       s = cache.input_shape.dim(1);
    const std::int64_t frame =
        cache.input_shape.dim(2) * cache.input_shape.dim(3);
    for (std::int64_t i = 0; i < n; ++i) {
      float* dst = grad_input.data() + ((i * s) + (s - 1)) * frame;
      Tensor coarse_grad = baselines::bicubic_upsample_adjoint(
          select0(grad_output, i), total_upscale());
      const float* src = coarse_grad.data();
      for (std::int64_t j = 0; j < frame; ++j) dst[j] += src[j];
    }
  }
  return grad_input;
}

ZipNet::Cache& ZipNet::cache_slot() {
  const auto i = static_cast<std::size_t>(nn::replica::cache_index());
  check(i < cache_.size(),
        "ZipNet: replica slot not prepared (call prepare_replica_slots)");
  return cache_[i];
}

void ZipNet::prepare_replica_slots(int count) {
  if (cache_.size() < static_cast<std::size_t>(count)) {
    cache_.resize(static_cast<std::size_t>(count));
  }
  for (auto& block : upscale_blocks_) block->prepare_replica_slots(count);
  entry_->prepare_replica_slots(count);
  for (auto& module : zipper_modules_) module->prepare_replica_slots(count);
  final_->prepare_replica_slots(count);
}

void ZipNet::reduce_replica_slots(int count) {
  for (auto& block : upscale_blocks_) block->reduce_replica_slots(count);
  entry_->reduce_replica_slots(count);
  for (auto& module : zipper_modules_) module->reduce_replica_slots(count);
  final_->reduce_replica_slots(count);
}

std::vector<nn::Parameter*> ZipNet::parameters() {
  std::vector<nn::Parameter*> params;
  auto collect = [&params](nn::Layer& layer) {
    for (nn::Parameter* p : layer.parameters()) params.push_back(p);
  };
  for (auto& block : upscale_blocks_) collect(*block);
  collect(*entry_);
  for (auto& module : zipper_modules_) collect(*module);
  collect(*final_);
  return params;
}

std::vector<std::pair<std::string, Tensor*>> ZipNet::buffers() {
  std::vector<std::pair<std::string, Tensor*>> all;
  auto collect = [&all](nn::Layer& layer) {
    for (auto& buffer : layer.buffers()) all.push_back(std::move(buffer));
  };
  for (auto& block : upscale_blocks_) collect(*block);
  collect(*entry_);
  for (auto& module : zipper_modules_) collect(*module);
  collect(*final_);
  return all;
}

std::string ZipNet::name() const {
  std::ostringstream out;
  out << "ZipNet(S=" << config_.temporal_length << ", x" << total_upscale()
      << ", zipper=" << config_.zipper_modules << "x"
      << config_.zipper_channels << ")";
  return out.str();
}

}  // namespace mtsr::core
