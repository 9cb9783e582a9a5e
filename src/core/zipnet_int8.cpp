#include "src/core/zipnet_int8.hpp"

#include "src/common/check.hpp"
#include "src/common/workspace.hpp"

namespace mtsr::core {
namespace {

// Casts Sequential::layer(i) to the expected concrete type; the generator's
// block structure is fixed by ZipNet's constructor, so a mismatch means the
// conversion walked out of sync with the architecture.
template <typename L>
const L& layer_as(const nn::Sequential& seq, std::size_t i,
                  const char* where) {
  const L* typed = dynamic_cast<const L*>(&seq.layer(i));
  check(typed != nullptr, std::string("ZipNetInt8: unexpected layer type in ") +
                              where + " block");
  return *typed;
}

// dst += src over the channels of two channels-last batches of one
// geometry (each at its own position stride).
void add_rows(const nn::ChannelsLast& dst, const nn::ChannelsLast& src) {
  check(dst.positions() == src.positions() && dst.channels == src.channels,
        "ZipNetInt8: skip connection geometry mismatch");
  for (std::int64_t p = 0; p < dst.positions(); ++p) {
    float* d = dst.data + p * dst.ld;
    const float* s = src.data + p * src.ld;
    for (std::int64_t c = 0; c < dst.channels; ++c) d[c] += s[c];
  }
}

}  // namespace

ZipNetInt8::ZipNetInt8(const ZipNet& generator)
    : config_(generator.config()) {
  const float alpha = config_.lrelu_alpha;

  // 3-D upscaling blocks: [deconv BN lrelu, (conv BN lrelu)*].
  for (const auto& block : generator.upscale_blocks()) {
    Stage3d stage;
    stage.deconv = std::make_unique<nn::QuantConvTranspose3d>(
        layer_as<nn::ConvTranspose3d>(*block, 0, "upscale"),
        &layer_as<nn::BatchNorm>(*block, 1, "upscale"), alpha);
    for (std::size_t i = 3; i + 1 < block->size(); i += 3) {
      stage.convs.push_back(std::make_unique<nn::QuantConv3d>(
          layer_as<nn::Conv3d>(*block, i, "upscale"),
          &layer_as<nn::BatchNorm>(*block, i + 1, "upscale"), alpha));
    }
    upscale_.push_back(std::move(stage));
  }

  // Entry convolution: [conv BN lrelu] over the collapsed (C·S) maps, run
  // as the depth-S 3-D conv over the last stage's channels-last output.
  entry_ = std::make_unique<nn::QuantConv3d>(
      layer_as<nn::Conv2d>(generator.entry_block(), 0, "entry"),
      &layer_as<nn::BatchNorm>(generator.entry_block(), 1, "entry"), alpha,
      static_cast<int>(config_.temporal_length));

  // Zipper modules: [conv BN lrelu] each.
  for (const auto& module : generator.zipper_blocks()) {
    zipper_.push_back(std::make_unique<nn::QuantConv3d>(
        layer_as<nn::Conv2d>(*module, 0, "zipper"),
        &layer_as<nn::BatchNorm>(*module, 1, "zipper"), alpha));
  }

  // Final blocks: two [conv BN lrelu], then the linear output conv.
  const nn::Sequential& fin = generator.final_block();
  check(fin.size() == 7, "ZipNetInt8: unexpected final block length");
  for (std::size_t i = 0; i < 6; i += 3) {
    final_.push_back(std::make_unique<nn::QuantConv3d>(
        layer_as<nn::Conv2d>(fin, i, "final"),
        &layer_as<nn::BatchNorm>(fin, i + 1, "final"), alpha));
  }
  final_.push_back(std::make_unique<nn::QuantConv3d>(
      layer_as<nn::Conv2d>(fin, 6, "final"), nullptr, 1.f));
}

int ZipNetInt8::total_upscale() const {
  int total = 1;
  for (int f : config_.upscale_factors) total *= f;
  return total;
}

Tensor ZipNetInt8::forward_calibrate(const Tensor& input) {
  check(!frozen_, "ZipNetInt8::forward_calibrate after freeze()");
  return run(input, /*quantised=*/false);
}

Tensor ZipNetInt8::forward(const Tensor& input) {
  check(frozen_, "ZipNetInt8::forward before freeze() — calibrate first");
  return run(input, /*quantised=*/true);
}

void ZipNetInt8::freeze() {
  check(!frozen_, "ZipNetInt8: already frozen");
  for (Stage3d& stage : upscale_) {
    stage.deconv->freeze();
    for (auto& conv : stage.convs) conv->freeze();
  }
  entry_->freeze();
  for (auto& module : zipper_) module->freeze();
  for (auto& conv : final_) conv->freeze();
  frozen_ = true;
}

std::unique_ptr<ZipNetInt8> ZipNetInt8::convert(
    const ZipNet& generator, const std::vector<Tensor>& calibration) {
  check(!calibration.empty(),
        "ZipNetInt8::convert: calibration batches required (activation "
        "scales are data-dependent)");
  auto net = std::make_unique<ZipNetInt8>(generator);
  for (const Tensor& batch : calibration) {
    (void)net->forward_calibrate(batch);
  }
  net->freeze();
  return net;
}

Tensor ZipNetInt8::run(const Tensor& input, bool quantised) {
  check(input.rank() == 4, "ZipNetInt8 expects (N, S, ci, ci) input");
  check(input.dim(1) == config_.temporal_length,
        "ZipNetInt8 input temporal length mismatch");
  const std::int64_t n = input.dim(0), s = input.dim(1);
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  // Calibration runs the float layers, whose lowering scratch dwarfs the
  // activations: their outputs move to the heap (as the float network's
  // do), so each layer's scratch starts from a drained arena.
  std::vector<std::vector<float>> spilled;
  const auto fwd = [&](auto& layer, const nn::ChannelsLast& x,
                       float* out = nullptr) {
    if (quantised) return layer.forward(x, ws, out);
    nn::ChannelsLast y;
    {
      Workspace::Scope layer_scope(ws);
      y = layer.forward_calibrate(x, ws);
      spilled.emplace_back(y.data, y.data + y.positions() * y.ld);
    }
    y.data = spilled.back().data();
    return y;
  };

  // The entry conv's output x_0 outlives the 3-D stages, so its int8
  // buffer is carved first and the stages' activations are released when
  // they end. Every 3-D stage keeps the spatial extent it upscales to, and
  // the entry conv is same-padded: x_0 is (N, ci·Πf, ci·Πf, Z).
  const std::int64_t fine_h = input.dim(2) * total_upscale();
  const std::int64_t fine_w = input.dim(3) * total_upscale();
  float* x0_rows =
      quantised ? ws.alloc(n * fine_h * fine_w * entry_->out_stride())
                : nullptr;
  nn::ChannelsLast x0;
  {
    Workspace::Scope stages(ws);
    // (N, S, ci, ci) is the one-channel channels-last batch
    // (N, S, ci, ci, 1): depth = time. Read-only — layers never write their
    // input.
    nn::ChannelsLast u{const_cast<float*>(input.data()), n, s, input.dim(2),
                       input.dim(3), 1, 1};
    for (Stage3d& stage : upscale_) {
      u = fwd(*stage.deconv, u);
      for (auto& conv : stage.convs) u = fwd(*conv, u);
    }
    // Collapse channels × depth into 2-D feature maps: the entry conv's
    // depth-S kernel spans the whole stage output, leaving depth 1.
    check(u.h == fine_h && u.w == fine_w,
          "ZipNetInt8: 3-D stages did not reach the output extent");
    x0 = fwd(*entry_, u, x0_rows);
  }
  // Calibration spilled x_0 last; the stages' spilled activations go too.
  if (!quantised) spilled.erase(spilled.begin(), spilled.end() - 1);

  // Zipper chain: x_i = B_i(x_{i-1}) [+ x_{i-2}] — float adds, exactly as
  // the float generator wires them.
  std::vector<nn::ChannelsLast> chain;
  chain.reserve(zipper_.size() + 1);
  chain.push_back(x0);
  for (std::size_t i = 0; i < zipper_.size(); ++i) {
    nn::ChannelsLast xi = fwd(*zipper_[i], chain.back());
    const std::size_t idx = i + 1;
    switch (config_.skip_mode) {
      case SkipMode::kZipper:
        if (idx >= 2) add_rows(xi, chain[idx - 2]);
        break;
      case SkipMode::kResidualPairs:
        if (idx >= 2 && idx % 2 == 0) add_rows(xi, chain[idx - 2]);
        break;
      case SkipMode::kNone:
        break;
    }
    chain.push_back(xi);
  }

  // The last chain entry is dead after this point, so the global skip can
  // accumulate into it.
  nn::ChannelsLast z = chain.back();
  if (config_.skip_mode != SkipMode::kNone) add_rows(z, chain.front());

  for (auto& conv : final_) z = fwd(*conv, z);
  // One output channel: gather it into the (N, H, W) prediction.
  Tensor result(Shape{n, z.h, z.w});
  float* dst = result.data();
  for (std::int64_t p = 0; p < result.size(); ++p) dst[p] = z.data[p * z.ld];

  if (config_.residual_base != ZipNetConfig::ResidualBase::kNone) {
    // Same shared helpers as ZipNet::forward, so the mirror cannot
    // diverge from the float generator's residual-base handling.
    Tensor latest = latest_coarse_frame(input);
    add_residual_base(result, latest, config_.residual_base,
                      total_upscale());
  }
  return result;
}

}  // namespace mtsr::core
