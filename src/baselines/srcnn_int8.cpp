#include "src/baselines/srcnn_int8.hpp"

#include "src/baselines/bicubic.hpp"
#include "src/common/check.hpp"
#include "src/common/workspace.hpp"
#include "src/nn/conv2d.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::baselines {
namespace {

// Casts Sequential::layer(i) to the expected concrete type; the 9-1-5
// stack is fixed by Srcnn::fit, so a mismatch means the conversion walked
// out of sync with the architecture.
template <typename L>
const L& layer_as(const nn::Sequential& seq, std::size_t i) {
  const L* typed = dynamic_cast<const L*>(&seq.layer(i));
  check(typed != nullptr, "SrcnnInt8: unexpected layer type in 9-1-5 stack");
  return *typed;
}

}  // namespace

SrcnnInt8::SrcnnInt8(const Srcnn& srcnn)
    : mean_(srcnn.mean()), stddev_(srcnn.stddev()) {
  const nn::Sequential* net = srcnn.network();
  check(net != nullptr, "SrcnnInt8: Srcnn must be fitted before conversion");
  check(net->size() == 5, "SrcnnInt8: unexpected SRCNN stack length");
  // conv(9) → ReLU, conv(1) → ReLU, conv(5) linear. The ReLUs become
  // fused LeakyReLU epilogues with slope 0 (max(y, 0·y) == max(y, 0)).
  layers_.push_back(std::make_unique<nn::QuantConv3d>(
      layer_as<nn::Conv2d>(*net, 0), nullptr, 0.f));
  layers_.push_back(std::make_unique<nn::QuantConv3d>(
      layer_as<nn::Conv2d>(*net, 2), nullptr, 0.f));
  layers_.push_back(std::make_unique<nn::QuantConv3d>(
      layer_as<nn::Conv2d>(*net, 4), nullptr, 1.f));
}

void SrcnnInt8::fit(const std::vector<Tensor>& fine_frames,
                    const data::ProbeLayout& layout) {
  (void)fine_frames;
  (void)layout;
  check(false,
        "SrcnnInt8 is inference-only: fit the float Srcnn, then "
        "SrcnnInt8::convert");
}

Tensor SrcnnInt8::super_resolve_calibrate(const Tensor& fine_frame,
                                          const data::ProbeLayout& layout) {
  check(!frozen_, "SrcnnInt8::super_resolve_calibrate after freeze()");
  return run(fine_frame, layout, /*quantised=*/false);
}

void SrcnnInt8::freeze() {
  check(!frozen_, "SrcnnInt8: already frozen");
  for (auto& layer : layers_) layer->freeze();
  frozen_ = true;
}

Tensor SrcnnInt8::super_resolve(const Tensor& fine_frame,
                                const data::ProbeLayout& layout) const {
  check(frozen_, "SrcnnInt8::super_resolve before freeze() — calibrate first");
  return run(fine_frame, layout, /*quantised=*/true);
}

std::unique_ptr<SrcnnInt8> SrcnnInt8::convert(
    const Srcnn& srcnn, const std::vector<Tensor>& calibration,
    const data::ProbeLayout& layout) {
  check(!calibration.empty(),
        "SrcnnInt8::convert: calibration frames required (activation "
        "scales are data-dependent)");
  auto net = std::make_unique<SrcnnInt8>(srcnn);
  for (const Tensor& frame : calibration) {
    Workspace::Scope scope(Workspace::tls());
    (void)net->super_resolve_calibrate(frame, layout);
  }
  net->freeze();
  return net;
}

// Mirrors Srcnn::super_resolve: bicubic upscale, normalise, 9-1-5 network
// (quantised or calibrating), denormalise.
Tensor SrcnnInt8::run(const Tensor& fine_frame, const data::ProbeLayout& layout,
                      bool quantised) const {
  BicubicInterpolator bicubic;
  Tensor mid = bicubic.super_resolve(fine_frame, layout);
  const std::int64_t rows = mid.dim(0), cols = mid.dim(1);
  mid.add_scalar_(static_cast<float>(-mean_));
  mid.mul_scalar_(static_cast<float>(1.0 / stddev_));
  // One channel: the (1, rows, cols, 1) channels-last batch the quantised
  // layers take is the frame itself.
  Tensor x = mid.reshape(Shape{1, rows, cols, 1});
  Workspace::Scope ws_scope(Workspace::tls());
  for (auto& layer : layers_) {
    x = quantised ? layer->forward(x) : layer->forward_calibrate(x);
  }
  Tensor out = x.reshape(Shape{rows, cols});
  out.mul_scalar_(static_cast<float>(stddev_));
  out.add_scalar_(static_cast<float>(mean_));
  return out;
}

}  // namespace mtsr::baselines
