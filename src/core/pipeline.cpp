#include "src/core/pipeline.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/nn/model_io.hpp"
#include "src/serving/model.hpp"

namespace mtsr::core {

MtsrPipeline::MtsrPipeline(PipelineConfig config,
                           const data::TrafficDataset& dataset)
    : config_(std::move(config)), dataset_(dataset) {
  check(config_.window > 0 && config_.window <= dataset.rows() &&
            config_.window <= dataset.cols(),
        "MtsrPipeline: window must fit the grid");
  check(config_.temporal_length >= 1, "MtsrPipeline: S must be >= 1");

  window_layout_ =
      data::make_layout(config_.instance, config_.window, config_.window);
  const std::int64_t input_side = window_layout_->input_side();
  check(config_.window % input_side == 0,
        "MtsrPipeline: window must be an integer multiple of the input side");
  const int total_factor = static_cast<int>(config_.window / input_side);

  ZipNetConfig zc = config_.zipnet;
  zc.temporal_length = config_.temporal_length;
  zc.upscale_factors = upscale_stages(total_factor);
  if (config_.instance == data::MtsrInstance::kMixture) {
    // The mixture input square is a zone-ordered projection, not a spatial
    // downsampling — an upsampled residual base would be misaligned.
    zc.residual_base = ZipNetConfig::ResidualBase::kNone;
  }
  config_.zipnet = zc;

  Rng rng(config_.seed);
  generator_ = std::make_unique<ZipNet>(zc, rng);
  discriminator_ = std::make_unique<Discriminator>(config_.discriminator, rng);
  trainer_ = std::make_unique<GanTrainer>(*generator_, *discriminator_,
                                          config_.trainer);
}

SampleSource MtsrPipeline::make_sample_source(data::SplitRange range) const {
  const std::int64_t s = config_.temporal_length;
  const std::int64_t window = config_.window;
  const std::int64_t t_lo = std::max(range.begin, s - 1);
  check(t_lo < range.end, "make_sample_source: split too short for S");
  const data::TrafficDataset& dataset = dataset_;
  const data::ProbeLayout& layout = *window_layout_;
  return [&dataset, &layout, s, window, t_lo, range](Rng& rng) {
    data::SampleSpec spec;
    spec.t = rng.uniform_int(t_lo, range.end - 1);
    spec.r0 = rng.uniform_int(0, dataset.rows() - window);
    spec.c0 = rng.uniform_int(0, dataset.cols() - window);
    return data::make_sample(dataset, layout, spec, s, window);
  };
}

void MtsrPipeline::train() {
  train_pretrain_only();
  const SampleSource source = make_sample_source(dataset_.train_range());
  gan_history_ = trainer_->train(source, config_.gan_rounds);
}

void MtsrPipeline::train_pretrain_only() {
  const SampleSource source = make_sample_source(dataset_.train_range());
  // Two-phase MSE pre-training: full rate for the first 60% of the steps,
  // then a 5x decay to settle (the loss plateau otherwise oscillates at
  // CPU-scale learning rates).
  const int phase1 = config_.pretrain_steps * 3 / 5;
  const int phase2 = config_.pretrain_steps - phase1;
  pretrain_losses_ = trainer_->pretrain(source, phase1);
  trainer_->set_generator_learning_rate(config_.trainer.learning_rate * 0.2f);
  auto tail = trainer_->pretrain(source, phase2);
  pretrain_losses_.insert(pretrain_losses_.end(), tail.begin(), tail.end());
}

void MtsrPipeline::save_generator(const std::string& path) {
  nn::save_model(path, *generator_);
}

void MtsrPipeline::load_generator(const std::string& path) {
  try {
    nn::load_model(path, *generator_);
  } catch (const std::runtime_error& e) {
    // Name the generator the checkpoint was matched against: the usual
    // cause is a pipeline config (widths, modules, upscale stages) that
    // differs from the one the checkpoint was trained with.
    throw std::runtime_error(
        "load_generator(" + path +
        "): checkpoint does not match the configured generator \"" +
        generator_->name() + "\": " + e.what());
  }
}

void MtsrPipeline::ensure_serving() {
  if (engine_) return;
  const std::int64_t stride =
      config_.stitch_stride > 0 ? config_.stitch_stride : config_.window / 2;
  engine_ = std::make_unique<serving::Engine>();
  engine_->register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(*generator_));
  serving::SessionConfig session = serving::SessionConfig::from_dataset(
      "zipnet", config_.instance, dataset_, config_.window,
      std::max<std::int64_t>(stride, 1));
  session_ = engine_->open_session(std::move(session));
}

serving::Engine& MtsrPipeline::engine() {
  ensure_serving();
  return *engine_;
}

Tensor MtsrPipeline::predict_frame(std::int64_t t) {
  const std::int64_t s = config_.temporal_length;
  check(t >= s - 1 && t < dataset_.frame_count(),
        "predict_frame: t out of range");
  ensure_serving();
  serving::Session& session = engine_->session(session_);
  std::optional<Tensor> result;
  try {
    if (t == streamed_t_ + 1 && session.frames_until_ready() == 0) {
      // Consecutive frame: the session already holds [t-S+1, t-1] coarsened.
      result = session.push(dataset_.frame(t));
    } else {
      session.reset();
      for (std::int64_t f = t - s + 1; f <= t; ++f) {
        result = session.push(dataset_.frame(f));
      }
    }
  } catch (...) {
    // The session history may have advanced past streamed_t_; drop it so a
    // retry cannot take the consecutive-frame fast path against a history
    // that no longer matches.
    session.reset();
    streamed_t_ = -1;
    throw;
  }
  streamed_t_ = t;
  check_internal(result.has_value(), "predict_frame: session not warm");
  return std::move(*result);
}

metrics::MetricAccumulator MtsrPipeline::evaluate(std::int64_t max_frames) {
  const data::SplitRange range = dataset_.test_range();
  const std::int64_t t_lo = std::max(range.begin, config_.temporal_length - 1);
  check(t_lo < range.end, "evaluate: test split too short");
  const std::int64_t available = range.end - t_lo;
  const std::int64_t count = std::min<std::int64_t>(max_frames, available);
  check(count > 0, "evaluate: nothing to evaluate");
  const std::int64_t step = std::max<std::int64_t>(available / count, 1);

  metrics::MetricAccumulator acc(dataset_.peak());
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t t = t_lo + i * step;
    if (t >= range.end) break;
    acc.add(predict_frame(t), dataset_.frame(t));
  }
  return acc;
}

}  // namespace mtsr::core
