#include "src/serving/model.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/baselines/super_resolver.hpp"
#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/common/workspace.hpp"
#include "src/core/zipnet.hpp"
#include "src/core/zipnet_int8.hpp"
#include "src/data/augmentation.hpp"
#include "src/nn/model_io.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::serving {

std::shared_ptr<Model> Model::load_checkpoint(const std::string& path) const {
  throw ContractViolation("model \"" + name() +
                          "\" does not support checkpoint reload (" + path +
                          ")");
}

namespace {
// Generations are process-unique, not per-slot: dedup keys embed the slot
// address + generation, and a per-slot counter restarting at 1 could alias
// a freed slot's keys if the allocator reuses the address.
std::atomic<std::uint64_t> g_slot_generation{0};
}  // namespace

ModelSlot::ModelSlot(std::shared_ptr<Model> model)
    : current_(std::move(model)), generation_(++g_slot_generation) {
  check(current_ != nullptr, "ModelSlot: null model");
}

ModelSlot::Ref ModelSlot::acquire() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Ref{current_, generation_};
}

void ModelSlot::swap(std::shared_ptr<Model> next) {
  check(next != nullptr, "ModelSlot::swap: null model");
  std::lock_guard<std::mutex> lock(mutex_);
  current_ = std::move(next);
  generation_ = ++g_slot_generation;
}

ZipNetModel::ZipNetModel(core::ZipNet& generator, std::string name)
    : generator_(&generator), name_(std::move(name)) {
  check(!name_.empty(), "ZipNetModel: empty model name");
}

ZipNetModel::ZipNetModel(std::unique_ptr<core::ZipNet> generator,
                         std::string name)
    : owned_(std::move(generator)), generator_(owned_.get()),
      name_(std::move(name)) {
  check(generator_ != nullptr, "ZipNetModel: null generator");
  check(!name_.empty(), "ZipNetModel: empty model name");
}

ZipNetModel::~ZipNetModel() = default;

std::int64_t ZipNetModel::temporal_length() const {
  return generator_->config().temporal_length;
}

void ZipNetModel::validate(const StreamContext& stream) const {
  check(stream.layout != nullptr, "ZipNetModel: stream has no probe layout");
  check(stream.temporal_length == temporal_length(),
        "ZipNetModel: stream temporal length differs from the generator's S");
  const std::int64_t predicted =
      stream.layout->input_side() * generator_->total_upscale();
  check(predicted == stream.window,
        "ZipNetModel: generator upscale does not map the layout's input "
        "side onto the stream window");
}

Tensor ZipNetModel::predict(const WindowBatch& batch,
                            const StreamContext& stream) {
  (void)stream;
  check(batch.coarse.rank() == 4, "ZipNetModel: expected (B, S, ci, ci)");
  return generator_->forward(batch.coarse, /*training=*/false);
}

std::shared_ptr<Model> ZipNetModel::load_checkpoint(
    const std::string& path) const {
  // The replacement mirrors the serving architecture; the checkpoint then
  // overwrites every parameter and buffer, so the init seed is irrelevant.
  core::ZipNetConfig config = generator_->config();
  Rng rng(0);
  auto net = std::make_unique<core::ZipNet>(config, rng);
  try {
    nn::load_model(path, *net);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("reload of model \"" + name_ +
                             "\" rejected checkpoint " + path + ": " +
                             e.what());
  }
  return std::make_shared<ZipNetModel>(std::move(net), name_);
}

ZipNetInt8Model::ZipNetInt8Model(std::unique_ptr<core::ZipNetInt8> net,
                                 std::string name)
    : net_(std::move(net)), name_(std::move(name)) {
  check(net_ != nullptr, "ZipNetInt8Model: null network");
  check(net_->frozen(),
        "ZipNetInt8Model: network must be frozen (calibrate + freeze, or "
        "use quantize_generator)");
  check(!name_.empty(), "ZipNetInt8Model: empty model name");
}

ZipNetInt8Model::~ZipNetInt8Model() = default;

std::int64_t ZipNetInt8Model::temporal_length() const {
  return net_->temporal_length();
}

void ZipNetInt8Model::validate(const StreamContext& stream) const {
  check(stream.layout != nullptr,
        "ZipNetInt8Model: stream has no probe layout");
  check(stream.temporal_length == temporal_length(),
        "ZipNetInt8Model: stream temporal length differs from the "
        "generator's S");
  const std::int64_t predicted =
      stream.layout->input_side() * net_->total_upscale();
  check(predicted == stream.window,
        "ZipNetInt8Model: generator upscale does not map the layout's "
        "input side onto the stream window");
}

Tensor ZipNetInt8Model::predict(const WindowBatch& batch,
                                const StreamContext& stream) {
  (void)stream;
  check(batch.coarse.rank() == 4, "ZipNetInt8Model: expected (B, S, ci, ci)");
  return net_->forward(batch.coarse);
}

std::shared_ptr<ZipNetInt8Model> quantize_generator(
    const core::ZipNet& generator, const std::vector<Tensor>& calibration,
    std::string name) {
  // Conversion runs float forwards through the mirror; scope the arena so
  // a long-lived caller (engine set-up code) does not keep the calibration
  // high-water mark alive.
  Workspace::Scope scope(Workspace::tls());
  return std::make_shared<ZipNetInt8Model>(
      core::ZipNetInt8::convert(generator, calibration), std::move(name));
}

std::vector<Tensor> calibration_batches(const data::TrafficDataset& dataset,
                                        const data::ProbeLayout& layout,
                                        std::int64_t temporal_length,
                                        std::int64_t window,
                                        std::int64_t frames) {
  check(frames > 0, "calibration_batches: need at least one frame");
  check(layout.rows() == window && layout.cols() == window,
        "calibration_batches: layout geometry must match the window");
  const data::SplitRange train = dataset.train_range();
  const std::int64_t first = train.begin + temporal_length - 1;
  check(first < train.end,
        "calibration_batches: training split shorter than S");
  const std::int64_t available = train.end - first;
  const std::int64_t count = std::min<std::int64_t>(frames, available);

  // Window origins: the four corners plus the centre, clamped to the grid
  // — enough spatial diversity to bracket each layer's activation range.
  const std::int64_t max_r = dataset.rows() - window;
  const std::int64_t max_c = dataset.cols() - window;
  check(max_r >= 0 && max_c >= 0,
        "calibration_batches: window larger than the grid");
  const std::pair<std::int64_t, std::int64_t> origins[] = {
      {0, 0},
      {0, max_c},
      {max_r, 0},
      {max_r, max_c},
      {max_r / 2, max_c / 2}};

  std::vector<Tensor> batches;
  batches.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    // Spread evenly over the training split.
    const std::int64_t t = first + i * available / count;
    std::vector<Tensor> inputs;
    for (const auto& [r0, c0] : origins) {
      data::Sample sample = data::make_sample(
          dataset, layout, data::SampleSpec{t, r0, c0}, temporal_length,
          window);
      inputs.push_back(std::move(sample.input));
    }
    batches.push_back(stack0(inputs));
  }
  return batches;
}

BaselineModel::BaselineModel(const baselines::SuperResolver& resolver)
    : resolver_(&resolver) {}

BaselineModel::BaselineModel(
    std::unique_ptr<baselines::SuperResolver> resolver)
    : owned_(std::move(resolver)), resolver_(owned_.get()) {
  check(resolver_ != nullptr, "BaselineModel: null resolver");
}

BaselineModel::~BaselineModel() = default;

std::string BaselineModel::name() const { return resolver_->name(); }

Tensor BaselineModel::predict(const WindowBatch& batch,
                              const StreamContext& stream) {
  check(stream.layout != nullptr, "BaselineModel: stream has no probe layout");
  check(batch.fine_raw.rank() == 3 && batch.fine_raw.dim(1) == stream.window &&
            batch.fine_raw.dim(2) == stream.window,
        "BaselineModel: expected (B, w, w) raw fine crops");
  const std::int64_t n = batch.fine_raw.dim(0);
  const std::int64_t w = stream.window;
  Tensor out(Shape{n, w, w});
  Tensor window{Shape{w, w}};
  for (std::int64_t b = 0; b < n; ++b) {
    std::memcpy(window.data(), batch.fine_raw.data() + b * w * w,
                sizeof(float) * static_cast<std::size_t>(w * w));
    // The resolver models the measurement internally: it derives the probe
    // aggregates from the fine crop via the layout, exactly as the offline
    // comparison path does, then reconstructs the fine window.
    Tensor raw = resolver_->super_resolve(window, *stream.layout);
    check(raw.rank() == 2 && raw.dim(0) == w && raw.dim(1) == w,
          "BaselineModel: resolver returned wrong shape");
    // Normalise into the engine's stitch currency (the session averages
    // overlapping windows in normalised units and denormalises once).
    Tensor norm =
        data::normalize_frame(raw, stream.stats, stream.log_transform);
    std::memcpy(out.data() + b * w * w, norm.data(),
                sizeof(float) * static_cast<std::size_t>(w * w));
  }
  return out;
}

}  // namespace mtsr::serving
