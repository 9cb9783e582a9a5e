// serving::Model — the single vtable every inference method stands behind.
//
// The paper's deployment story (Section 6) is a gateway that continuously
// turns coarse probe aggregates into fine-grained traffic maps. The engine
// serves that workload through one interface: the deep ZipNet generator and
// every shallow SuperResolver baseline adapt to the same window-batch
// contract, so a session can be switched between methods by name without
// touching the feed or stitch code.
//
// Contract: a model maps one gathered batch of windows to normalised fine
// windows (B, w, w). The session owns the stream state (history,
// normalisation, stitching); the model is stateless between calls apart
// from its own weights, which makes one model instance shareable across
// every session of an engine.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "src/data/dataset.hpp"
#include "src/data/probes.hpp"
#include "src/tensor/tensor.hpp"

namespace mtsr::core {
class ZipNet;
class ZipNetInt8;
}
namespace mtsr::baselines {
class SuperResolver;
}

namespace mtsr::serving {

/// Geometry and normalisation of one stream, fixed when a session opens.
/// `layout` is the window-local probe layout (built for window × window).
struct StreamContext {
  const data::ProbeLayout* layout = nullptr;
  std::int64_t window = 0;           ///< fine window side w
  std::int64_t temporal_length = 1;  ///< S frames the session holds
  data::NormStats stats;             ///< training-split statistics
  bool log_transform = true;
};

/// Which gathered views a model consumes. The session gathers only what the
/// model asks for, so deep models never pay for raw fine crops and
/// single-snapshot baselines never pay for coarse history.
struct ModelInputs {
  bool coarse_history = true;  ///< (B, S, ci, ci) normalised coarse windows
  bool fine_latest = false;    ///< (B, w, w) raw-MB crops of the newest frame
};

/// One gathered block of windows. Tensors the model did not request are
/// empty.
struct WindowBatch {
  Tensor coarse;    ///< (B, S, ci, ci), normalised units
  Tensor fine_raw;  ///< (B, w, w), raw MB
};

/// Interface over every serving-capable inference method.
class Model {
 public:
  virtual ~Model() = default;

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Frames of history a session must accumulate before predicting (S for
  /// the temporal deep models, 1 for single-snapshot baselines).
  [[nodiscard]] virtual std::int64_t temporal_length() const = 0;

  [[nodiscard]] virtual ModelInputs inputs() const = 0;

  /// Throws ContractViolation when the model cannot serve this stream
  /// geometry (called once at session open).
  virtual void validate(const StreamContext& stream) const { (void)stream; }

  /// Maps one gathered window batch to (B, w, w) normalised fine windows.
  /// Calls on one instance are serialised by the engine (the scheduler's
  /// shards hold predict_mutex() across the call), so implementations may
  /// keep forward caches without locking. The batch may fuse blocks of
  /// several sessions (Engine::push_all): implementations must be
  /// per-sample pure — row b of the output depends only on row b of the
  /// inputs.
  [[nodiscard]] virtual Tensor predict(const WindowBatch& batch,
                                       const StreamContext& stream) = 0;

  /// Serialises predict() across scheduler shards that share this
  /// instance. The scheduler locks it around every predict call; sessions
  /// of ONE shard never contend (serve_shard is single-threaded per
  /// shard), so the lock is uncontended unless two shards really do serve
  /// the same weights concurrently.
  [[nodiscard]] std::mutex& predict_mutex() const { return predict_mutex_; }

  /// Builds a REPLACEMENT model of the same architecture from a checkpoint
  /// (Engine::reload_model). Implementations must construct the new
  /// instance entirely off to the side and throw on any load error — the
  /// model currently serving is never touched, so a failed reload leaves
  /// serving bit-identical. Called on the reload thread, possibly while
  /// the serving thread is inside predict() on this same instance: read
  /// only state that is immutable after construction (architecture
  /// config, weights), never lock-free forward caches. The default
  /// refuses (not every method has checkpoint weights).
  [[nodiscard]] virtual std::shared_ptr<Model> load_checkpoint(
      const std::string& path) const;

 protected:
  Model() = default;

 private:
  mutable std::mutex predict_mutex_;  ///< cross-shard predict serialisation
};

/// One mutable registry entry: the model a name currently resolves to plus
/// a generation counter bumped on every hot-reload. Sessions hold the slot
/// (not the model) and re-resolve via acquire() at every stitch-block
/// boundary, which is what makes Engine::reload_model atomic: the swap
/// lands between blocks, never inside a predict, and in-flight blocks keep
/// the old model alive through their shared_ptr. swap()/acquire() are the
/// one cross-thread point of the serving layer (reload may run concurrently
/// with serving) and are mutex-serialised.
class ModelSlot {
 public:
  /// A resolved model plus the generation it was read at (the generation
  /// feeds dedup keys, so memoised predictions never outlive the weights
  /// that produced them).
  struct Ref {
    std::shared_ptr<Model> model;
    std::uint64_t generation = 0;
  };

  explicit ModelSlot(std::shared_ptr<Model> model);
  ModelSlot(const ModelSlot&) = delete;
  ModelSlot& operator=(const ModelSlot&) = delete;

  [[nodiscard]] Ref acquire() const;
  void swap(std::shared_ptr<Model> next);

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<Model> current_;
  std::uint64_t generation_;  ///< process-unique (see model.cpp)
};

/// Adapter over the trained ZipNet generator. Non-owning by default (the
/// generator, typically owned by a MtsrPipeline, must outlive the model);
/// the unique_ptr constructor owns — checkpoint hot-reload builds owning
/// replacements, so a reloaded generator lives exactly as long as the
/// sessions it serves.
class ZipNetModel final : public Model {
 public:
  explicit ZipNetModel(core::ZipNet& generator, std::string name = "zipnet");
  explicit ZipNetModel(std::unique_ptr<core::ZipNet> generator,
                       std::string name = "zipnet");
  ~ZipNetModel() override;

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::int64_t temporal_length() const override;
  [[nodiscard]] ModelInputs inputs() const override {
    return {/*coarse_history=*/true, /*fine_latest=*/false};
  }
  void validate(const StreamContext& stream) const override;
  [[nodiscard]] Tensor predict(const WindowBatch& batch,
                               const StreamContext& stream) override;
  /// Mirrors the serving generator's architecture into a fresh network and
  /// restores `path` into it (all-or-nothing; errors name the first
  /// diverging parameter with expected-vs-checkpoint shapes).
  [[nodiscard]] std::shared_ptr<Model> load_checkpoint(
      const std::string& path) const override;

 private:
  std::unique_ptr<core::ZipNet> owned_;
  core::ZipNet* generator_;
  std::string name_;
};

/// Adapter over the int8-quantised generator (core::ZipNetInt8). Owning:
/// the quantised network exists only to serve. Interchangeable with
/// ZipNetModel in any session — same window-batch contract, same stitch —
/// at ~4x lower weight memory traffic; register it as "zipnet-int8" beside
/// the float "zipnet" and switch streams by name.
class ZipNetInt8Model final : public Model {
 public:
  /// `net` must be frozen (ZipNetInt8::convert does calibrate + freeze).
  explicit ZipNetInt8Model(std::unique_ptr<core::ZipNetInt8> net,
                           std::string name = "zipnet-int8");
  ~ZipNetInt8Model() override;

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::int64_t temporal_length() const override;
  [[nodiscard]] ModelInputs inputs() const override {
    return {/*coarse_history=*/true, /*fine_latest=*/false};
  }
  void validate(const StreamContext& stream) const override;
  [[nodiscard]] Tensor predict(const WindowBatch& batch,
                               const StreamContext& stream) override;

 private:
  std::unique_ptr<core::ZipNetInt8> net_;
  std::string name_;
};

/// One-shot int8 conversion of a trained generator into a serving model:
/// mirrors the architecture, calibrates activation scales over
/// `calibration` ((B, S, ci, ci) normalised coarse-window batches — see
/// calibration_batches), quantises + packs the weights once, and wraps the
/// frozen network as a registrable Model.
[[nodiscard]] std::shared_ptr<ZipNetInt8Model> quantize_generator(
    const core::ZipNet& generator, const std::vector<Tensor>& calibration,
    std::string name = "zipnet-int8");

/// Gathers calibration batches for quantize_generator from up to `frames`
/// training-split frames of a dataset: each batch stacks a handful of
/// stitch-geometry coarse window sequences ((B, S, ci, ci), normalised),
/// i.e. exactly what a serving session feeds the model.
[[nodiscard]] std::vector<Tensor> calibration_batches(
    const data::TrafficDataset& dataset, const data::ProbeLayout& layout,
    std::int64_t temporal_length, std::int64_t window, std::int64_t frames);

/// Adapter over any SuperResolver baseline (single-snapshot: S = 1). The
/// resolver reconstructs each raw fine window from its probe aggregates;
/// the adapter normalises the result so baselines share the engine's
/// stitch currency with the deep models.
class BaselineModel final : public Model {
 public:
  /// Non-owning; `resolver` must outlive the model.
  explicit BaselineModel(const baselines::SuperResolver& resolver);
  /// Owning.
  explicit BaselineModel(std::unique_ptr<baselines::SuperResolver> resolver);
  ~BaselineModel() override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::int64_t temporal_length() const override { return 1; }
  [[nodiscard]] ModelInputs inputs() const override {
    return {/*coarse_history=*/false, /*fine_latest=*/true};
  }
  [[nodiscard]] Tensor predict(const WindowBatch& batch,
                               const StreamContext& stream) override;

 private:
  std::unique_ptr<baselines::SuperResolver> owned_;
  const baselines::SuperResolver* resolver_;
};

}  // namespace mtsr::serving
