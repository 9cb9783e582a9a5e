// online::Trainer — the continuous-learning service: train-while-serve.
//
// ZipNet-GAN is trained once offline, but live traffic drifts by hour and
// by season; a frozen generator degrades as the measured city moves away
// from what it saw in training. The trainer closes the loop the serving
// stack left open:
//
//   serving sessions --Engine frame sink--> FrameTap (bounded, drop-oldest)
//        ^                                        |
//        |                              trainer thread: recency-weighted
//   Engine::reload_model  <-- holdout gate <-- fine-tune rounds (GanTrainer)
//
// The trainer owns a CLONE of the serving generator (same architecture,
// weights copied at attach), fine-tunes it on frames snapshotted from the
// tap, and periodically emits an atomic checkpoint. A candidate only
// reaches serving through the holdout gate: the newest `holdout_frames`
// tapped frames are reserved (never trained on) and the candidate's NRMSE
// on them must not regress past `max_nrmse_regression` relative to the
// weights currently serving — a degrading fine-tune run leaves serving
// bit-identical. Promotion goes through Engine::reload_model, so open
// sessions pick the new weights up at their next stitch-block boundary
// with zero dropped or duplicated blocks (PR 5's hot-reload contract).
//
// One execution mode: both drivers — the background thread and
// run_rounds() — run every round inside a detail::NestedParallelRegion, so
// each parallel_for the round issues executes serially on the calling
// thread and never contends for the pool's in-flight task. The fine-tune
// kernels are too small to pay for a pool fan-out, and serving latency is
// untouched. The fine-tune step is GanTrainer's sliced step with
// `config.trainer.replicas` workers; the default of 1 runs the slices
// inline, so the pool never sees the fine-tune. Larger budgets (or 0,
// auto) start at most one worker per pool shard: on a one-shard pool they
// run inline like the default; on a sharded pool the workers enqueue slice
// forwards/backwards on the shard runner queues via run_on_shard,
// interleaving with dispatch rounds in queue order — training then shares
// the shards, bounded by queue fairness; bench_online records the p99
// impact. Fine-tuned weights are bit-identical for every budget and every
// pool size.
//
// Threading contract: start()/stop() and run_rounds() are caller-thread
// operations and must not overlap each other; while the background thread
// runs, the serving thread may keep calling push/push_all/push_fused and
// stats() freely (promotion uses the reload/stats concurrency the engine
// documents). Do NOT open/close sessions or register models while the
// background trainer is running — reload_model validates against the open
// session set.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/stopwatch.hpp"
#include "src/core/discriminator.hpp"
#include "src/core/gan_trainer.hpp"
#include "src/core/zipnet.hpp"
#include "src/data/dataset.hpp"
#include "src/data/probes.hpp"
#include "src/online/tap.hpp"
#include "src/serving/engine.hpp"

namespace mtsr::online {

/// Everything the continuous learner needs to know about the stream it
/// fine-tunes on and the promotion policy it applies.
struct TrainerConfig {
  TrainerConfig() { trainer.replicas = 1; }  // isolated by default

  std::string model = "zipnet";  ///< engine registry slot promotions target
  /// Tap stream to learn from (a session's stream tag, or "session-<id>"
  /// for untagged sessions). Empty: each round follows whichever stream
  /// currently buffers the most frames.
  std::string stream;

  // Stream geometry + normalisation (SessionConfig's view of the feed).
  data::MtsrInstance instance = data::MtsrInstance::kUp4;
  std::int64_t rows = 0, cols = 0;
  std::int64_t window = 0;  ///< training crop side (the serving window)
  data::NormStats norm;     ///< the TRAINING split's normalisation
  bool log_transform = true;

  /// Fine-tune engine configuration. `trainer.replicas` is the serving
  /// isolation budget (see the header comment); the TrainerConfig default
  /// overrides GanTrainerConfig's auto to 1 (fully isolated).
  core::GanTrainerConfig trainer;

  int steps_per_round = 8;        ///< MSE fine-tune steps per loop round
  int rounds_per_checkpoint = 2;  ///< candidate cadence

  std::int64_t tap_capacity = 64;   ///< per-stream ring bound (drop-oldest)
  std::int64_t holdout_frames = 3;  ///< newest frames reserved for the gate
  /// Reject a candidate whose holdout NRMSE exceeds the serving weights'
  /// by more than this relative margin (candidate <= serving * (1 + x)
  /// promotes). Negative values force rejection — useful for drills.
  double max_nrmse_regression = 0.05;
  /// Recency weighting half-life, in frames: a frame `a` intervals older
  /// than the newest trainable frame is drawn with weight 2^(-a / h).
  double recency_half_life = 16.0;

  std::string checkpoint_dir = ".";
  std::string checkpoint_prefix = "online-ckpt";
  int retain_checkpoints = 3;  ///< older candidate files are deleted

  double idle_wait_ms = 20.0;  ///< background poll while the tap is short

  /// Fills geometry + normalisation from a dataset (mirrors
  /// SessionConfig::from_dataset so trainer and session agree on units).
  [[nodiscard]] static TrainerConfig from_dataset(
      std::string model, data::MtsrInstance instance,
      const data::TrafficDataset& dataset, std::int64_t window);
};

/// The train-while-serve loop. Construction attaches to the engine (frame
/// sink + online stats source) and clones the reference generator;
/// start()/stop() run the loop on a dedicated thread, run_rounds() drives
/// it synchronously (tests, benches, deterministic demos).
class Trainer {
 public:
  /// `reference` is the generator whose architecture (and initial weights)
  /// the trainer clones — the one serving under `config.model`. It is
  /// read at construction only and never touched again.
  Trainer(serving::Engine& engine, core::ZipNet& reference,
          TrainerConfig config);
  ~Trainer();

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  /// Launches the background fine-tune loop. No-op when already running.
  void start();
  /// Stops and joins the background thread. Safe to call when stopped.
  void stop();
  [[nodiscard]] bool running() const { return running_.load(); }

  /// Synchronous driver: runs up to `rounds` fine-tune rounds serially on
  /// the calling thread, exactly as the background loop runs them (rounds
  /// with too few tapped frames still count).
  /// Must not overlap the background thread. Returns rounds that trained.
  int run_rounds(int rounds);

  [[nodiscard]] FrameTap& tap() { return tap_; }
  [[nodiscard]] const TrainerConfig& config() const { return config_; }

  /// Thread-safe counters snapshot (also what Engine::stats() reports).
  [[nodiscard]] serving::OnlineTrainerStats stats() const;

  /// The loop error that stopped a background trainer, empty otherwise.
  [[nodiscard]] std::string last_error() const;

  /// Paths of the candidate checkpoints currently retained on disk.
  [[nodiscard]] std::vector<std::string> retained_checkpoints() const;

 private:
  void loop();
  /// One fine-tune round over a fresh tap snapshot; false when the tap is
  /// still too short to train.
  bool round();
  /// Emits a candidate checkpoint, gates it on the holdout window and
  /// promotes or rejects. `raw`/`normalized` are the round's snapshot.
  void emit_and_gate(const std::vector<Tensor>& raw,
                     const std::vector<Tensor>& normalized);
  /// Mean denormalised NRMSE of `net` over the reserved holdout frames.
  [[nodiscard]] double holdout_nrmse(core::ZipNet& net,
                                     const std::vector<Tensor>& raw,
                                     const std::vector<Tensor>& normalized);
  /// Builds one (input, target) pair from normalised tap frames: predict
  /// frame `t` from the window at (r0, c0) of frames [t-S+1, t].
  [[nodiscard]] data::Sample make_tap_sample(
      const std::vector<Tensor>& normalized, std::int64_t t, std::int64_t r0,
      std::int64_t c0) const;
  [[nodiscard]] std::string active_stream() const;
  [[nodiscard]] std::string checkpoint_path(std::int64_t serial) const;
  void gc_checkpoints();

  serving::Engine& engine_;
  TrainerConfig config_;
  FrameTap tap_;
  std::unique_ptr<data::ProbeLayout> layout_;  ///< window-local coarsener
  std::int64_t temporal_ = 0;                  ///< S, from the generator

  // The trainer's own model pair: net_ is fine-tuned; serving_twin_ holds
  // a copy of the weights serving right now (updated on promotion), the
  // gate's comparison point.
  std::unique_ptr<core::ZipNet> net_;
  std::unique_ptr<core::ZipNet> serving_twin_;
  /// GanTrainer requires a discriminator; the MSE fine-tune never steps it.
  std::unique_ptr<core::Discriminator> disc_;
  std::unique_ptr<core::GanTrainer> gan_;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};

  mutable std::mutex mu_;  ///< guards the counters + retained list below
  std::int64_t steps_ = 0;
  std::int64_t batches_ = 0;
  std::int64_t candidates_ = 0;
  std::int64_t promoted_ = 0;
  std::int64_t rejected_ = 0;
  double holdout_nrmse_ = -1;
  double serving_nrmse_ = -1;
  std::string last_error_;
  std::vector<std::string> retained_;
  Stopwatch staleness_;  ///< reset at attach and at every promotion

  int rounds_since_checkpoint_ = 0;  ///< trainer thread only
  std::int64_t next_serial_ = 0;     ///< trainer thread only
};

}  // namespace mtsr::online
