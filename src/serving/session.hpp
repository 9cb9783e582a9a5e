// serving::Session — one live stream's state: rolling history, window
// cache, and the per-session half of the scheduled stitched-inference loop.
//
// A session owns everything one city/stream needs between requests:
//  * the last S frames, pre-coarsened per stitch window on arrival, so a
//    steady-state inference re-aggregates nothing (re-normalising the full
//    frame once per window per history step would be quadratic waste on
//    city-scale grids);
//  * a dedicated rotating pair of mtsr::Workspace arenas. Block k of the
//    stitch executes with ws[k % 2] bound as the thread workspace, while
//    the gather of block k+1 runs on the scheduler's stage thread under
//    ws[(k+1) % 2] — workspace-aware double buffering: the generator's GEMM
//    scratch and the next block's gather never touch the same arena. After
//    warm-up both arenas sit at their high-water capacity and steady-state
//    serving performs zero growth (Engine::stats() exposes the counters).
//
// The inference LOOP no longer lives here: the session exposes a stepwise
// contract (admit → gather block → accumulate → finalize) that the serving
// Scheduler drives, fusing compatible blocks of concurrently served
// sessions into shared generator passes. A session served alone follows
// exactly the block sequence the pre-scheduler Session::infer ran.
//
// Determinism: every session stitches in blocks of Scheduler::kFixedBlock
// windows, so its outputs are bit-identical across pool sizes and across
// whether double-buffering is enabled — the stage thread only changes WHEN
// a block is gathered, never its values, and stitch_accumulate fixes the
// float-add order.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "src/common/parallel.hpp"
#include "src/common/workspace.hpp"
#include "src/data/augmentation.hpp"
#include "src/serving/model.hpp"

namespace mtsr::serving {

class Scheduler;

/// Everything needed to open one stream.
struct SessionConfig {
  std::string model;  ///< registered model name (Engine::open_session)

  data::MtsrInstance instance = data::MtsrInstance::kUp4;
  std::int64_t rows = 0;  ///< full city grid
  std::int64_t cols = 0;
  std::int64_t window = 0;         ///< stitch window side w
  std::int64_t stitch_stride = 0;  ///< 0 -> window / 2

  data::NormStats stats;  ///< training-split normalisation
  bool log_transform = true;

  /// Stream identity for request-level dedup. Sessions opened with the
  /// same non-empty tag declare themselves fan-out consumers of one coarse
  /// feed: the scheduler memoises each block's prediction under a key that
  /// also covers the model generation, the stream geometry and a rolling
  /// hash of the actual frames pushed, so consumers share a single
  /// inference exactly when their histories are byte-identical — a
  /// mis-tagged stream degrades to independent serving, never to serving
  /// another stream's data. Empty (the default) disables dedup and the
  /// per-push frame hashing that feeds it.
  std::string stream;

  /// Pulls grid geometry and normalisation from a dataset.
  [[nodiscard]] static SessionConfig from_dataset(
      std::string model, data::MtsrInstance instance,
      const data::TrafficDataset& dataset, std::int64_t window,
      std::int64_t stitch_stride);
};

/// One open stream. Feed raw fine snapshots with push(); once S frames have
/// been observed every push returns the stitched full-grid inference.
class Session {
 public:
  /// `scheduler` dispatches this session's stitch blocks (the engine
  /// passes its shared scheduler, which fuses blocks across every session
  /// it serves) and must outlive the session. The probe layout is
  /// make_layout(instance, window, window).
  Session(std::shared_ptr<ModelSlot> slot, SessionConfig config,
          Scheduler& scheduler);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feeds the snapshot for the current interval (raw MB, rows × cols). In
  /// a deployment the gateway only holds probe aggregates; this models the
  /// measurement step by aggregating internally via the probe layout, so
  /// the model only ever sees coarse data (plus raw crops for baselines
  /// that re-derive their own aggregates). Returns the fine-grained
  /// full-grid inference in MB, or std::nullopt while warming up.
  std::optional<Tensor> push(const Tensor& fine_snapshot);

  /// Drops the rolling history (the arenas keep their capacity).
  void reset();

  /// Frames still needed before inference starts.
  [[nodiscard]] std::int64_t frames_until_ready() const;

  /// Temporal window S required by the model.
  [[nodiscard]] std::int64_t temporal_length() const { return s_; }

  /// Inferences produced so far.
  [[nodiscard]] std::int64_t inference_count() const { return inferences_; }

  /// Admit-time coarsenings that were never needed: frames of a dedup
  /// fan-out consumer that left the history without any gather touching
  /// them, because the stream memo served every block. Always 0 for
  /// sessions without a stream tag (those coarsen eagerly on admit).
  [[nodiscard]] std::int64_t coarsen_skips() const { return coarsen_skips_; }

  [[nodiscard]] const SessionConfig& config() const { return config_; }

  /// The model currently serving this session — re-resolved from the
  /// registry slot, so the answer tracks checkpoint hot-reloads.
  [[nodiscard]] std::shared_ptr<Model> model() const {
    return slot_->acquire().model;
  }

  /// Combined statistics of the session's rotating arena pair. In steady
  /// state capacity and growth_events stay constant push after push.
  [[nodiscard]] Workspace::Stats arena_stats() const;

  /// The pool shard this session is served on, fixed at open time: a
  /// stable hash of the stream tag (all fan-out consumers of one feed land
  /// on one shard, where their dedup memo lives), round-robin for untagged
  /// sessions. Fusion only combines sessions of one shard.
  [[nodiscard]] int shard() const { return shard_; }

 private:
  friend class Scheduler;
  friend class Engine;  ///< hot-reload validates against slot_/needs_/stream_

  struct FrameEntry {
    Tensor coarse_windows;  ///< (W, ci, ci): every stitch window, coarsened
    Tensor staged_raw;      ///< deferred normalise+coarsen staging (dedup)
    Tensor raw;             ///< raw frame; kept only for fine_latest models
  };

  // ---- Scheduler-facing stepwise contract ----------------------------------
  /// Absorbs one snapshot (already validated by Scheduler::check_request)
  /// into the rolling history (and the dedup hash chain when the session is
  /// stream-tagged). Stream-tagged coarse-history
  /// sessions short-circuit ALL per-frame pre-aggregation — normalisation
  /// included, not just the per-window coarsening: a fan-out consumer whose
  /// blocks the stream memo serves never gathers, so any admit-time work
  /// beyond the dedup hash would be pure waste
  /// (ensure_history_coarsened() runs both steps on demand).
  void admit(const Tensor& fine_snapshot);
  /// Normalises + coarsens any history frame still holding its raw staging
  /// tensor. Must run on the MAIN thread before this session's first
  /// gather of a round — the coarsening fans out on the pool, which the
  /// scheduler's stage thread must never do.
  void ensure_history_coarsened();
  [[nodiscard]] bool warm() const {
    return static_cast<std::int64_t>(history_.size()) >= s_;
  }
  /// Gathers windows [b0, b1) of the plan into slot `slot`'s batch.
  void gather_block(std::int64_t b0, std::int64_t b1, int slot);
  [[nodiscard]] ModelSlot::Ref resolve_model() const {
    return slot_->acquire();
  }
  /// Rolling hash over the raw bytes of the S frames currently in history
  /// (dedup-enabled sessions only; 0 otherwise).
  [[nodiscard]] std::uint64_t history_signature() const;
  void note_inference() { ++inferences_; }

  [[nodiscard]] Tensor normalize(const Tensor& raw) const;
  [[nodiscard]] Tensor denormalize(const Tensor& normalized) const;
  [[nodiscard]] Tensor coarsen_windows(const Tensor& normalized) const;

  std::shared_ptr<ModelSlot> slot_;
  SessionConfig config_;
  std::unique_ptr<data::ProbeLayout> layout_;
  StreamContext stream_;
  data::StitchPlan plan_;
  ModelInputs needs_;
  std::int64_t s_ = 1;
  std::int64_t stride_ = 0;
  std::int64_t inferences_ = 0;
  std::int64_t coarsen_skips_ = 0;  ///< deferred coarsenings never needed
  std::string dedup_prefix_;  ///< stream + geometry key prefix; empty = off
  int shard_ = 0;  ///< pool shard assignment (stable for the session's life)
  /// While the session is open, set_num_threads / set_num_shards /
  /// set_affinity_policy throw — the shard assignment above and the arenas
  /// below are sized against the pool topology at open time.
  detail::PoolTopologyPin topology_pin_;

  std::deque<FrameEntry> history_;  ///< last <= S frames
  std::deque<std::uint64_t> frame_hashes_;  ///< parallel to history_

  /// Double-buffer slots: gather state + execution arena, rotated per
  /// stitch block.
  struct Slot {
    Workspace ws;
    WindowBatch batch;
  };
  Slot slots_[2];
  Scheduler& scheduler_;
};

}  // namespace mtsr::serving
