// serving::Scheduler — admission and dispatch between Engine and Session:
// cross-session batch fusion, request-level dedup, and the block-boundary
// contract that makes checkpoint hot-reload atomic.
//
// The paper's deployment is one central controller inferring fine-grained
// traffic for a whole city from coarse probe streams; at "millions of
// users" scale that means many concurrent per-region sessions hammering
// one generator. Serving each session's stitch alone wastes the batched
// substrate underneath: N sessions issue N small window-batch GEMMs per
// block where one shared pass would do. The scheduler closes that gap:
//
//  * FUSION — each serve() call advances every warm session through its
//    stitch plan in lockstep dispatch rounds. Within a round, the block
//    requests of model-compatible sessions (same resolved model, same
//    window/temporal geometry, same normalisation) concatenate into shared
//    generator passes, capped at kFuseCap windows per pass so the fused
//    lowering matrices stay cache-resident, and the results scatter back
//    into each session's moving-average accumulators in place.
//  * DEDUP — sessions opened with the same SessionConfig::stream tag are
//    fan-out consumers of one coarse feed. Block predictions are memoised
//    under a content key (stream tag + geometry + model generation + a
//    rolling hash of the frames actually pushed + block range), so only
//    the first consumer of an epoch computes; the rest scatter the
//    memoised rows and receive bitwise-equal frames. The key covers the
//    frame bytes, so a mis-tagged stream degrades to independent serving.
//  * HOT-RELOAD — sessions re-resolve their ModelSlot at every dispatch
//    round, i.e. at stitch-block boundaries. Engine::reload_model swaps
//    the slot under a mutex; in-flight blocks finish on the model they
//    resolved, subsequent blocks see the replacement, and no block is ever
//    dropped or duplicated. The slot generation in the dedup key keeps
//    memoised predictions from outliving the weights that produced them.
//
// Numerics contract (the bit-identity boundary):
//  * a session served alone — every Engine::push — follows exactly the
//    pre-scheduler block sequence under its own arenas: bit-identical to
//    the unscheduled path at every pool size, whether or not the shard's
//    stage thread overlaps gathers and scatters with the model;
//  * dedup'd consumers scatter the same memoised rows: bitwise-equal
//    frames by construction;
//  * int8 models fuse bit-identically (exact s32 accumulation makes the
//    forward per-sample batch-invariant);
//  * float models fuse at ≤1e-5 parity: a fused pass widens the lowered
//    GEMMs, which moves SIMD tile boundaries and with them the float-add
//    order inside shared reduction tails (measured ~4e-7 on the serving
//    generator). For a fixed session composition the fused output is
//    itself deterministic across pool sizes.
//
// Threading: the scheduler is topology-aware. Sessions are assigned to
// pool shards at open time (stable stream hash for fan-out consumers, so
// one stream's dedup memo lives on one shard; round-robin otherwise), and
// serve() partitions its sessions by shard: each shard's dispatch loop runs
// on that shard's runner thread (run_on_shard) against per-shard state —
// its own fused-concat buffers, execution arena, dedup memo and stage
// thread — so shards never share mutable state and their GEMM panels
// first-touch shard-local memory. The caller serves its own shard inline.
// Within a shard the per-round overlap generalises the double-buffered
// stitch two ways: the NEXT round's gathers are staged on the shard's
// StageExecutor while the current round is inside the model, and the
// CURRENT round's scatter (accumulate + final-round denormalise) is
// offloaded to the same stage thread so it overlaps the next round's
// GEMMs. ModelSlot resolution is the only state shared with a concurrent
// reloader, and it is mutex-serialised.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/workspace.hpp"
#include "src/serving/session.hpp"

namespace mtsr::serving {

/// Dispatch telemetry, cumulative since construction. A production
/// deployment alarms on queue depth and dedup hit rate the same way it
/// alarms on arena growth.
struct SchedulerStats {
  std::int64_t rounds = 0;        ///< dispatch rounds executed
  std::int64_t passes = 0;        ///< model predict() calls issued
  std::int64_t fused_passes = 0;  ///< passes combining > 1 session
  std::int64_t windows = 0;       ///< windows served through passes
  std::int64_t max_queue_depth = 0;  ///< peak block requests in one round
  /// fused_histogram[b] = passes that ran b windows (index 0 unused).
  std::vector<std::int64_t> fused_histogram;
  std::int64_t dedup_lookups = 0;  ///< block requests with dedup enabled
  std::int64_t dedup_hits = 0;     ///< requests served from the memo
  std::int64_t memo_entries = 0;   ///< live memoised block predictions
  Workspace::Stats arena;          ///< fused-pass execution arena
};

/// One pool shard's slice of the scheduler: its dispatch counters plus the
/// worker slots backing it. stats() aggregates these; Engine::stats() joins
/// them with the pool's busy-time telemetry.
struct SchedulerShardStats {
  int shard = 0;
  int workers = 0;  ///< pool worker slots of this shard
  SchedulerStats stats;
};

/// The admission-and-dispatch layer. One scheduler serves all sessions of
/// an engine.
class Scheduler {
 public:
  /// Windows per stitch block, for every session: two windows per block
  /// keeps a window-20 block's lowered matrices cache-resident on a
  /// gateway-class core, and as a pure constant it keeps session outputs
  /// independent of the pool size. GEMM pool scaling comes from column
  /// chunking inside each (possibly fused) pass, not from the block.
  static constexpr std::int64_t kFixedBlock = 2;

  /// Maximum windows per fused generator pass: keeps a fused pass inside
  /// the measured per-window sweet spot of gateway-class cores (the
  /// lowered column matrices of a window-20 block stop being
  /// cache-resident past ~4 windows).
  static constexpr std::int64_t kFuseCap = 4;

  /// Per-shard state (stage threads included) is created lazily as shards
  /// first serve.
  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Feeds frames[i] into sessions[i] (one snapshot each, distinct
  /// sessions) and serves every resulting inference, fusing compatible
  /// blocks across the warm sessions. Returns one entry per session:
  /// the stitched full-grid inference, or nullopt while warming up.
  /// Outputs land in input order regardless of fusion. All-or-nothing
  /// admission: the whole call is validated (check_request) before any
  /// session takes its frame, so a bad frame leaves every session as it
  /// was.
  [[nodiscard]] std::vector<std::optional<Tensor>> serve(
      std::span<Session* const> sessions, std::span<const Tensor* const> frames);

  /// Throws unless serve(sessions, frames) may admit: one frame per
  /// session, no null or repeated session, and every frame a finite
  /// rows × cols snapshot of its session's grid. Touches no session.
  static void check_request(std::span<Session* const> sessions,
                            std::span<const Tensor* const> frames);

  /// Aggregate counters across every shard.
  [[nodiscard]] SchedulerStats stats() const;
  /// Per-shard counters (index == shard id), for shards that have served.
  [[nodiscard]] std::vector<SchedulerShardStats> shard_stats() const;

  /// Stream memo lifetime: each dedup-enabled session holds one reference
  /// on its stream prefix (in its assigned shard's memo); when the last
  /// consumer of a stream closes, the stream's memoised predictions are
  /// freed instead of lingering until the next serve of that tag.
  void retain_stream(const std::string& prefix, int shard);
  void release_stream(const std::string& prefix, int shard);

 private:
  struct Active;
  struct Request;

  /// Everything one pool shard serves with. No two shards ever touch the
  /// same Shard, so concurrent serve_shard calls need no locking.
  struct Shard {
    std::unique_ptr<StageExecutor> stage;  ///< lazily created per shard
    Workspace ws;  ///< fused passes execute here, not in a session arena
    WindowBatch fused;  ///< persistent concat buffers (resized on demand)

    /// Content-addressed block predictions for stream-tagged sessions,
    /// plus per-stream bookkeeping so entries die as soon as their
    /// stream's history moves on (bounded by blocks-per-frame per stream).
    std::unordered_map<std::string, Tensor> memo;
    struct StreamMemo {
      std::uint64_t signature = 0;
      std::vector<std::string> keys;
    };
    std::unordered_map<std::string, StreamMemo> streams;
    std::unordered_map<std::string, std::int64_t> stream_refs;

    SchedulerStats stats;
  };

  /// The shard for index `s`, growing the table to the pool's shard count
  /// on demand (shards are never destroyed while the scheduler lives, so
  /// per-shard counters survive topology-legal reconfigurations).
  [[nodiscard]] Shard& shard(int s);

  /// One shard's dispatch loop: every round of `acts`, run on the shard's
  /// runner thread (or inline when the caller already is that shard).
  void serve_shard(int shard_index, Shard& sh,
                   std::span<Active* const> acts,
                   std::vector<std::optional<Tensor>>& outputs);

  void evict_stale_memo(Shard& sh, const Session& session,
                        std::uint64_t signature);
  void drop_stream_entries(Shard& sh, const std::string& prefix);
  /// The content-addressed dedup key of one block request.
  [[nodiscard]] static std::string block_key(const Session& session,
                                             std::uint64_t generation,
                                             std::uint64_t signature,
                                             std::int64_t b0, std::int64_t b1);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mtsr::serving
