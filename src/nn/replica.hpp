// Deterministic data-parallel replica machinery for training.
//
// A replicated train step splits the batch into MICRO-SLICES and runs each
// slice's forward/backward on a replica worker (a shard runner thread).
// Determinism is anchored on two invariants, mirroring the chunking
// contract of parallel_for_chunks:
//
//  1. The slice geometry — train_slice_count(m) / train_slice_range — is a
//     pure function of the batch size m. It never depends on the replica
//     count, the pool size or the shard count.
//  2. Per-slice state (gradient accumulator slots, batch-norm statistics,
//     loss partials) is reduced in a FIXED ascending-slice tree order.
//
// Replica workers therefore only decide WHERE a slice executes, never what
// is computed or in which order partial results are folded: trained
// parameters are bit-identical for replicas {1, 2, 4, ...} at every pool
// size. Each slice runs under a SlotGuard (routing layer caches and
// gradient accumulation to slice-private slots) and a Workspace::Scope on
// the executing thread, so replicas keep thread-local arenas that reach a
// zero-growth steady state exactly like inference threads do.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace mtsr::nn {

/// Upper bound on concurrent replica slots (slice count is capped below
/// this; layer slot vectors never exceed it).
inline constexpr int kMaxReplicaSlots = 16;

namespace replica {

/// The replica slot the calling thread is bound to, or -1 in direct
/// (non-replicated) mode.
[[nodiscard]] int slot();

/// Index into per-slot layer caches: slot() inside a replica task, 0 in
/// direct mode (inference and direct forward/backward calls outside a
/// train step share slot 0's cache).
[[nodiscard]] int cache_index();

/// RAII: binds the calling thread to replica slot `s`; restores the
/// previous binding on destruction.
class SlotGuard {
 public:
  explicit SlotGuard(int s);
  ~SlotGuard();
  SlotGuard(const SlotGuard&) = delete;
  SlotGuard& operator=(const SlotGuard&) = delete;

 private:
  int previous_;
};

}  // namespace replica

/// Number of micro-slices a batch of `batch` samples is split into for the
/// replicated train step. Pure in `batch`: batches under 4 samples stay
/// whole (splitting them would leave batch-norm slices of a single sample),
/// larger batches split into slices of >= 2 samples, capped at 8 slices.
[[nodiscard]] int train_slice_count(std::int64_t batch);

/// Contiguous sample range of slice `slice` in [0, train_slice_count(batch)).
struct SliceRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  [[nodiscard]] std::int64_t size() const { return end - begin; }
};
[[nodiscard]] SliceRange train_slice_range(std::int64_t batch, int slices,
                                           int slice);

/// Resolves a trainer's `replicas` config field to a worker count (>= 1):
///   * configured >= 1 -> that many replica workers (run_replicated caps
///     the count it actually starts at num_shards()).
///   * configured == 0 -> auto: MTSR_TRAIN_REPLICAS if set (>= 1), else one
///     replica per pool shard (minimum 1). The sliced step is bit-identical
///     for any worker count, so auto-trained parameters stay independent
///     of MTSR_THREADS / MTSR_SHARDS.
///   * configured <  0 -> throws ContractViolation.
[[nodiscard]] int resolve_train_replicas(int configured);

/// Per-worker arena telemetry captured at the end of a replicated step,
/// read from the executing thread's Workspace. Steady-state training must
/// stop growing these (asserted in tests).
struct ReplicaArenaStats {
  int worker = 0;
  std::int64_t capacity_bytes = 0;
  std::int64_t growth_events = 0;
};

/// Runs `body(slice)` for every slice in [0, slices), each under
/// SlotGuard(slice) + a Workspace::Scope on the executing thread.
///
/// The worker count W is `replicas` capped to `slices` and to num_shards():
/// each shard's runner executes one task at a time, so a second worker on
/// a shard would only queue behind the first and add a hand-off. With one
/// worker the slices run inline on the calling thread in ascending order;
/// otherwise worker w is a run_on_shard task on shard w processing the
/// contiguous slice range [w*slices/W, (w+1)*slices/W) in ascending order.
/// The mapping affects scheduling only — never results (see file
/// comment). Blocks until every slice finished; rethrows the first slice
/// exception after all workers joined. When `arena_stats` is non-null it is
/// resized to the worker count and filled with each worker's thread-local
/// arena stats observed after its last slice.
void run_replicated(int slices, int replicas,
                    const std::function<void(int)>& body,
                    std::vector<ReplicaArenaStats>* arena_stats = nullptr);

}  // namespace mtsr::nn
