// Tests for the deterministic data-parallel training machinery: replicated
// GAN/SRCNN train steps must be bit-identical across replica counts, pool
// sizes and shard counts; replica workers never outnumber the pool's
// shards; replica worker arenas must reach a zero-growth steady state; and
// the counter-derived RNG streams must be draw-order independent.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "src/baselines/srcnn.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/core/gan_trainer.hpp"
#include "src/data/milan.hpp"
#include "src/data/probes.hpp"
#include "src/nn/replica.hpp"

namespace mtsr::core {
namespace {

struct PoolGuard {
  ~PoolGuard() {
    set_num_threads(0);
    set_num_shards(0);
  }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// A small synthetic MTSR problem: up-2 on 8x8 windows from a tiny city.
struct Fixture {
  Fixture()
      : dataset(make_frames(), 10),
        layout(8, 8, 2),
        source([this](Rng& rng) {
          data::SampleSpec spec;
          spec.t = rng.uniform_int(1, dataset.frame_count() - 1);
          spec.r0 = rng.uniform_int(0, dataset.rows() - 8);
          spec.c0 = rng.uniform_int(0, dataset.cols() - 8);
          return data::make_sample(dataset, layout, spec, 2, 8);
        }) {}

  static std::vector<Tensor> make_frames() {
    data::MilanConfig config;
    config.rows = 16;
    config.cols = 16;
    config.num_hotspots = 8;
    config.seed = 55;
    return data::MilanTrafficGenerator(config).generate(60, 30);
  }

  ZipNetConfig generator_config() const {
    ZipNetConfig config;
    config.temporal_length = 2;
    config.upscale_factors = {2};
    config.base_channels = 3;
    config.zipper_modules = 3;
    config.zipper_channels = 6;
    config.final_channels = 8;
    return config;
  }

  DiscriminatorConfig discriminator_config() const {
    DiscriminatorConfig config;
    config.base_channels = 2;
    return config;
  }

  data::TrafficDataset dataset;
  data::UniformProbeLayout layout;
  SampleSource source;
};

struct TrainResult {
  std::vector<Tensor> g_params, g_grads, d_params;
  std::vector<double> pretrain_losses;
  std::vector<GanRoundStats> rounds;
};

TrainResult run_training(const Fixture& f, int replicas, int threads,
                         int shards, int batch_size, int pretrain_steps,
                         int gan_rounds) {
  set_num_threads(threads);
  set_num_shards(shards);
  Rng rng(901);
  ZipNet g(f.generator_config(), rng);
  Discriminator d(f.discriminator_config(), rng);
  GanTrainerConfig config;
  config.batch_size = batch_size;
  config.learning_rate = 1e-3f;
  config.seed = 77;
  config.replicas = replicas;
  GanTrainer trainer(g, d, config);

  TrainResult out;
  out.pretrain_losses = trainer.pretrain(f.source, pretrain_steps);
  if (gan_rounds > 0) out.rounds = trainer.train(f.source, gan_rounds);
  for (nn::Parameter* p : g.parameters()) {
    out.g_params.push_back(p->value);
    out.g_grads.push_back(p->grad);
  }
  for (nn::Parameter* p : d.parameters()) out.d_params.push_back(p->value);
  return out;
}

void expect_same_training(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.g_params.size(), b.g_params.size());
  for (std::size_t i = 0; i < a.g_params.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(a.g_params[i], b.g_params[i]))
        << "generator parameter " << i << " diverged";
  }
  ASSERT_EQ(a.d_params.size(), b.d_params.size());
  for (std::size_t i = 0; i < a.d_params.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(a.d_params[i], b.d_params[i]))
        << "discriminator parameter " << i << " diverged";
  }
  ASSERT_EQ(a.pretrain_losses.size(), b.pretrain_losses.size());
  for (std::size_t i = 0; i < a.pretrain_losses.size(); ++i) {
    EXPECT_EQ(a.pretrain_losses[i], b.pretrain_losses[i])
        << "pretrain loss " << i << " diverged";
  }
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].d_loss, b.rounds[i].d_loss);
    EXPECT_EQ(a.rounds[i].g_loss, b.rounds[i].g_loss);
    EXPECT_EQ(a.rounds[i].g_mse, b.rounds[i].g_mse);
    EXPECT_EQ(a.rounds[i].d_real_prob, b.rounds[i].d_real_prob);
    EXPECT_EQ(a.rounds[i].d_fake_prob, b.rounds[i].d_fake_prob);
  }
}

TEST(TrainParallel, BitIdenticalAcrossReplicasPoolsAndShards) {
  PoolGuard guard;
  Fixture f;
  // Batch 8 -> 4 micro-slices; the reference runs one replica worker on a
  // single-thread, single-shard pool.
  const TrainResult reference =
      run_training(f, /*replicas=*/1, /*threads=*/1, /*shards=*/1,
                   /*batch_size=*/8, /*pretrain_steps=*/4, /*gan_rounds=*/2);
  struct Variant {
    int replicas, threads, shards;
  };
  const Variant variants[] = {
      {2, 2, 1},  // two replicas sharing one shard
      {4, 4, 2},  // four replicas over a two-shard pool
      {1, 2, 2},  // one replica on a resized pool
      {3, 2, 2},  // replica count that does not divide the slice count
      {2, 0, 0},  // hardware-default pool
  };
  for (const Variant& v : variants) {
    const TrainResult got = run_training(f, v.replicas, v.threads, v.shards,
                                         8, 4, 2);
    SCOPED_TRACE(::testing::Message() << "replicas=" << v.replicas
                                      << " threads=" << v.threads
                                      << " shards=" << v.shards);
    expect_same_training(reference, got);
  }
}

TEST(TrainParallel, GradientsBitIdenticalAcrossReplicaCounts) {
  PoolGuard guard;
  Fixture f;
  // One pretrain step, no optimizer-visible divergence source besides the
  // gradient reduction itself: reduced gradients must match to the last ulp.
  const TrainResult one =
      run_training(f, 1, 1, 1, /*batch_size=*/8, /*pretrain_steps=*/1, 0);
  const TrainResult two =
      run_training(f, 2, 2, 1, 8, 1, 0);
  const TrainResult four =
      run_training(f, 4, 2, 2, 8, 1, 0);
  ASSERT_EQ(one.g_grads.size(), two.g_grads.size());
  for (std::size_t i = 0; i < one.g_grads.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(one.g_grads[i], two.g_grads[i]))
        << "gradient " << i << " diverged at 2 replicas";
    EXPECT_TRUE(bitwise_equal(one.g_grads[i], four.g_grads[i]))
        << "gradient " << i << " diverged at 4 replicas";
  }
}

TEST(TrainParallel, ReplicaArenasReachZeroGrowthSteadyState) {
  PoolGuard guard;
  Fixture f;
  // Replica workers never outnumber shards: two shards for two workers.
  set_num_threads(2);
  set_num_shards(2);
  Rng rng(902);
  ZipNet g(f.generator_config(), rng);
  Discriminator d(f.discriminator_config(), rng);
  GanTrainerConfig config;
  config.batch_size = 8;
  config.replicas = 2;
  GanTrainer trainer(g, d, config);

  // Warm up every step shape once (pretrain, D sub-epoch, G sub-epoch).
  (void)trainer.pretrain(f.source, 2);
  (void)trainer.train(f.source, 2);
  const std::vector<nn::ReplicaArenaStats> warm = trainer.replica_arena_stats();
  ASSERT_EQ(warm.size(), 2u);

  (void)trainer.train(f.source, 2);
  const std::vector<nn::ReplicaArenaStats> after = trainer.replica_arena_stats();
  ASSERT_EQ(after.size(), warm.size());
  for (std::size_t w = 0; w < warm.size(); ++w) {
    EXPECT_EQ(after[w].growth_events, warm[w].growth_events)
        << "replica worker " << w << " arena grew after warm-up";
    EXPECT_EQ(after[w].capacity_bytes, warm[w].capacity_bytes)
        << "replica worker " << w << " arena capacity changed after warm-up";
  }
}

TEST(TrainParallel, ResolveTrainReplicas) {
  PoolGuard guard;
  ASSERT_EQ(unsetenv("MTSR_TRAIN_REPLICAS"), 0);
  EXPECT_THROW((void)nn::resolve_train_replicas(-1), ContractViolation);
  EXPECT_EQ(nn::resolve_train_replicas(3), 3);   // explicit worker count

  set_num_threads(2);
  set_num_shards(1);
  // Single shard -> one replica (bit-identical to any other replica
  // count).
  EXPECT_EQ(nn::resolve_train_replicas(0), 1);
  set_num_shards(2);
  EXPECT_EQ(nn::resolve_train_replicas(0), 2);  // one replica per shard

  ASSERT_EQ(setenv("MTSR_TRAIN_REPLICAS", "5", 1), 0);
  EXPECT_EQ(nn::resolve_train_replicas(0), 5);  // env beats topology
  EXPECT_EQ(nn::resolve_train_replicas(1), 1);  // config beats env
  ASSERT_EQ(unsetenv("MTSR_TRAIN_REPLICAS"), 0);
}

TEST(TrainParallel, ReplicaWorkersNeverOutnumberShards) {
  PoolGuard guard;
  set_num_threads(4);
  set_num_shards(1);
  // One shard runs one task at a time: a replica budget of 4 on it starts
  // a single worker, the calling thread, which runs every slice in order.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(8);
  std::vector<int> order;
  std::vector<nn::ReplicaArenaStats> arenas;
  nn::run_replicated(
      8, 4,
      [&](int s) {
        ran_on[static_cast<std::size_t>(s)] = std::this_thread::get_id();
        order.push_back(s);
      },
      &arenas);
  for (std::size_t s = 0; s < ran_on.size(); ++s) {
    EXPECT_EQ(ran_on[s], caller) << "slice " << s << " left the caller";
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(arenas.size(), 1u);

  // Two shards: two workers, one per shard, whatever the budget.
  set_num_shards(2);
  nn::run_replicated(8, 4, [](int) {}, &arenas);
  EXPECT_EQ(arenas.size(), 2u);
}

TEST(TrainParallel, RngStreamsAreDrawOrderIndependent) {
  Rng fresh(42);
  Rng advanced(42);
  for (int i = 0; i < 17; ++i) (void)advanced.uniform_int(0, 1000);
  // Streams derive from the construction seed, not the engine state: a
  // parent that has already drawn yields the same stream.
  Rng s1 = fresh.stream(7);
  Rng s2 = advanced.stream(7);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(s1.uniform_int(0, 1 << 30), s2.uniform_int(0, 1 << 30));
  }
  // Distinct keys give distinct sequences (first draws differ with
  // overwhelming probability for a 30-bit range).
  Rng a = fresh.stream(0);
  Rng b = fresh.stream(1);
  bool any_diff = false;
  for (int i = 0; i < 8 && !any_diff; ++i) {
    any_diff = a.uniform_int(0, 1 << 30) != b.uniform_int(0, 1 << 30);
  }
  EXPECT_TRUE(any_diff);
}

TEST(TrainParallel, SrcnnFitBitIdenticalAcrossReplicas) {
  PoolGuard guard;
  data::MilanConfig mc;
  mc.rows = 24;
  mc.cols = 24;
  mc.num_hotspots = 10;
  mc.seed = 9;
  auto frames = data::MilanTrafficGenerator(mc).generate(60, 6);
  data::UniformProbeLayout layout(24, 24, 4);

  auto fit = [&](int replicas, int threads, int shards) {
    set_num_threads(threads);
    set_num_shards(shards);
    baselines::SrcnnConfig config;
    config.channels1 = 6;
    config.channels2 = 3;
    config.window = 16;
    config.epochs = 2;
    config.crops_per_epoch = 16;
    config.replicas = replicas;
    baselines::Srcnn srcnn(config);
    srcnn.fit(frames, layout);
    return std::pair<std::vector<double>, Tensor>(
        srcnn.loss_history(), srcnn.super_resolve(frames.front(), layout));
  };

  const auto [ref_history, ref_pred] = fit(1, 1, 1);
  const auto [got_history, got_pred] = fit(4, 2, 2);
  ASSERT_EQ(ref_history.size(), got_history.size());
  for (std::size_t i = 0; i < ref_history.size(); ++i) {
    EXPECT_EQ(ref_history[i], got_history[i]) << "epoch " << i;
  }
  EXPECT_TRUE(bitwise_equal(ref_pred, got_pred));
}

}  // namespace
}  // namespace mtsr::core
