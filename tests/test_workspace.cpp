// Tests for the Workspace arena and the destination-passing (_into) tensor
// ops riding on it: bump/rewind semantics, statistics, parity of every
// _into op against its pure variant, packed-B GEMM determinism across pool
// sizes, and the allocation-regression contract (zero arena growth in
// steady state for a train step and a stitched full-frame prediction).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/workspace.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/milan.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr {
namespace {

// Restores the default pool size when a test that resizes the pool exits.
class PoolGuard {
 public:
  PoolGuard() = default;
  ~PoolGuard() { set_num_threads(0); }
};

void expect_close(const Tensor& got, const Tensor& want, float tol = 1e-5f) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got.flat(i), want.flat(i), tol) << "at flat index " << i;
  }
}

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c(Shape{m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = a.data()[i * k + kk];
      for (std::int64_t j = 0; j < n; ++j) {
        c.data()[i * n + j] += aik * b.data()[kk * n + j];
      }
    }
  }
  return c;
}

// ---- Arena semantics -------------------------------------------------------

TEST(Workspace, AllocationsAreAlignedAndDisjoint) {
  Workspace ws;
  float* a = ws.alloc(7);
  float* b = ws.alloc(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_GE(b, a + 7);  // disjoint, bump-ordered
  a[0] = 1.f;
  b[99] = 2.f;
  EXPECT_EQ(a[0], 1.f);
  EXPECT_EQ(b[99], 2.f);
}

TEST(Workspace, ScopeRewindsAndCapacityIsReused) {
  Workspace ws;
  {
    Workspace::Scope scope(ws);
    (void)ws.alloc(1000);
    EXPECT_GT(ws.stats().live_bytes, 0);
  }
  EXPECT_EQ(ws.stats().live_bytes, 0);
  const auto grown = ws.stats();
  EXPECT_GT(grown.capacity_bytes, 0);
  // Re-running the same pattern must not grow the arena.
  {
    Workspace::Scope scope(ws);
    (void)ws.alloc(1000);
  }
  EXPECT_EQ(ws.stats().capacity_bytes, grown.capacity_bytes);
  EXPECT_EQ(ws.stats().growth_events, grown.growth_events);
}

TEST(Workspace, GrowthNeverMovesLiveAllocations) {
  Workspace ws;
  float* a = ws.alloc(64);
  a[0] = 42.f;
  // Force growth well past the first block.
  for (int i = 0; i < 8; ++i) (void)ws.alloc(200 * 1024);
  EXPECT_EQ(a[0], 42.f);  // original block still alive and untouched
  EXPECT_GE(ws.stats().growth_events, 2);
  ws.release_all();
  EXPECT_EQ(ws.stats().live_bytes, 0);
  // After a full drain the chain consolidates; capacity is preserved.
  const auto s = ws.stats();
  float* b = ws.alloc(64);
  (void)b;
  EXPECT_EQ(ws.stats().capacity_bytes, s.capacity_bytes);
  EXPECT_EQ(ws.stats().growth_events, s.growth_events);
}

TEST(Workspace, NestedCheckpointsRestoreExactPositions) {
  Workspace ws;
  float* a = ws.alloc(32);
  const auto cp = ws.checkpoint();
  float* b = ws.alloc(32);
  ws.rewind(cp);
  float* b2 = ws.alloc(32);
  EXPECT_EQ(b, b2);  // same position after rewind
  (void)a;
}

TEST(Workspace, OutOfOrderRewindThrows) {
  Workspace ws;
  const auto lo = ws.checkpoint();
  (void)ws.alloc(64);
  const auto hi = ws.checkpoint();
  ws.rewind(lo);
  EXPECT_THROW(ws.rewind(hi), ContractViolation);
}

TEST(Workspace, WsMatrixMarkReleasesExactlyTheMatrix) {
  Workspace ws;
  float* before = ws.alloc(16);
  const auto base = ws.checkpoint();
  WsMatrix m = ws_matrix(ws, 8, 8);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.size(), 64);
  m.data[63] = 5.f;
  ws.rewind(m.mark);
  const auto after = ws.checkpoint();
  EXPECT_EQ(base.block, after.block);
  EXPECT_EQ(base.used, after.used);
  (void)before;
}

// ---- _into parity against the pure variants --------------------------------

TEST(IntoOps, MatmulIntoMatchesPure) {
  Rng rng(61);
  for (auto [m, k, n] : {std::array<std::int64_t, 3>{37, 53, 41},
                         std::array<std::int64_t, 3>{3, 17, 301},
                         std::array<std::int64_t, 3>{129, 300, 2},
                         std::array<std::int64_t, 3>{1, 1, 1}}) {
    Tensor a = Tensor::randn(Shape{m, k}, rng);
    Tensor b = Tensor::randn(Shape{k, n}, rng);
    Tensor want = matmul(a, b);
    Tensor got(Shape{m, n});
    matmul_into(a.data(), b.data(), got.data(), m, k, n);
    expect_close(got, want);
    // Accumulate form: c += a*b on top of existing contents.
    Tensor acc = Tensor::ones(Shape{m, n});
    matmul_into(a.data(), b.data(), acc.data(), m, k, n, /*accumulate=*/true);
    expect_close(acc, want.add_scalar(1.f), 1e-4f);
  }
}

TEST(IntoOps, MatmulTnIntoMatchesPure) {
  Rng rng(62);
  Tensor a = Tensor::randn(Shape{53, 37}, rng);  // (k, m)
  Tensor b = Tensor::randn(Shape{53, 41}, rng);  // (k, n)
  Tensor want = matmul_tn(a, b);
  Tensor got(Shape{37, 41});
  matmul_tn_into(a.data(), b.data(), got.data(), 53, 37, 41);
  expect_close(got, want);
  Tensor acc = Tensor::ones(Shape{37, 41});
  matmul_tn_into(a.data(), b.data(), acc.data(), 53, 37, 41, true);
  expect_close(acc, want.add_scalar(1.f), 1e-4f);
}

TEST(IntoOps, MatmulNtIntoMatchesPure) {
  Rng rng(63);
  Tensor a = Tensor::randn(Shape{37, 53}, rng);  // (m, k)
  Tensor b = Tensor::randn(Shape{41, 53}, rng);  // (n, k)
  Tensor want = matmul_nt(a, b);
  Tensor got(Shape{37, 41});
  matmul_nt_into(a.data(), b.data(), got.data(), 37, 53, 41);
  expect_close(got, want);
  Tensor acc = Tensor::ones(Shape{37, 41});
  matmul_nt_into(a.data(), b.data(), acc.data(), 37, 53, 41, true);
  expect_close(acc, want.add_scalar(1.f), 1e-4f);
}

TEST(IntoOps, TransposeIntoMatchesPure) {
  Rng rng(64);
  Tensor a = Tensor::randn(Shape{67, 45}, rng);
  Tensor want = transpose(a);
  Tensor got(Shape{45, 67});
  transpose_into(a.data(), 67, 45, got.data());
  expect_close(got, want, 0.f);
}

TEST(IntoOps, Im2colAndCol2imBatchedIntoMatchPure) {
  Rng rng(65);
  const std::int64_t n = 3, c = 2, h = 7, w = 6;
  const int kh = 3, kw = 2, sh = 2, sw = 1, ph = 1, pw = 0;
  Tensor input = Tensor::randn(Shape{n, c, h, w}, rng);
  Tensor want = im2col_batched(input, kh, kw, sh, sw, ph, pw);
  Tensor got(want.shape());
  im2col_batched_into(input.data(), n, c, h, w, kh, kw, sh, sw, ph, pw,
                      got.data());
  expect_close(got, want, 0.f);

  Tensor back_want = col2im_batched(want, n, c, h, w, kh, kw, sh, sw, ph, pw);
  Tensor back(Shape{n, c, h, w});
  back.fill(7.f);  // _into must zero the destination before scattering
  col2im_batched_into(want.data(), n, c, h, w, kh, kw, sh, sw, ph, pw,
                      back.data());
  expect_close(back, back_want, 0.f);
}

TEST(IntoOps, Vol2colAndCol2volBatchedIntoMatchPure) {
  Rng rng(66);
  const std::int64_t n = 2, c = 2, d = 3, h = 5, w = 4;
  const int kd = 3, kh = 3, kw = 3, sd = 1, sh = 1, sw = 1, pd = 1, ph = 1,
            pw = 1;
  Tensor input = Tensor::randn(Shape{n, c, d, h, w}, rng);
  Tensor want = vol2col_batched(input, kd, kh, kw, sd, sh, sw, pd, ph, pw);
  Tensor got(want.shape());
  vol2col_batched_into(input.data(), n, c, d, h, w, kd, kh, kw, sd, sh, sw,
                       pd, ph, pw, got.data());
  expect_close(got, want, 0.f);

  Tensor back_want =
      col2vol_batched(want, n, c, d, h, w, kd, kh, kw, sd, sh, sw, pd, ph, pw);
  Tensor back(Shape{n, c, d, h, w});
  back.fill(-3.f);
  col2vol_batched_into(want.data(), n, c, d, h, w, kd, kh, kw, sd, sh, sw,
                       pd, ph, pw, back.data());
  expect_close(back, back_want, 0.f);
}

TEST(IntoOps, ChannelMajorIntoMatchesPure) {
  Rng rng(67);
  Tensor x = Tensor::randn(Shape{3, 4, 5, 2}, rng);
  Tensor want = batch_to_channel_major(x);
  Tensor got(want.shape());
  batch_to_channel_major_into(x.data(), 3, 4, 10, got.data());
  expect_close(got, want, 0.f);

  Tensor back_want = channel_major_to_batch(want, x.shape());
  Tensor back(x.shape());
  channel_major_to_batch_into(want.data(), 3, 4, 10, back.data());
  expect_close(back, back_want, 0.f);
}

// ---- Packed-B GEMM determinism ---------------------------------------------

TEST(PackedBGemm, WideLoweringShapesMatchNaive) {
  // Conv-lowering geometry: short A (out-channels), enormous B (columns).
  Rng rng(69);
  for (auto [m, k, n] : {std::array<std::int64_t, 3>{8, 72, 3000},
                         std::array<std::int64_t, 3>{6, 54, 130},
                         std::array<std::int64_t, 3>{32, 300, 513}}) {
    Tensor a = Tensor::randn(Shape{m, k}, rng);
    Tensor b = Tensor::randn(Shape{k, n}, rng);
    expect_close(matmul(a, b), naive_matmul(a, b), 1e-4f);
  }
}

TEST(PackedBGemm, WideProductBitIdenticalAcrossPoolSizes) {
  PoolGuard guard;
  Rng rng(70);
  // Wide enough that several j-panels exist and both dispatch paths and
  // panel edges are exercised.
  Tensor a = Tensor::randn(Shape{9, 130}, rng);
  Tensor b = Tensor::randn(Shape{130, 1500}, rng);
  auto run = [&] { return matmul(a, b); };
  set_num_threads(1);
  Tensor serial = run();
  set_num_threads(2);
  Tensor two = run();
  set_num_threads(0);
  Tensor hw = run();
  ASSERT_EQ(serial.shape(), two.shape());
  EXPECT_EQ(std::memcmp(serial.data(), two.data(),
                        static_cast<std::size_t>(serial.size()) *
                            sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(serial.data(), hw.data(),
                        static_cast<std::size_t>(serial.size()) *
                            sizeof(float)),
            0);
}

// ---- Allocation regression -------------------------------------------------

data::TrafficDataset tiny_dataset(std::int64_t side, int frames) {
  data::MilanConfig config;
  config.rows = side;
  config.cols = side;
  config.num_hotspots = 10;
  config.seed = 170;
  return data::TrafficDataset(
      data::MilanTrafficGenerator(config).generate(60, frames), 10);
}

core::PipelineConfig tiny_pipeline_config() {
  core::PipelineConfig config;
  config.instance = data::MtsrInstance::kUp2;
  config.window = 8;
  config.temporal_length = 2;
  config.zipnet.base_channels = 3;
  config.zipnet.zipper_modules = 3;
  config.zipnet.zipper_channels = 6;
  config.zipnet.final_channels = 8;
  config.discriminator.base_channels = 2;
  config.trainer.batch_size = 4;
  config.trainer.learning_rate = 2e-3f;
  config.pretrain_steps = 4;
  config.gan_rounds = 2;
  return config;
}

TEST(AllocationRegression, SteadyStateTrainStepHasZeroArenaGrowth) {
  data::TrafficDataset dataset = tiny_dataset(16, 40);
  core::MtsrPipeline pipeline(tiny_pipeline_config(), dataset);

  // Warm-up: pretrain steps plus full adversarial rounds touch every
  // layer's forward/backward path and push the arena to its high-water
  // capacity.
  pipeline.train();

  Workspace& ws = Workspace::tls();
  const auto warm = ws.stats();
  // Steady state: further adversarial rounds and pretrain steps must not
  // allocate any new arena capacity, and every step must drain fully.
  pipeline.train();
  const auto after = ws.stats();
  EXPECT_EQ(after.capacity_bytes, warm.capacity_bytes);
  EXPECT_EQ(after.growth_events, warm.growth_events);
  EXPECT_EQ(after.live_bytes, warm.live_bytes);
  EXPECT_GT(after.alloc_count, warm.alloc_count);  // the arena was used
}

TEST(AllocationRegression, SteadyStatePredictFrameHasZeroArenaGrowth) {
  data::TrafficDataset dataset = tiny_dataset(16, 40);
  core::MtsrPipeline pipeline(tiny_pipeline_config(), dataset);
  const std::int64_t t = dataset.test_range().begin + 2;

  // Warm-up stitched full-frame prediction. Since the serving redesign the
  // generator's scratch planes into predict_frame's session arenas (the
  // rotating workspace pair), surfaced through Engine::stats().
  Tensor first = pipeline.predict_frame(t);
  ASSERT_TRUE(first.all_finite());

  auto session_arena = [&] {
    return pipeline.engine().stats().sessions.at(0).arena;
  };
  const auto warm = session_arena();
  for (int i = 0; i < 3; ++i) {
    Tensor pred = pipeline.predict_frame(t);
    ASSERT_EQ(pred.shape(), first.shape());
  }
  const auto after = session_arena();
  EXPECT_EQ(after.capacity_bytes, warm.capacity_bytes);
  EXPECT_EQ(after.growth_events, warm.growth_events);
  EXPECT_EQ(after.live_bytes, warm.live_bytes);
  EXPECT_GT(after.alloc_count, warm.alloc_count);
}

}  // namespace
}  // namespace mtsr
