// Tests for the serving scheduler: cross-session batch fusion (float
// parity + int8 bit-identity + pool-size determinism), request-level
// dedup/memoization for fan-out consumers (bitwise-equal frames, content
// guarding), checkpoint hot-reload (block-boundary swap, mismatch
// diagnostics, failure leaving the old model bit-identical, concurrent
// reload with zero dropped/duplicated blocks), and the scheduler telemetry
// surface.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include "src/baselines/super_resolver.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/milan.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "src/serving/scheduler.hpp"

namespace mtsr::serving {
namespace {

struct PoolGuard {
  ~PoolGuard() {
    set_num_threads(0);
    set_num_shards(0);
  }
};

data::TrafficDataset small_dataset(std::uint64_t seed = 510,
                                   std::int64_t side = 16) {
  data::MilanConfig config;
  config.rows = side;
  config.cols = side;
  config.num_hotspots = 10;
  config.seed = seed;
  return data::TrafficDataset(
      data::MilanTrafficGenerator(config).generate(0, 40), 10);
}

core::PipelineConfig small_pipeline_config() {
  core::PipelineConfig config;
  config.instance = data::MtsrInstance::kUp4;
  config.window = 8;
  config.temporal_length = 3;
  config.zipnet.base_channels = 3;
  config.zipnet.zipper_modules = 3;
  config.zipnet.zipper_channels = 6;
  config.zipnet.final_channels = 8;
  config.discriminator.base_channels = 2;
  config.pretrain_steps = 20;
  config.gan_rounds = 0;
  return config;
}

SessionConfig stream_config(const data::TrafficDataset& dataset,
                            std::string model = "zipnet",
                            std::string stream = "") {
  SessionConfig config = SessionConfig::from_dataset(
      std::move(model), data::MtsrInstance::kUp4, dataset, 8, 4);
  config.stream = std::move(stream);
  return config;
}

void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.flat(i), b.flat(i)) << what << " differs at " << i;
  }
}

// Fusion widens the generator's lowered GEMMs, which can move the
// float-add order inside shared SIMD reduction tails: parity is <= 1e-5 in
// normalised units, compared here after denormalisation with the matching
// relative scale.
void expect_fusion_parity(const Tensor& fused, const Tensor& ref,
                          const char* what) {
  ASSERT_EQ(fused.shape(), ref.shape()) << what;
  for (std::int64_t i = 0; i < ref.size(); ++i) {
    const float tol = 1e-5f * (1.f + std::abs(ref.flat(i)));
    ASSERT_NEAR(fused.flat(i), ref.flat(i), tol) << what << " at " << i;
  }
}

TEST(Scheduler, FusedServingMatchesIndependentSessions) {
  PoolGuard guard;
  // Queue-depth and fusion expectations below count ALL sessions in one
  // round, which holds exactly when they share a shard.
  set_num_shards(1);
  data::TrafficDataset dataset = small_dataset(511);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  constexpr int kSessions = 4;
  // Distinct streams: session i serves the feed shifted by i frames, so no
  // two sessions ever see the same data (dedup must not engage even if it
  // were enabled — these sessions carry no stream tag).
  auto frame_for = [&](int session, std::int64_t t) {
    return dataset.frame(t + session);
  };

  // Reference: every session served independently (engine.push), pool 1.
  set_num_threads(1);
  std::vector<Tensor> reference;
  {
    Engine engine;
    engine.register_model("zipnet", model);
    std::vector<Engine::SessionId> ids;
    for (int i = 0; i < kSessions; ++i) {
      ids.push_back(engine.open_session(stream_config(dataset)));
    }
    for (std::int64_t t = 0; t < 5; ++t) {
      for (int i = 0; i < kSessions; ++i) {
        auto out = engine.push(ids[i], frame_for(i, t));
        if (out) reference.push_back(std::move(*out));
      }
    }
    const Engine::Stats stats = engine.stats();
    EXPECT_EQ(stats.scheduler.fused_passes, 0);  // nothing to fuse
    EXPECT_EQ(stats.scheduler.dedup_lookups, 0);
  }
  ASSERT_EQ(reference.size(), kSessions * 3u);

  // Fused: all sessions advanced through one scheduler call per frame.
  auto run_fused = [&](int threads) {
    set_num_threads(threads);
    Engine engine;
    engine.register_model("zipnet", model);
    std::vector<Engine::SessionId> ids;
    for (int i = 0; i < kSessions; ++i) {
      ids.push_back(engine.open_session(stream_config(dataset)));
    }
    std::vector<Tensor> outputs;
    for (std::int64_t t = 0; t < 5; ++t) {
      std::vector<Tensor> frames;
      for (int i = 0; i < kSessions; ++i) frames.push_back(frame_for(i, t));
      auto outs = engine.push_all(ids, frames);
      for (auto& o : outs) {
        if (o) outputs.push_back(std::move(*o));
      }
    }
    const Engine::Stats stats = engine.stats();
    EXPECT_GT(stats.scheduler.fused_passes, 0);
    EXPECT_EQ(stats.scheduler.max_queue_depth, kSessions);
    return outputs;
  };

  const std::vector<Tensor> fused1 = run_fused(1);
  ASSERT_EQ(fused1.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_fusion_parity(fused1[i], reference[i], "fused vs independent");
  }

  // For a fixed session composition the fused output is deterministic
  // across pool sizes (chunk geometry depends only on trip counts).
  const int hw = []() {
    set_num_threads(0);
    return num_threads();
  }();
  for (int threads : {2, hw}) {
    const std::vector<Tensor> fused = run_fused(threads);
    ASSERT_EQ(fused.size(), fused1.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
      expect_bitwise(fused[i], fused1[i], "fused across pool sizes");
    }
  }
}

TEST(Scheduler, FusedServingBitIdenticalInt8) {
  // The int8 forward accumulates in exact s32 with a single-rounding
  // epilogue: per-sample batch-invariant, so fusion is bit-identical.
  data::TrafficDataset dataset = small_dataset(512);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = quantize_generator(
      pipeline.generator(),
      calibration_batches(dataset, pipeline.window_layout(), 3, 8, 4));

  constexpr int kSessions = 3;
  std::vector<Tensor> reference;
  {
    Engine engine;
    engine.register_model("zipnet-int8", model);
    std::vector<Engine::SessionId> ids;
    for (int i = 0; i < kSessions; ++i) {
      ids.push_back(engine.open_session(stream_config(dataset, "zipnet-int8")));
    }
    for (std::int64_t t = 0; t < 5; ++t) {
      for (int i = 0; i < kSessions; ++i) {
        auto out = engine.push(ids[i], dataset.frame(t + i));
        if (out) reference.push_back(std::move(*out));
      }
    }
  }
  Engine engine;
  engine.register_model("zipnet-int8", model);
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset, "zipnet-int8")));
  }
  std::vector<Tensor> fused;
  for (std::int64_t t = 0; t < 5; ++t) {
    std::vector<Tensor> frames;
    for (int i = 0; i < kSessions; ++i) frames.push_back(dataset.frame(t + i));
    for (auto& o : engine.push_all(ids, frames)) {
      if (o) fused.push_back(std::move(*o));
    }
  }
  ASSERT_EQ(fused.size(), reference.size());
  ASSERT_EQ(fused.size(), kSessions * 3u);
  EXPECT_GT(engine.stats().scheduler.fused_passes, 0);
  for (std::size_t i = 0; i < fused.size(); ++i) {
    expect_bitwise(fused[i], reference[i], "int8 fused vs independent");
  }
}

TEST(Scheduler, DedupFanoutConsumersReceiveBitwiseEqualFrames) {
  data::TrafficDataset dataset = small_dataset(513);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  // Control: one untagged session — the plain unscheduled path.
  Engine control;
  control.register_model("zipnet", model);
  const auto control_id = control.open_session(stream_config(dataset));

  // Three fan-out consumers of the same coarse feed, served fused.
  Engine engine;
  engine.register_model("zipnet", model);
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset, "zipnet", "milan")));
  }
  for (std::int64_t t = 0; t < 6; ++t) {
    auto expected = control.push(control_id, dataset.frame(t));
    auto outs = engine.push_fused(ids, dataset.frame(t));
    ASSERT_EQ(outs.size(), 3u);
    for (const auto& o : outs) {
      ASSERT_EQ(o.has_value(), expected.has_value());
      if (o) {
        // Consumers share ONE inference: bitwise-equal to each other and
        // to the unscheduled path (the representative block runs the
        // single-request pass).
        expect_bitwise(*o, *expected, "fan-out consumer vs control");
      }
    }
  }
  const Engine::Stats stats = engine.stats();
  // 4 inferences x 5 blocks x 3 consumers looked up; 2 of 3 hit per block.
  EXPECT_EQ(stats.scheduler.dedup_lookups, 4 * 5 * 3);
  EXPECT_EQ(stats.scheduler.dedup_hits, 4 * 5 * 2);
  EXPECT_EQ(stats.scheduler.fused_passes, 0);  // dedup'd, nothing left to fuse
  // The memo holds only the newest epoch: one entry per block.
  EXPECT_EQ(stats.scheduler.memo_entries, 5);

  // Sequential pushes dedup through the same memo (no co-scheduling
  // needed): a late subscriber pushed on its own still hits.
  const auto late = engine.open_session(stream_config(dataset, "zipnet", "milan"));
  const std::int64_t before = engine.stats().scheduler.dedup_hits;
  for (std::int64_t t = 3; t < 6; ++t) {
    auto expected = control.session(control_id).push(dataset.frame(t));
    (void)expected;
    auto out = engine.push(late, dataset.frame(t));
    if (t == 5) {
      ASSERT_TRUE(out.has_value());
    }
  }
  EXPECT_EQ(engine.stats().scheduler.dedup_hits, before + 5);
}

TEST(Scheduler, DedupIsContentGuarded) {
  // Two sessions mis-tagged as one stream but fed different frames: the
  // frame-hash chain in the key keeps them independent.
  data::TrafficDataset dataset = small_dataset(514);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  Engine engine;
  engine.register_model("zipnet", model);
  const auto a = engine.open_session(stream_config(dataset, "zipnet", "city"));
  const auto b = engine.open_session(stream_config(dataset, "zipnet", "city"));

  Engine control;
  control.register_model("zipnet", model);
  const auto ca = control.open_session(stream_config(dataset));
  const auto cb = control.open_session(stream_config(dataset));

  for (std::int64_t t = 0; t < 5; ++t) {
    auto outs = engine.push_all({a, b}, {dataset.frame(t), dataset.frame(t + 7)});
    auto ea = control.push(ca, dataset.frame(t));
    auto eb = control.push(cb, dataset.frame(t + 7));
    ASSERT_EQ(outs[0].has_value(), ea.has_value());
    ASSERT_EQ(outs[1].has_value(), eb.has_value());
    if (ea) expect_fusion_parity(*outs[0], *ea, "mis-tagged session a");
    if (eb) expect_fusion_parity(*outs[1], *eb, "mis-tagged session b");
  }
  const Engine::Stats stats = engine.stats();
  EXPECT_GT(stats.scheduler.dedup_lookups, 0);
  EXPECT_EQ(stats.scheduler.dedup_hits, 0);
}

TEST(Scheduler, RejectedPushAdmitsAndPublishesNothing) {
  // A bad frame anywhere in a call rejects the whole call before any
  // session takes its frame and before the frame sink publishes.
  data::TrafficDataset dataset = small_dataset(523);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  Engine engine;
  engine.register_model("zipnet", model);
  std::int64_t published = 0;
  engine.set_frame_sink(
      [&published](const std::string&, const Tensor&) { ++published; });
  const auto a = engine.open_session(stream_config(dataset));
  const auto b = engine.open_session(stream_config(dataset));

  Engine control;
  control.register_model("zipnet", model);
  const auto c = control.open_session(stream_config(dataset));

  for (std::int64_t t = 0; t < 2; ++t) {
    (void)engine.push_all({a, b}, {dataset.frame(t), dataset.frame(t)});
    (void)control.push(c, dataset.frame(t));
  }
  const std::int64_t before = published;

  Tensor poisoned = dataset.frame(2);
  poisoned.flat(17) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW((void)engine.push_all({a, b}, {dataset.frame(2), poisoned}),
               ContractViolation);
  EXPECT_THROW((void)engine.push_all({a, b},
                                     {dataset.frame(2), Tensor(Shape{4, 4})}),
               ContractViolation);
  EXPECT_THROW((void)engine.push_fused({a, b}, poisoned), ContractViolation);
  EXPECT_THROW((void)engine.push(a, poisoned), ContractViolation);
  EXPECT_EQ(published, before);
  EXPECT_EQ(engine.session(a).frames_until_ready(), 1);
  EXPECT_EQ(engine.session(b).frames_until_ready(), 1);

  // Neither session took a frame: a's outputs continue bitwise equal to a
  // control session that never saw the rejected calls.
  for (std::int64_t t = 2; t < 5; ++t) {
    auto expected = control.push(c, dataset.frame(t));
    auto got = engine.push(a, dataset.frame(t));
    ASSERT_TRUE(expected.has_value());
    ASSERT_TRUE(got.has_value());
    expect_bitwise(*got, *expected, "session a after rejected calls");
  }
}

TEST(Scheduler, ClosingTheLastConsumerFreesTheStreamMemo) {
  data::TrafficDataset dataset = small_dataset(523);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(pipeline.generator()));
  const auto a = engine.open_session(stream_config(dataset, "zipnet", "m"));
  const auto b = engine.open_session(stream_config(dataset, "zipnet", "m"));
  for (std::int64_t t = 0; t < 4; ++t) {
    (void)engine.push_fused({a, b}, dataset.frame(t));
  }
  EXPECT_GT(engine.stats().scheduler.memo_entries, 0);
  engine.close_session(a);
  EXPECT_GT(engine.stats().scheduler.memo_entries, 0);  // b still holds it
  engine.close_session(b);
  EXPECT_EQ(engine.stats().scheduler.memo_entries, 0);
}

TEST(Scheduler, HotReloadSwapsAtBlockBoundary) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mtsr_sched_reload.bin")
          .string();
  data::TrafficDataset dataset = small_dataset(515);
  core::MtsrPipeline serving(small_pipeline_config(), dataset);

  // A second generator with the same architecture but different weights.
  core::PipelineConfig other_config = small_pipeline_config();
  other_config.seed = 77;
  core::MtsrPipeline other(other_config, dataset);
  other.save_generator(path);

  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(serving.generator()));
  const auto id = engine.open_session(stream_config(dataset));
  const Model* before = engine.model("zipnet").get();

  for (std::int64_t t = 0; t < 3; ++t) {
    (void)engine.push(id, dataset.frame(t));
  }
  engine.reload_model("zipnet", path);
  EXPECT_NE(engine.model("zipnet").get(), before);
  EXPECT_EQ(engine.model("zipnet")->name(), "zipnet");
  auto after = engine.push(id, dataset.frame(3));
  ASSERT_TRUE(after.has_value());

  // Control: the reloaded weights served from scratch over an identical
  // history must match bitwise (the swap is all-or-nothing and the session
  // state carries over untouched).
  Engine control;
  control.register_model(
      "zipnet", std::make_shared<ZipNetModel>(other.generator()));
  const auto cid = control.open_session(stream_config(dataset));
  std::optional<Tensor> expected;
  for (std::int64_t t = 1; t <= 3; ++t) {
    expected = control.push(cid, dataset.frame(t));
  }
  ASSERT_TRUE(expected.has_value());
  expect_bitwise(*after, *expected, "post-reload vs fresh-session control");

  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.reloads_applied, 1);
  EXPECT_EQ(stats.reloads_failed, 0);
  EXPECT_EQ(stats.sessions.at(0).inference_count, 2);
  std::remove(path.c_str());
}

TEST(Scheduler, FailedReloadLeavesOldModelServingBitIdentically) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mtsr_sched_badckpt.bin")
          .string();
  data::TrafficDataset dataset = small_dataset(516);
  core::MtsrPipeline serving(small_pipeline_config(), dataset);

  // Same parameter count, different width: the loader diagnostics must
  // name the first diverging parameter with both shapes.
  core::PipelineConfig wider = small_pipeline_config();
  wider.zipnet.zipper_channels = 12;
  core::MtsrPipeline mismatched(wider, dataset);
  mismatched.save_generator(path);

  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(serving.generator()));
  const auto id = engine.open_session(stream_config(dataset));
  Engine control;
  control.register_model(
      "zipnet", std::make_shared<ZipNetModel>(serving.generator()));
  const auto cid = control.open_session(stream_config(dataset));

  for (std::int64_t t = 0; t < 3; ++t) {
    auto out = engine.push(id, dataset.frame(t));
    auto expected = control.push(cid, dataset.frame(t));
    ASSERT_EQ(out.has_value(), expected.has_value());
    if (out) expect_bitwise(*out, *expected, "pre-reload serving");
  }

  const Model* before = engine.model("zipnet").get();
  try {
    engine.reload_model("zipnet", path);
    FAIL() << "expected the mismatched checkpoint to be rejected";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("shape mismatch at parameter"), std::string::npos)
        << message;
    EXPECT_NE(message.find("model expects"), std::string::npos) << message;
    EXPECT_NE(message.find("checkpoint has"), std::string::npos) << message;
  }
  EXPECT_EQ(engine.model("zipnet").get(), before);  // slot untouched

  for (std::int64_t t = 3; t < 6; ++t) {
    auto out = engine.push(id, dataset.frame(t));
    auto expected = control.push(cid, dataset.frame(t));
    ASSERT_TRUE(out.has_value());
    expect_bitwise(*out, *expected, "post-failed-reload serving");
  }
  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.reloads_applied, 0);
  EXPECT_EQ(stats.reloads_failed, 1);
  std::remove(path.c_str());
}

TEST(Scheduler, ReloadValidatesReplacementAgainstOpenSessions) {
  data::TrafficDataset dataset = small_dataset(517);
  core::MtsrPipeline serving(small_pipeline_config(), dataset);

  // Replacement with S=2: open sessions hold 3 frames of history.
  core::PipelineConfig shorter = small_pipeline_config();
  shorter.temporal_length = 2;
  core::MtsrPipeline incompatible(shorter, dataset);

  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(serving.generator()));
  const auto id = engine.open_session(stream_config(dataset));
  (void)id;
  try {
    engine.reload_model(
        "zipnet", std::make_shared<ZipNetModel>(incompatible.generator()));
    FAIL() << "expected the incompatible replacement to be rejected";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("old model keeps serving"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine.stats().reloads_failed, 1);

  // Models without checkpoint weights refuse the path form outright.
  engine.register_model("bicubic",
                        std::make_shared<BaselineModel>(
                            baselines::make_super_resolver("bicubic")));
  EXPECT_THROW(engine.reload_model("bicubic", "whatever.bin"),
               ContractViolation);
}

TEST(Scheduler, ConcurrentReloadDropsNoBlocks) {
  const std::string path_a =
      (std::filesystem::temp_directory_path() / "mtsr_sched_ckpt_a.bin")
          .string();
  const std::string path_b =
      (std::filesystem::temp_directory_path() / "mtsr_sched_ckpt_b.bin")
          .string();
  data::TrafficDataset dataset = small_dataset(518);
  core::MtsrPipeline serving(small_pipeline_config(), dataset);
  serving.save_generator(path_a);
  core::PipelineConfig other_config = small_pipeline_config();
  other_config.seed = 99;
  core::MtsrPipeline other(other_config, dataset);
  other.save_generator(path_b);

  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(serving.generator()));
  // Two fan-out consumers plus one independent stream: dedup, fusion and
  // reload all in play at once.
  std::vector<Engine::SessionId> ids;
  ids.push_back(engine.open_session(stream_config(dataset, "zipnet", "milan")));
  ids.push_back(engine.open_session(stream_config(dataset, "zipnet", "milan")));
  ids.push_back(engine.open_session(stream_config(dataset)));

  constexpr std::int64_t kFrames = 16;
  std::atomic<bool> done{false};
  std::int64_t produced = 0;
  bool all_finite = true;
  // The serving thread owns every engine call except reload_model — the
  // documented concurrency contract.
  std::thread server([&] {
    for (std::int64_t t = 0; t < kFrames; ++t) {
      std::vector<Tensor> frames(3, dataset.frame(t % 20));
      auto outs = engine.push_all(ids, frames);
      for (const auto& o : outs) {
        if (o) {
          ++produced;
          all_finite = all_finite && o->all_finite();
        }
      }
    }
    done.store(true);
  });
  std::int64_t reloads = 0;
  while (!done.load()) {
    engine.reload_model("zipnet", (reloads % 2 == 0) ? path_b : path_a);
    ++reloads;
  }
  server.join();

  // Zero dropped or duplicated blocks: every warm push of every session
  // produced exactly one finite frame, whatever weights each block ran on.
  EXPECT_EQ(produced, 3 * (kFrames - 2));
  EXPECT_TRUE(all_finite);
  EXPECT_GE(reloads, 1);
  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.reloads_applied, reloads);
  EXPECT_EQ(stats.reloads_failed, 0);
  for (const auto& s : stats.sessions) {
    EXPECT_EQ(s.inference_count, kFrames - 2);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(Scheduler, FuseCapShapesThePasses) {
  PoolGuard guard;
  // Fusion only combines sessions of one shard.
  set_num_shards(1);
  data::TrafficDataset dataset = small_dataset(519);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(pipeline.generator()));
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset)));
  }
  for (std::int64_t t = 0; t < 3; ++t) {
    std::vector<Tensor> frames;
    for (int i = 0; i < 4; ++i) frames.push_back(dataset.frame(t + i));
    (void)engine.push_all(ids, frames);
  }
  const SchedulerStats stats = engine.stats().scheduler;

  // 9 windows per session in blocks of 2, one inference per session: the
  // first four rounds enqueue 4x2 windows, the last 4x1. Scheduler::kFuseCap
  // (4 windows) packs the 2-window rounds into pairs of sessions and the
  // last round into one pass of all four.
  static_assert(Scheduler::kFuseCap == 4);
  ASSERT_EQ(stats.fused_histogram.size(), 5u);
  EXPECT_EQ(stats.fused_histogram[4], 4 * 2 + 1);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(stats.fused_histogram[b], 0) << "pass of " << b << " windows";
  }
  EXPECT_EQ(stats.fused_passes, 4 * 2 + 1);
  // Telemetry invariants: the histogram decomposes the pass/window totals.
  std::int64_t passes = 0, windows = 0;
  for (std::size_t b = 0; b < stats.fused_histogram.size(); ++b) {
    passes += stats.fused_histogram[b];
    windows += static_cast<std::int64_t>(b) * stats.fused_histogram[b];
  }
  EXPECT_EQ(passes, stats.passes);
  EXPECT_EQ(windows, stats.windows);
  EXPECT_EQ(stats.windows, 4 * 9);
}

TEST(Scheduler, TelemetryRendersInStatsTable) {
  data::TrafficDataset dataset = small_dataset(520);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(pipeline.generator()));
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < 2; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset, "zipnet", "m")));
  }
  for (std::int64_t t = 0; t < 4; ++t) {
    (void)engine.push_fused(ids, dataset.frame(t));
  }
  const std::string table = render_stats_table(engine.stats());
  EXPECT_NE(table.find("scheduler:"), std::string::npos) << table;
  EXPECT_NE(table.find("skips"), std::string::npos) << table;
  EXPECT_NE(table.find("fused batch sizes:"), std::string::npos) << table;
  EXPECT_NE(table.find("dedup:"), std::string::npos) << table;
  EXPECT_NE(table.find("reloads:"), std::string::npos) << table;
  EXPECT_NE(table.find("max queue"), std::string::npos) << table;
}

TEST(Scheduler, DedupSkipsAdmitCoarseningForMemoServedConsumers) {
  // Fan-out consumers defer their admit-time per-window coarsening; a
  // consumer whose blocks the stream memo serves end to end never pays it
  // at all. Outputs stay bitwise-equal to the untagged control — deferral
  // only moves WHEN coarsening runs, never its values.
  data::TrafficDataset dataset = small_dataset(524);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  Engine engine;
  engine.register_model("zipnet", model);
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset, "zipnet", "milan")));
  }
  const auto solo = engine.open_session(stream_config(dataset));  // untagged

  Engine control;
  control.register_model("zipnet", model);
  const auto control_id = control.open_session(stream_config(dataset));

  for (std::int64_t t = 0; t < 8; ++t) {
    auto outs = engine.push_fused(ids, dataset.frame(t));
    auto own = engine.push(solo, dataset.frame(t));
    auto expected = control.push(control_id, dataset.frame(t));
    for (const auto& o : outs) {
      ASSERT_EQ(o.has_value(), expected.has_value());
      if (o) expect_bitwise(*o, *expected, "deferred-coarsening consumer");
    }
    ASSERT_EQ(own.has_value(), expected.has_value());
    if (own) expect_bitwise(*own, *expected, "untagged session");
  }

  const Engine::Stats stats = engine.stats();
  for (const Engine::SessionStats& s : stats.sessions) {
    if (s.id == ids[0] || s.id == solo) {
      // The first consumer computes every block (its gathers force the
      // coarsening); untagged sessions coarsen eagerly on admit.
      EXPECT_EQ(s.coarsen_skips, 0) << "session " << s.id;
    } else {
      // Memo-served consumers: every post-warm-up eviction (t = 3..7)
      // drops a frame whose coarsening was never needed.
      EXPECT_EQ(s.coarsen_skips, 5) << "session " << s.id;
    }
  }
}

}  // namespace
}  // namespace mtsr::serving
