// Tests for the serving layer: engine/session lifecycle, warm-up
// semantics, multi-session determinism (pool sizes, interleavings, overlap
// off at one worker and on above it), predict_frame-vs-session output
// identity, per-session arena telemetry and the zero-growth steady-state
// contract, baseline interchangeability, and the load_generator
// architecture diagnostics.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "src/baselines/super_resolver.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/topology.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/milan.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"

namespace mtsr::serving {
namespace {

struct PoolGuard {
  ~PoolGuard() {
    set_num_threads(0);
    set_num_shards(0);
  }
};

data::TrafficDataset small_dataset(std::uint64_t seed = 410,
                                   std::int64_t side = 16,
                                   bool log_transform = true) {
  data::MilanConfig config;
  config.rows = side;
  config.cols = side;
  config.num_hotspots = 10;
  config.seed = seed;
  return data::TrafficDataset(
      data::MilanTrafficGenerator(config).generate(0, 40), 10,
      log_transform);
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

void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.flat(i), b.flat(i)) << what << " differs at " << i;
  }
}

TEST(Engine, RegistryAndSessionLifecycle) {
  data::TrafficDataset dataset = small_dataset();
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);

  Engine engine;
  EXPECT_FALSE(engine.has_model("zipnet"));
  EXPECT_THROW((void)engine.model("zipnet"), ContractViolation);
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(pipeline.generator()));
  engine.register_model("uniform",
                        std::make_shared<BaselineModel>(
                            baselines::make_super_resolver("uniform")));
  EXPECT_TRUE(engine.has_model("zipnet"));
  EXPECT_EQ(engine.model_names(),
            (std::vector<std::string>{"uniform", "zipnet"}));

  SessionConfig config = SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, dataset, 8, 4);
  const auto id = engine.open_session(config);
  EXPECT_EQ(engine.session_count(), 1);
  EXPECT_EQ(engine.session(id).temporal_length(), 3);

  SessionConfig unknown = config;
  unknown.model = "missing";
  EXPECT_THROW((void)engine.open_session(unknown), ContractViolation);

  engine.close_session(id);
  EXPECT_EQ(engine.session_count(), 0);
  EXPECT_THROW((void)engine.session(id), ContractViolation);
  EXPECT_THROW(engine.close_session(id), ContractViolation);
}

TEST(Engine, RejectsIncompatibleStreamGeometry) {
  data::TrafficDataset dataset = small_dataset();
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(pipeline.generator()));

  // up-2 layout over the same window: input side 4 (not 2), so the
  // generator's 4x upscale no longer maps onto the window.
  SessionConfig config = SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp2, dataset, 8, 4);
  EXPECT_THROW((void)engine.open_session(config), ContractViolation);

  SessionConfig window_too_big = SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, dataset, 32, 4);
  EXPECT_THROW((void)engine.open_session(window_too_big), ContractViolation);
}

TEST(Session, WarmUpSemanticsThroughEngine) {
  data::TrafficDataset dataset = small_dataset(411);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(pipeline.generator()));
  const auto id = engine.open_session(SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, dataset, 8, 4));

  Session& session = engine.session(id);
  EXPECT_EQ(session.frames_until_ready(), 3);
  EXPECT_FALSE(engine.push(id, dataset.frame(0)).has_value());
  EXPECT_FALSE(engine.push(id, dataset.frame(1)).has_value());
  EXPECT_EQ(session.frames_until_ready(), 1);
  for (std::int64_t t = 2; t < 6; ++t) {
    auto prediction = engine.push(id, dataset.frame(t));
    ASSERT_TRUE(prediction.has_value());
    EXPECT_EQ(prediction->shape(), dataset.frame(t).shape());
    EXPECT_TRUE(prediction->all_finite());
    EXPECT_EQ(session.frames_until_ready(), 0);
  }
  EXPECT_EQ(session.inference_count(), 4);

  session.reset();
  EXPECT_EQ(session.frames_until_ready(), 3);
  EXPECT_FALSE(engine.push(id, dataset.frame(0)).has_value());

  EXPECT_THROW((void)engine.push(id, Tensor(Shape{8, 8})),
               ContractViolation);
}

TEST(Session, PipelineShimMatchesEngineSession) {
  // predict_frame and a hand-opened default-config session of the same
  // geometry must produce bit-identical full-grid predictions.
  data::TrafficDataset dataset = small_dataset(412);
  core::PipelineConfig config = small_pipeline_config();
  config.stitch_stride = 3;
  core::MtsrPipeline pipeline(config, dataset);

  SessionConfig session_config = SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, dataset, 8, 3);
  const auto id = pipeline.engine().open_session(session_config);

  for (std::int64_t t : {4, 5, 9}) {
    Session& session = pipeline.engine().session(id);
    session.reset();
    std::optional<Tensor> manual;
    for (std::int64_t f = t - 2; f <= t; ++f) {
      manual = session.push(dataset.frame(f));
    }
    ASSERT_TRUE(manual.has_value());
    Tensor shim = pipeline.predict_frame(t);
    expect_bitwise(shim, *manual, "predict_frame vs engine session");
  }
}

TEST(Session, DeterministicAcrossPoolSizesInterleavingsAndOverlap) {
  PoolGuard guard;
  data::TrafficDataset dataset = small_dataset(414);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  // Reference: pool size 1 (stage-thread overlap off), sessions fed one
  // after the other. Larger pools serve with the overlap on.
  auto run = [&](int threads, bool interleave) {
    set_num_threads(threads);
    Engine engine;
    engine.register_model("zipnet", model);
    SessionConfig config = SessionConfig::from_dataset(
        "zipnet", data::MtsrInstance::kUp4, dataset, 8, 4);
    const auto a = engine.open_session(config);
    const auto b = engine.open_session(config);
    // Keyed (session, frame) so the comparison is independent of the order
    // the predictions were produced in.
    std::vector<Tensor> outputs(10);
    auto record = [&](int which, std::int64_t t, std::optional<Tensor> p) {
      if (p) outputs[static_cast<std::size_t>(which * 5 + t)] = std::move(*p);
    };
    if (interleave) {
      for (std::int64_t t = 0; t < 5; ++t) {
        record(0, t, engine.push(a, dataset.frame(t)));
        record(1, t, engine.push(b, dataset.frame(t)));
      }
    } else {
      for (int which : {0, 1}) {
        for (std::int64_t t = 0; t < 5; ++t) {
          record(which, t,
                 engine.push(which == 0 ? a : b, dataset.frame(t)));
        }
      }
    }
    return outputs;
  };

  const auto reference = run(1, false);
  ASSERT_EQ(reference.size(), 10u);  // slots; first 2 per session stay empty

  const int hw = []() {
    set_num_threads(0);
    return num_threads();
  }();
  for (int threads : {1, 2, hw}) {
    for (bool interleave : {false, true}) {
      const auto outputs = run(threads, interleave);
      ASSERT_EQ(outputs.size(), reference.size());
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        ASSERT_EQ(outputs[i].empty(), reference[i].empty());
        if (outputs[i].empty()) continue;
        expect_bitwise(outputs[i], reference[i],
                       "engine output across pool/interleave/overlap");
      }
    }
  }
}

TEST(Session, BitIdenticalAcrossShardCountsAndPoolSizes) {
  PoolGuard guard;
  data::TrafficDataset dataset = small_dataset(418);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  // Single-request serving (engine.push) must be bit-identical however the
  // pool is sharded: sharding changes WHERE a session's passes run, never
  // their chunk geometry or float-add order.
  auto run = [&](int shards, int threads) {
    set_num_shards(shards);
    set_num_threads(threads);
    Engine engine;
    engine.register_model("zipnet", model);
    SessionConfig config = SessionConfig::from_dataset(
        "zipnet", data::MtsrInstance::kUp4, dataset, 8, 4);
    const auto a = engine.open_session(config);
    const auto b = engine.open_session(config);
    std::vector<Tensor> outputs;
    for (std::int64_t t = 0; t < 5; ++t) {
      for (auto id : {a, b}) {
        auto out = engine.push(id, dataset.frame(t));
        if (out) outputs.push_back(std::move(*out));
      }
    }
    return outputs;
  };

  const auto reference = run(1, 1);
  ASSERT_EQ(reference.size(), 6u);
  const int hw = []() {
    set_num_threads(0);
    return num_threads();
  }();
  for (int shards : {1, 2}) {
    for (int threads : {1, 2, hw}) {
      const auto outputs = run(shards, threads);
      ASSERT_EQ(outputs.size(), reference.size());
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        expect_bitwise(outputs[i], reference[i],
                       "single-request output across shard/pool topology");
      }
    }
  }
}

TEST(Session, OpenSessionsHoldThePoolTopology) {
  PoolGuard guard;
  data::TrafficDataset dataset = small_dataset(419);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);

  set_num_threads(2);
  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(pipeline.generator()));
  const auto id = engine.open_session(SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, dataset, 8, 4));

  // A session's shard assignment and arenas are sized against the pool at
  // open time, so reconfiguration must be rejected while any is open...
  EXPECT_THROW(set_num_threads(4), ContractViolation);
  EXPECT_THROW(set_num_shards(2), ContractViolation);
  EXPECT_THROW(set_affinity_policy(AffinityPolicy::kCompact),
               ContractViolation);
  EXPECT_EQ(num_threads(), 2);

  // ...and becomes legal as soon as the last one closes.
  engine.close_session(id);
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_shards(1);
}

TEST(Session, SteadyStateServingHasZeroArenaGrowth) {
  data::TrafficDataset dataset = small_dataset(415);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(pipeline.generator()));
  SessionConfig config = SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, dataset, 8, 4);
  // 9 windows in blocks of Scheduler::kFixedBlock (2) -> 5 blocks: both
  // arena slots in play.
  const auto id = engine.open_session(config);

  // Warm-up: the first inference pushes both rotating arenas to their
  // high-water capacity.
  for (std::int64_t t = 0; t < 3; ++t) {
    (void)engine.push(id, dataset.frame(t));
  }
  const Workspace::Stats warm = engine.session(id).arena_stats();
  EXPECT_GT(warm.capacity_bytes, 0);

  for (std::int64_t t = 3; t < 8; ++t) {
    ASSERT_TRUE(engine.push(id, dataset.frame(t)).has_value());
  }
  const Workspace::Stats after = engine.session(id).arena_stats();
  EXPECT_EQ(after.capacity_bytes, warm.capacity_bytes);
  EXPECT_EQ(after.growth_events, warm.growth_events);
  EXPECT_EQ(after.live_bytes, 0);
  EXPECT_GT(after.alloc_count, warm.alloc_count);  // the arenas were used

  // The telemetry surface reports the same counters per session.
  const Engine::Stats stats = engine.stats();
  ASSERT_EQ(stats.sessions.size(), 1u);
  EXPECT_EQ(stats.sessions[0].arena.capacity_bytes, after.capacity_bytes);
  EXPECT_EQ(stats.sessions[0].inference_count, 6);
  const std::string table = render_stats_table(stats);
  EXPECT_NE(table.find("zipnet"), std::string::npos);
  EXPECT_NE(table.find("growth"), std::string::npos);
}

TEST(Session, BaselinesServeBehindTheSameVtable) {
  // log_transform off so normalise/denormalise round-trips exactly enough
  // to compare against the resolver's direct output.
  data::TrafficDataset dataset = small_dataset(416, 16, false);
  Engine engine;
  engine.register_model("uniform",
                        std::make_shared<BaselineModel>(
                            baselines::make_super_resolver("uniform")));
  engine.register_model("bicubic",
                        std::make_shared<BaselineModel>(
                            baselines::make_super_resolver("bicubic")));

  // Single window covering the whole grid: stitching is a no-op, so the
  // session output equals the resolver applied to the frame.
  SessionConfig config = SessionConfig::from_dataset(
      "uniform", data::MtsrInstance::kUp4, dataset, 16, 16);
  const auto id = engine.open_session(config);
  auto layout = data::make_layout(data::MtsrInstance::kUp4, 16, 16);
  baselines::UniformInterpolator uniform;
  const std::int64_t t = dataset.test_range().begin;
  auto served = engine.push(id, dataset.frame(t));
  ASSERT_TRUE(served.has_value());  // S = 1: ready after one frame
  Tensor direct = uniform.super_resolve(dataset.frame(t), *layout);
  ASSERT_EQ(served->shape(), direct.shape());
  for (std::int64_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(served->flat(i), direct.flat(i),
                1e-3 * std::max(1.f, std::abs(direct.flat(i))));
  }

  // Stitched baseline serving (overlapping windows) stays finite and keeps
  // per-window batching semantics.
  SessionConfig stitched = SessionConfig::from_dataset(
      "bicubic", data::MtsrInstance::kUp4, dataset, 8, 4);
  const auto id2 = engine.open_session(stitched);
  auto pred = engine.push(id2, dataset.frame(t));
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->shape(), dataset.frame(t).shape());
  EXPECT_TRUE(pred->all_finite());
}

TEST(LoadGenerator, NamesMismatchedLayerAndShapes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mtsr_serving_ckpt.bin")
          .string();
  data::TrafficDataset dataset = small_dataset(417);
  core::MtsrPipeline a(small_pipeline_config(), dataset);
  a.save_generator(path);

  // Same parameter count, different width: the error must name the first
  // mismatched parameter and both shapes.
  core::PipelineConfig wider = small_pipeline_config();
  wider.zipnet.zipper_channels = 12;
  core::MtsrPipeline b(wider, dataset);
  try {
    b.load_generator(path);
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("load_generator"), std::string::npos) << message;
    EXPECT_NE(message.find("shape mismatch at parameter"), std::string::npos)
        << message;
    EXPECT_NE(message.find("model expects"), std::string::npos) << message;
    EXPECT_NE(message.find("checkpoint has"), std::string::npos) << message;
    EXPECT_NE(message.find("(12, "), std::string::npos) << message;
    EXPECT_NE(message.find("(6, "), std::string::npos) << message;
  }

  // Different module count: the count mismatch must report the first
  // diverging entry, not just the totals.
  core::PipelineConfig deeper = small_pipeline_config();
  deeper.zipnet.zipper_modules = 4;
  core::MtsrPipeline c(deeper, dataset);
  try {
    c.load_generator(path);
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("tensor count mismatch"), std::string::npos)
        << message;
    EXPECT_NE(message.find("divergence"), std::string::npos) << message;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtsr::serving
