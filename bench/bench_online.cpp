// bench_online — does continuous learning pay for itself, and what does it
// cost the serving path?
//
// Two questions, two phases:
//
//  1. Accuracy under drift. A generator trained offline on city A serves
//     two streams: "stationary" (city A's own test continuation) and
//     "drifted" (a different city, normalised with city A's stats — the
//     live feed moved away from the training distribution). Each stream is
//     served frozen (no trainer) and online (an online::Trainer fine-tunes
//     on the tapped frames and promotes holdout-gated checkpoints between
//     intervals, synchronously so the run is reproducible). Per-interval
//     NRMSE is aggregated per quarter of the stream, so the output shows
//     WHERE the online model catches up — the staleness-vs-accuracy story.
//
//  2. Serving latency cost. The same serving loop timed frozen vs with a
//     BACKGROUND trainer thread grinding at its default fully-isolated
//     budget (trainer.replicas = 1, every slice inline on the trainer
//     thread): p50/p99 push latency for both. On a
//     1-CPU host the trainer competes for the core, so this is the honest
//     worst case, not a marketing number.
//
// The JSON block at the end is the `online_learning` section recorded in
// BENCH_throughput.json.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/cli.hpp"
#include "src/common/parallel.hpp"
#include "src/common/stopwatch.hpp"
#include "src/common/topology.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/milan.hpp"
#include "src/metrics/metrics.hpp"
#include "src/online/trainer.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"

using namespace mtsr;

namespace {

struct ScenarioResult {
  std::string stream;          // "stationary" | "drifted"
  std::string mode;            // "frozen" | "online"
  double nrmse = 0;            // mean over all served intervals
  std::vector<double> quarters;  // mean NRMSE per quarter of the stream
  std::int64_t candidates = 0, promoted = 0, rejected = 0;
  double staleness_s = -1;
};

std::vector<Tensor> drifted_stream(std::int64_t side, std::int64_t count) {
  // A different city: new hotspot layout and count, harsher peaks — the
  // regime change the offline model never saw.
  data::MilanConfig city;
  city.rows = side;
  city.cols = side;
  city.num_hotspots = 14;
  city.seed = 1234;
  return data::MilanTrafficGenerator(city).generate(120, count);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_online",
                "Frozen vs online serving accuracy under stream drift, and "
                "the latency cost of the background trainer");
  cli.add_int("side", 24, "fine grid side length");
  cli.add_int("steps", 500, "offline pre-training steps (fast mode: /8)");
  cli.add_int("intervals", 48, "streamed intervals per scenario");
  cli.add_int("latency-frames", 60, "timed pushes per latency leg");
  if (!cli.parse(argc, argv)) return 0;
  const std::int64_t side = cli.get_int("side");
  const std::int64_t intervals = cli.get_int("intervals");

  bench::BenchData geometry;
  geometry.side = side;
  geometry.frames = 240;
  bench::print_banner("bench_online",
                      "continuous learning vs frozen serving", geometry);
  data::TrafficDataset dataset = bench::make_dataset(geometry);

  core::PipelineConfig config;
  config.instance = data::MtsrInstance::kUp4;
  config.window = std::min<std::int64_t>(side, 16);
  config.temporal_length = 3;
  config.zipnet.base_channels = 4;
  config.zipnet.zipper_modules = 4;
  config.zipnet.zipper_channels = 10;
  config.zipnet.final_channels = 12;
  config.discriminator.base_channels = 4;
  config.trainer.learning_rate = 2e-3f;
  config.pretrain_steps = bench::scaled(static_cast<int>(cli.get_int("steps")));
  config.gan_rounds = 0;
  core::MtsrPipeline pipeline(config, dataset);
  std::printf("offline training (%d steps)...\n", config.pretrain_steps);
  pipeline.train();

  // The two streams. Both are normalised by the serving session with city
  // A's statistics — exactly what a deployed gateway would do.
  std::vector<Tensor> stationary;
  for (std::int64_t t = dataset.test_range().begin;
       t < dataset.test_range().begin + intervals &&
       t < dataset.test_range().end;
       ++t) {
    stationary.push_back(dataset.frame(t));
  }
  const std::vector<Tensor> drifted = drifted_stream(side, intervals);

  const auto serve_scenario = [&](const std::vector<Tensor>& frames,
                                  const char* stream_name, bool online) {
    ScenarioResult result;
    result.stream = stream_name;
    result.mode = online ? "online" : "frozen";

    serving::Engine engine;
    engine.register_model("zipnet", std::make_shared<serving::ZipNetModel>(
                                        pipeline.generator()));
    std::unique_ptr<online::Trainer> trainer;
    if (online) {
      online::TrainerConfig oc = online::TrainerConfig::from_dataset(
          "zipnet", config.instance, dataset, config.window);
      oc.trainer.learning_rate = config.trainer.learning_rate;
      oc.steps_per_round = 8;
      oc.rounds_per_checkpoint = 2;
      oc.checkpoint_prefix =
          std::string("bench-online-") + stream_name;
      trainer = std::make_unique<online::Trainer>(engine, pipeline.generator(),
                                                  oc);
    }

    serving::SessionConfig session = serving::SessionConfig::from_dataset(
        "zipnet", config.instance, dataset, config.window, config.window / 2);
    const auto id = engine.open_session(session);

    std::vector<double> per_interval;
    for (const Tensor& frame : frames) {
      const auto out = engine.push(id, frame);
      if (out) per_interval.push_back(metrics::nrmse(*out, frame));
      // Synchronous fine-tune between intervals: reproducible, and the
      // promotion cadence maps 1:1 onto stream time.
      if (trainer) (void)trainer->run_rounds(1);
    }

    double sum = 0;
    for (const double v : per_interval) sum += v;
    result.nrmse = per_interval.empty()
                       ? 0
                       : sum / static_cast<double>(per_interval.size());
    const std::size_t quarter = std::max<std::size_t>(
        1, (per_interval.size() + 3) / 4);
    for (std::size_t begin = 0; begin < per_interval.size();
         begin += quarter) {
      const std::size_t end =
          std::min(per_interval.size(), begin + quarter);
      double q = 0;
      for (std::size_t i = begin; i < end; ++i) q += per_interval[i];
      result.quarters.push_back(q / static_cast<double>(end - begin));
    }
    if (trainer) {
      const auto stats = trainer->stats();
      result.candidates = stats.candidates;
      result.promoted = stats.promoted;
      result.rejected = stats.rejected;
      result.staleness_s = stats.staleness_seconds;
      for (const auto& path : trainer->retained_checkpoints()) {
        std::remove(path.c_str());
      }
    }
    engine.close_session(id);
    return result;
  };

  std::vector<ScenarioResult> results;
  for (const bool online : {false, true}) {
    results.push_back(serve_scenario(stationary, "stationary", online));
    results.push_back(serve_scenario(drifted, "drifted", online));
  }

  std::printf("\nstream      mode    NRMSE    quarters                 "
              "ckpts promoted\n");
  for (const auto& r : results) {
    std::string quarters;
    char buf[32];
    for (const double q : r.quarters) {
      std::snprintf(buf, sizeof(buf), "%.4f ", q);
      quarters += buf;
    }
    std::printf("%-11s %-7s %.4f   %-24s %lld/%lld\n", r.stream.c_str(),
                r.mode.c_str(), r.nrmse, quarters.c_str(),
                static_cast<long long>(r.promoted),
                static_cast<long long>(r.candidates));
  }

  // --- Phase 2: what the background trainer costs the serving path. ---------
  const std::int64_t latency_frames = cli.get_int("latency-frames");
  const auto timed_serving = [&](bool with_trainer) {
    serving::Engine engine;
    engine.register_model("zipnet", std::make_shared<serving::ZipNetModel>(
                                        pipeline.generator()));
    std::unique_ptr<online::Trainer> trainer;
    if (with_trainer) {
      online::TrainerConfig oc = online::TrainerConfig::from_dataset(
          "zipnet", config.instance, dataset, config.window);
      oc.trainer.learning_rate = config.trainer.learning_rate;
      oc.max_nrmse_regression = -1;  // train hard, never swap mid-timing
      oc.idle_wait_ms = 1.0;
      oc.checkpoint_prefix = "bench-online-latency";
      trainer = std::make_unique<online::Trainer>(engine, pipeline.generator(),
                                                  oc);
    }
    serving::SessionConfig session = serving::SessionConfig::from_dataset(
        "zipnet", config.instance, dataset, config.window, config.window / 2);
    const auto id = engine.open_session(session);
    // Warm up (fills the tap too), then start the trainer grinding.
    const std::int64_t t0 = dataset.test_range().begin;
    for (std::int64_t t = t0; t < t0 + 8; ++t) {
      (void)engine.push(id, dataset.frame(t));
    }
    if (trainer) trainer->start();
    std::vector<double> latencies;
    for (std::int64_t i = 0; i < latency_frames; ++i) {
      const Tensor& frame =
          dataset.frame(t0 + i % (dataset.test_range().end - t0));
      Stopwatch sw;
      (void)engine.push(id, frame);
      latencies.push_back(sw.millis());
    }
    if (trainer) {
      trainer->stop();
      for (const auto& path : trainer->retained_checkpoints()) {
        std::remove(path.c_str());
      }
    }
    engine.close_session(id);
    return latencies;
  };
  const std::vector<double> frozen_lat = timed_serving(false);
  const std::vector<double> online_lat = timed_serving(true);
  std::printf("\nserving latency, frozen:  p50 %.2f ms  p99 %.2f ms\n",
              percentile(frozen_lat, 0.50), percentile(frozen_lat, 0.99));
  std::printf("serving latency, trainer grinding (isolated budget): "
              "p50 %.2f ms  p99 %.2f ms\n",
              percentile(online_lat, 0.50), percentile(online_lat, 0.99));

  // The online_learning section for BENCH_throughput.json.
  const Topology& topo = Topology::instance();
  std::printf("\n\"online_learning\": {\n");
  std::printf("  \"host\": {\"cpus\": %d, \"numa_nodes\": %d},\n",
              topo.cpu_count(), topo.node_count());
  std::printf("  \"grid_side\": %lld, \"intervals\": %lld, "
              "\"offline_steps\": %d,\n",
              static_cast<long long>(side),
              static_cast<long long>(intervals), config.pretrain_steps);
  std::printf("  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::string quarters;
    char buf[32];
    for (std::size_t q = 0; q < r.quarters.size(); ++q) {
      std::snprintf(buf, sizeof(buf), "%s%.4f", q ? ", " : "",
                    r.quarters[q]);
      quarters += buf;
    }
    std::printf("    {\"stream\": \"%s\", \"mode\": \"%s\", \"nrmse\": "
                "%.4f, \"nrmse_quarters\": [%s], \"checkpoints\": %lld, "
                "\"promoted\": %lld, \"rejected\": %lld}%s\n",
                r.stream.c_str(), r.mode.c_str(), r.nrmse, quarters.c_str(),
                static_cast<long long>(r.candidates),
                static_cast<long long>(r.promoted),
                static_cast<long long>(r.rejected),
                i + 1 < results.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"serving_latency_ms\": {\"frozen\": {\"p50\": %.2f, "
              "\"p99\": %.2f}, \"online_background\": {\"p50\": %.2f, "
              "\"p99\": %.2f}}\n",
              percentile(frozen_lat, 0.50), percentile(frozen_lat, 0.99),
              percentile(online_lat, 0.50), percentile(online_lat, 0.99));
  std::printf("}\n");
  return 0;
}
