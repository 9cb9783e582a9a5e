// online-drift: a generator pre-trained offline on one city serves a
// drifted stream (another city, normalised with the first city's training
// statistics) in process, through Engine::push, with an online::Trainer at
// its default configuration attached.
//
//   Phase A (deterministic): serve one interval, then run_rounds(1), for a
//   fixed interval count. Runs twice per benchmark run, each on a fresh
//   set-up; the served NRMSE and the promotion counts must agree exactly.
//   Its push latencies are the workload's serve_p50_ms.
//   Phase B: the background trainer runs while pushes arrive open loop at
//   the frozen rate; a traced run attributes its push latencies.
//
// Threads: the serving thread (this one, the pool's calling slot), one pool
// worker, the scheduler's stage thread and the trainer thread.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "models.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/dataset.hpp"
#include "src/metrics/metrics.hpp"
#include "src/online/trainer.hpp"
#include "src/serving/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mtsr::Tensor;
namespace serving = mtsr::serving;

constexpr std::int64_t kSide = 24;
constexpr std::int64_t kWindow = 16;
constexpr std::int64_t kTrainFrames = 240;
constexpr int kPretrainSteps = 40;
constexpr std::int64_t kStreamFrames = 240;
constexpr int kPhaseAIntervals = 45;
constexpr double kMissMs = 20000;
constexpr int kSetups = 3;  ///< set-ups timed per run (median reported)
/// Fixed open-loop arrival jitter (the seed varies the cities and frames).
constexpr std::uint64_t kArrivalTrace = 7003;

struct Inputs {
  mtsr::data::TrafficDataset training;  ///< the offline city
  std::vector<Tensor> drifted;          ///< the served stream
};

Inputs make_inputs(std::uint64_t seed) {
  const std::int64_t t0 = static_cast<std::int64_t>((seed * 37) % 1008);
  Inputs in{mtsr::data::TrafficDataset(
                city_frames(kSide, 30, seed * 1000 + 5, t0, kTrainFrames), 10),
            city_frames(kSide, 14, seed * 1000 + 911, t0 + 120, kStreamFrames)};
  return in;
}

/// Set-up product: pre-trained generator, engine, session, trainer, warmed.
class OnlineRig {
 public:
  OnlineRig(const Inputs& inputs, const std::string& ckpt_dir,
            const std::string& ckpt_prefix)
      : inputs_(inputs) {
    mtsr::core::PipelineConfig config;
    config.instance = mtsr::data::MtsrInstance::kUp4;
    config.window = kWindow;
    config.temporal_length = 3;
    config.zipnet.base_channels = 4;
    config.zipnet.zipper_modules = 4;
    config.zipnet.zipper_channels = 10;
    config.zipnet.final_channels = 12;
    config.discriminator.base_channels = 4;
    config.trainer.learning_rate = 2e-3f;
    config.pretrain_steps = kPretrainSteps;
    config.gan_rounds = 0;
    pipeline_ = std::make_unique<mtsr::core::MtsrPipeline>(config, inputs_.training);
    pipeline_->train_pretrain_only();
    flop_per_window_ = perfbench::flop_per_window(pipeline_->generator(), kWindow / 4);

    engine_ = std::make_unique<serving::Engine>();
    engine_->register_model(
        "zipnet", std::make_shared<TracedModel>(
                      std::make_shared<serving::ZipNetModel>(pipeline_->generator())));
    mtsr::online::TrainerConfig tc = mtsr::online::TrainerConfig::from_dataset(
        "zipnet", config.instance, inputs_.training, kWindow);
    tc.checkpoint_dir = ckpt_dir;
    tc.checkpoint_prefix = ckpt_prefix;
    trainer_ = std::make_unique<mtsr::online::Trainer>(*engine_, pipeline_->generator(), tc);
    session_ = engine_->open_session(serving::SessionConfig::from_dataset(
        "zipnet", config.instance, inputs_.training, kWindow, kWindow / 2));
    // Warm-up: the S-1 frames before the first inference.
    for (int i = 0; i < 2; ++i) (void)push(next_frame());
  }

  ~OnlineRig() {
    trainer_->stop();
    for (const auto& path : trainer_->retained_checkpoints()) std::remove(path.c_str());
    trainer_.reset();
    engine_.reset();
  }

  OnlineRig(const OnlineRig&) = delete;
  OnlineRig& operator=(const OnlineRig&) = delete;

  std::optional<Tensor> push(const Tensor& frame, std::int64_t request = 0) {
    trace::Scope span("engine.push", request);
    return engine_->push(session_, frame);
  }

  const Tensor& next_frame() {
    return inputs_.drifted[static_cast<std::size_t>(cursor_++ % kStreamFrames)];
  }

  mtsr::online::Trainer& trainer() { return *trainer_; }
  serving::Engine& engine() { return *engine_; }
  [[nodiscard]] double flop_per_window() const { return flop_per_window_; }

 private:
  const Inputs& inputs_;
  std::unique_ptr<mtsr::core::MtsrPipeline> pipeline_;
  std::unique_ptr<serving::Engine> engine_;
  std::unique_ptr<mtsr::online::Trainer> trainer_;
  serving::Engine::SessionId session_ = 0;
  std::int64_t cursor_ = 0;
  double flop_per_window_ = 0;
};

struct PhaseAResult {
  double nrmse = 0;
  std::int64_t served = 0, attempted = 0;
  std::int64_t steps = 0, promoted = 0, rejected = 0, candidates = 0;
  double seconds = 0;
  std::vector<double> push_ms, round_ms, step_ms, ckpt_round_ms, promote_ms;
};

PhaseAResult phase_a(OnlineRig& rig) {
  PhaseAResult r;
  double nrmse_sum = 0;
  const auto before = rig.trainer().stats();
  const auto t0 = Clock::now();
  for (int i = 0; i < kPhaseAIntervals; ++i) {
    const Tensor& frame = rig.next_frame();
    ++r.attempted;
    const auto p0 = Clock::now();
    const auto out = rig.push(frame);
    if (out) {
      r.push_ms.push_back(seconds_between(p0, Clock::now()) * 1e3);
      ++r.served;
      nrmse_sum += mtsr::metrics::nrmse(*out, frame);
    }
    const auto s0 = rig.trainer().stats();
    const auto r0 = Clock::now();
    {
      trace::Scope span("trainer.round");
      (void)rig.trainer().run_rounds(1);
    }
    const double ms = seconds_between(r0, Clock::now()) * 1e3;
    const auto s1 = rig.trainer().stats();
    const std::int64_t steps = s1.steps - s0.steps;
    if (steps == 0) continue;  // tap still too short to train
    r.round_ms.push_back(ms);
    if (s1.candidates > s0.candidates) {
      r.ckpt_round_ms.push_back(ms);
      if (s1.promoted > s0.promoted) r.promote_ms.push_back(ms);
    } else {
      r.step_ms.push_back(ms / static_cast<double>(steps));
    }
  }
  r.seconds = seconds_between(t0, Clock::now());
  const auto after = rig.trainer().stats();
  r.steps = after.steps - before.steps;
  r.promoted = after.promoted - before.promoted;
  r.rejected = after.rejected - before.rejected;
  r.candidates = after.candidates - before.candidates;
  r.nrmse = r.served > 0 ? nrmse_sum / static_cast<double>(r.served) : 0;
  return r;
}

struct PhaseBResult {
  PhaseCounts counts;
  LatencySet latency;
  std::vector<double> lateness_ms;
  std::int64_t bg_steps = 0;
  double seconds = 0;
};

/// `pushes` open-loop pushes at `rate` (periodic_schedule) with the
/// background trainer on.
PhaseBResult phase_b(OnlineRig& rig, double rate, std::int64_t pushes, std::uint64_t seed) {
  PhaseBResult r;
  const std::vector<double> at = periodic_schedule(rate, pushes, seed);
  const double seconds = at.empty() ? 0.0 : at.back();
  const std::int64_t steps0 = rig.trainer().stats().steps;
  // The trainer thread inherits the pin of the thread that starts it.
  pin_current_thread(kWriterCpu);
  rig.trainer().start();
  pin_current_thread(kServingCpu);
  const std::int64_t start_ns = trace::now_ns();
  const auto start = Clock::now();
  std::int64_t request = 0;
  for (const double t : at) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t)));
    const std::int64_t due_ns = start_ns + static_cast<std::int64_t>(t * 1e9);
    const std::int64_t sent_ns = trace::now_ns();
    r.lateness_ms.push_back(static_cast<double>(sent_ns - due_ns) / 1e6);
    ++r.counts.attempted;
    ++request;
    std::optional<Tensor> out;
    try {
      out = rig.push(rig.next_frame(), request);
    } catch (const std::exception&) {
      ++r.counts.errored;
      r.latency.add_miss();
      continue;
    }
    const std::int64_t done_ns = trace::now_ns();
    if (out) {
      ++r.counts.served;
      r.latency.add(static_cast<double>(done_ns - due_ns) / 1e6);
      trace::record("serve.push", due_ns, done_ns, request);
    } else {
      ++r.counts.warmup;
      r.latency.add_miss();
    }
  }
  r.seconds = seconds;
  rig.trainer().stop();
  const std::string error = rig.trainer().last_error();
  if (!error.empty()) throw std::runtime_error("background trainer failed: " + error);
  r.bg_steps = rig.trainer().stats().steps - steps0;
  std::printf("phase B: %lld pushes in %.3f s, p50 %.3f ms, p99 %.3f ms, %lld trainer steps\n",
              static_cast<long long>(r.counts.attempted), seconds,
              r.latency.quantile(0.5, kMissMs), r.latency.quantile(0.99, kMissMs),
              static_cast<long long>(r.bg_steps));
  return r;
}

/// Phase A's determinism record: the served NRMSE with all its digits and
/// the promotion counts.
std::string phase_a_record(const PhaseAResult& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g %lld %lld", r.nrmse,
                static_cast<long long>(r.promoted), static_cast<long long>(r.rejected));
  return buf;
}

}  // namespace

void run_online_workload(const Args& args, Report& report, std::string& spans_csv) {
  if (!(args.rate > 0)) throw std::runtime_error("--rate (phase-B req/s) is required");
  const Inputs inputs = make_inputs(args.seed);
  make_dirs(args.out_dir);
  pin_current_thread(kServingCpu);  // this thread serves every push
  const std::string prefix = "online-drift-ckpt-" + std::to_string(args.seed);

  // Set-up is timed several times. The first instance runs phase A and
  // phase B; the second repeats phase A, which must reproduce the first
  // exactly; the rest are built only for the set-up median.
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    auto made = std::make_unique<OnlineRig>(inputs, args.out_dir, prefix);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    std::printf("set-up %zu: %.3f s\n", setup_s.size(), setup_s.back());
    return made;
  };
  std::unique_ptr<OnlineRig> rig = timed_setup();
  if (args.trace) trace::set_enabled(true);
  const PhaseAResult a = phase_a(*rig);
  if (args.trace) trace::set_enabled(false);
  if (a.served == 0) report.fail_gate("phase A served no frames");

  // Runs of one seed in one checkout must agree too.
  const std::string record_path = args.out_dir + "/" + prefix + "-phaseA" +
                                  std::to_string(kPhaseAIntervals) + ".txt";
  {
    std::ifstream in(record_path);
    std::string previous;
    if (in && std::getline(in, previous)) {
      if (previous != phase_a_record(a)) {
        report.fail_gate("phase A differs from an earlier run of this seed: " + previous +
                         " vs " + phase_a_record(a));
      }
    } else {
      write_file(record_path, phase_a_record(a) + "\n");
    }
  }
  report.detail("phase_A", "{\"intervals\": " + std::to_string(kPhaseAIntervals) +
                               ", \"seconds\": " + json_number(a.seconds) +
                               ", \"steps\": " + std::to_string(a.steps) +
                               ", \"candidates\": " + std::to_string(a.candidates) +
                               ", \"promoted\": " + std::to_string(a.promoted) +
                               ", \"rejected\": " + std::to_string(a.rejected) +
                               ", \"nrmse\": " + json_number(a.nrmse) +
                               ", \"push_ms\": " + json_list(a.push_ms) +
                               ", \"round_ms\": " + json_list(a.round_ms) + "}");
  const std::int64_t dropped_before = rig->trainer().stats().tap_dropped;

  if (!args.trace) {
    // Phase B fills the measured time left after the two phase-A runs.
    const auto pushes = std::max<std::int64_t>(
        std::llround(args.rate * 2), std::llround(args.rate * (args.seconds - 2 * a.seconds)));
    const PhaseBResult b = phase_b(*rig, args.rate, pushes, kArrivalTrace);
    report.phase("B", b.counts);
    const double peak_mb = peak_rss_mb();
    rig.reset();

    rig = timed_setup();
    const PhaseAResult again = phase_a(*rig);
    rig.reset();
    if (phase_a_record(again) != phase_a_record(a)) {
      report.fail_gate("phase A differs between set-ups of one seed: " +
                       phase_a_record(a) + " vs " + phase_a_record(again));
    }
    PhaseCounts counts_a;
    counts_a.attempted = a.attempted + again.attempted;
    counts_a.served = a.served + again.served;
    counts_a.warmup = counts_a.attempted - counts_a.served;
    report.phase("A", counts_a);
    for (int i = 2; i < kSetups; ++i) (void)timed_setup();

    report.metric("setup_s", median(setup_s), "s");
    std::vector<double> push_ms = a.push_ms;
    push_ms.insert(push_ms.end(), again.push_ms.begin(), again.push_ms.end());
    report.metric("serve_p50_ms", median(push_ms), "ms");
    report.metric("serve_frames_per_s",
                  static_cast<double>(a.served + again.served) / (a.seconds + again.seconds),
                  "1/s");
    report.metric("peak_rss_mb", peak_mb, "MB");
    report.detail("setup_s_samples", json_list(setup_s));
    report.detail("phase_B",
                  "{\"offered_req_per_s\": " + json_number(args.rate) +
                      ", \"seconds\": " + json_number(b.seconds) +
                      ", \"samples\": " + std::to_string(b.latency.count()) +
                      ", \"p50_ms\": " + json_number(b.latency.quantile(0.5, kMissMs)) +
                      ", \"p99_ms\": " + json_number(b.latency.quantile(0.99, kMissMs)) +
                      ", \"p99_samples_beyond\": " + std::to_string(b.latency.beyond(0.99)) +
                      ", \"bg_steps\": " + std::to_string(b.bg_steps) +
                      ", \"late_p99_ms\": " + json_number(quantile_of(b.lateness_ms, 0.99)) +
                      ", \"steps_per_s\": " +
                      json_number(ratio(static_cast<double>(a.steps), a.seconds)) + "}");
    return;
  }

  // ---- Traced run ----------------------------------------------------------
  zero_per_layer(report);
  report.phase("A", {a.attempted, a.served, a.attempted - a.served, 0, 0, 0});
  const auto spans_a = trace::collect();
  const auto half = std::llround(0.5 * args.rate * std::max(2.0, args.seconds - a.seconds));
  const PhaseBResult base = phase_b(*rig, args.rate, half, kArrivalTrace);
  report.phase("B-untraced", base.counts);
  const auto s0 = rig->engine().stats();
  trace::set_enabled(true);
  const PhaseBResult b = phase_b(*rig, args.rate, half, kArrivalTrace);
  trace::set_enabled(false);
  const auto s1 = rig->engine().stats();
  const auto spans_b = trace::collect();
  report.phase("B-traced", b.counts);
  trace::append_csv(spans_csv, "A", spans_a);
  trace::append_csv(spans_csv, "B", spans_b);

  report_engine_layers(report, spans_b, "engine.push", s0, s1, rig->flop_per_window());

  report.metric("trainer.round_ms", median(a.round_ms), "ms");
  report.metric("trainer.step_ms", median(a.step_ms), "ms");
  report.metric("trainer.ckpt_round_ms", median(a.ckpt_round_ms), "ms");
  report.metric("trainer.steps_per_s", ratio(static_cast<double>(a.steps), a.seconds), "1/s");
  report.metric("trainer.promote_ms", median(a.promote_ms), "ms");
  std::vector<double> loads = trace::durations_ms(spans_a, "ckpt.load");
  const auto loads_b = trace::durations_ms(spans_b, "ckpt.load");
  loads.insert(loads.end(), loads_b.begin(), loads_b.end());
  report.metric("ckpt.load_ms", median(loads), "ms");
  report.metric("trainer.promoted", static_cast<double>(a.promoted), "count");
  report.metric("trainer.rejected", static_cast<double>(a.rejected), "count");
  report.metric("tap.dropped",
                static_cast<double>(rig->trainer().stats().tap_dropped - dropped_before), "count");
  report.metric("online.bg_steps", static_cast<double>(b.bg_steps), "count");
  report.metric("online.nrmse", a.nrmse, "ratio");
  report.metric("gen.late_p99_ms", quantile_of(base.lateness_ms, 0.99), "ms");

  const double p50_untraced = base.latency.quantile(0.5, kMissMs);
  const double p50_traced = b.latency.quantile(0.5, kMissMs);
  const Attribution at = attribute(spans_b, "serve.push",
                                   {{"self.engine_ms", "engine.push", false},
                                    {"self.model_ms", "model.predict", false}});
  for (const auto& [metric, ms] : at.layer_ms) report.metric(metric, ms, "ms");
  report.metric("trace.e2e_p50_ms", p50_traced, "ms");
  report.metric("trace.residual_ms", p50_traced - (at.band_latency_ms - at.residual_ms), "ms");
  report.metric("trace.overhead_ms", p50_traced - p50_untraced, "ms");
  report.detail("attribution", "{\"band_requests\": " + std::to_string(at.band_requests) +
                                   ", \"band_latency_ms\": " + json_number(at.band_latency_ms) +
                                   ", \"band_residual_ms\": " + json_number(at.residual_ms) +
                                   ", \"untraced_p50_ms\": " + json_number(p50_untraced) + "}");
}

}  // namespace perfbench
