// wire-fanout-int8: one 100x100 city fanned out to 16 sessions tagged with
// one stream, served by "zipnet-int8" through net::Server over one loopback
// connection, with the benchmark driving the server's event loop. The dedup
// memo serves 15 of each interval's 16 stitched inferences.
//
// The run is a closed loop of dispatch rounds: a round sends one interval to
// all 16 sessions, the server loop drains it as one dispatch round once all
// of it is parsed, and the next round starts when every answer is back.
// Each push is timed from its send to its decoded response; throughput is
// 16 frames per median round. The work of a round and its dedup hits are
// the same in every run, and the host never idles between rounds. An open
// loop at 24 req/s, which left the server idle between intervals, gave p50s
// whose interquartile range over five seeds was 22% of the median on a
// shared 4-vCPU VM, against 5-14% for these rounds.
//
// Threads: the server loop (the pool's calling slot), one pool worker, the
// scheduler's stage thread, and the client's writer (this thread) and
// reader.
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "models.hpp"
#include "src/data/dataset.hpp"
#include "src/data/probes.hpp"
#include "src/net/client.hpp"
#include "src/net/protocol.hpp"
#include "src/net/server.hpp"
#include "src/serving/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mtsr::Tensor;
namespace net = mtsr::net;
namespace serving = mtsr::serving;

constexpr std::uint64_t kWeightSeed = 29;
constexpr std::int64_t kWindow = 20;
constexpr std::int64_t kStride = 10;
constexpr std::int64_t kFramesPerCity = 48;
constexpr int kWarmupRounds = 6;  ///< S-1 warm-up rounds + 4 inferences
constexpr double kResponseTimeoutS = 20;
constexpr int kSampleEvery = 16;  ///< intervals checked against control
constexpr int kSetups = 5;  ///< set-ups timed per run (median reported)

/// Geometry of a wire workload: `cities` groups of `group_size` sessions,
/// each group fed one city's frames.
struct WireSpec {
  std::string model;     ///< registry name
  std::int64_t side = 0;
  int cities = 0;        ///< distinct cities (one per group)
  int group_size = 0;    ///< sessions fed together (fan-out consumers)
  std::string stream;    ///< dedup tag; empty = untagged
};

WireSpec spec_for(const std::string& workload) {
  if (workload != "wire-fanout-int8") {
    throw std::runtime_error("unknown wire workload " + workload);
  }
  return {"zipnet-int8", 100, 1, 16, "fanout-city"};
}

/// Seeded inputs, generated once per run (not part of set-up time).
struct Inputs {
  std::vector<std::vector<Tensor>> city;  ///< [city][frame]
  mtsr::data::NormStats norm;
  bool log_transform = true;
  std::vector<Tensor> calibration;  ///< int8 quantisation batches
};

Inputs make_inputs(const WireSpec& spec, std::uint64_t seed) {
  Inputs in;
  const std::int64_t t0 = static_cast<std::int64_t>((seed * 37) % 1008);
  for (int c = 0; c < spec.cities; ++c) {
    in.city.push_back(city_frames(spec.side, 60, seed * 1000 + 17 * c, t0, kFramesPerCity));
  }
  const mtsr::data::TrafficDataset reference(in.city[0], 10);
  in.norm = reference.stats();
  in.log_transform = reference.log_transform();
  const auto layout = mtsr::data::make_layout(mtsr::data::MtsrInstance::kUp4,
                                              kWindow, kWindow);
  in.calibration = serving::calibration_batches(reference, *layout, 3, kWindow, 4);
  return in;
}

/// One push in flight or answered.
struct PushRec {
  int group = 0, session = 0;
  std::int64_t send = 0;  ///< index of the group send it belongs to
  std::int64_t due_ns = 0, sent_ns = 0, done_ns = 0;
  net::Status status = net::Status::kOk;
  bool answered = false;
};

/// One group send: the pushes of one interval to every session of a group.
struct SendRec {
  int group = 0;
  std::int64_t ordinal = 0;  ///< the group's frame ordinal
  int pending = 0;
  bool sampled = false;
  Tensor first;  ///< first frame answered, for the fan-out equality check
  bool has_first = false;
  std::int64_t sent_ns = 0, done_ns = 0;  ///< send start, last answer
};

struct Sample {
  int group = 0, session = 0;
  std::int64_t ordinal = 0;
  Tensor frame;
};

struct PhaseResult {
  PhaseCounts counts;
  LatencySet latency;
  /// Send-to-last-answer time of every round.
  std::vector<double> round_ms;
  double seconds = 0;
  std::int64_t start_ns = 0, end_ns = 0;
};

/// Set-up product: model, engine, server (loop driven here), client and the
/// open sessions, warmed up.
class WireRig {
 public:
  WireRig(const WireSpec& spec, const Inputs& inputs) : spec_(spec), inputs_(inputs) {
    auto generator = seeded_generator(serving_zipnet_config(), kWeightSeed);
    flop_per_window_ = perfbench::flop_per_window(*generator, kWindow / 4);
    inner_ = serving::quantize_generator(*generator, inputs_.calibration, spec_.model);
    engine_ = std::make_unique<serving::Engine>();
    engine_->register_model(spec_.model, std::make_shared<TracedModel>(inner_));
    net::ServerConfig config;
    server_ = std::make_unique<net::Server>(*engine_, config);
    server_->set_auto_drain(false);
    loop_ = std::thread([this] { loop(); });
    try {
      connect_and_warm();
    } catch (...) {
      shutdown();
      throw;
    }
  }

  ~WireRig() { shutdown(); }

  WireRig(const WireRig&) = delete;
  WireRig& operator=(const WireRig&) = delete;

  /// Closed loop of dispatch rounds. Each round sends every group's next
  /// interval, which the server loop holds until all of the round's pushes
  /// are parsed and then drains as one dispatch round; the next round starts
  /// when every answer is back. Runs for `seconds` (when > 0) or `rounds`
  /// rounds. With `sample`, every kSampleEvery-th interval of a group keeps
  /// its first frame for the correctness gate.
  PhaseResult closed_loop(double seconds, int rounds, bool sample) {
    begin_phase();
    PhaseResult r;
    r.start_ns = trace::now_ns();
    const std::int64_t end_ns = r.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    for (int n = 0; seconds > 0 ? trace::now_ns() < end_ns : n < rounds; ++n) {
      const std::int64_t sent_ns = trace::now_ns();
      for (int g = 0; g < spec_.cities; ++g) send_group(g, sent_ns, sample);
      if (!wait_answered()) break;  // finish_phase reports the timeout
      std::lock_guard<std::mutex> lock(mu_);
      std::int64_t done_ns = sent_ns;
      for (std::size_t i = sends_.size() - static_cast<std::size_t>(spec_.cities);
           i < sends_.size(); ++i) {
        done_ns = std::max(done_ns, sends_[i].done_ns);
      }
      r.round_ms.push_back(static_cast<double>(done_ns - sent_ns) / 1e6);
    }
    r.end_ns = trace::now_ns();
    finish_phase(r);
    return r;
  }

  /// One round of every group whose frames are all kept. Returns them in
  /// session order, with each group's ordinal.
  std::vector<Sample> gate_round(PhaseCounts& counts) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      collect_all_ = true;
    }
    counts = closed_loop(0, 1, /*sample=*/false).counts;
    std::vector<Sample> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      collect_all_ = false;
      out.swap(samples_);
    }
    std::sort(out.begin(), out.end(),
              [](const Sample& a, const Sample& b) { return a.session < b.session; });
    return out;
  }

  /// Samples kept by the last sampled phases (moved out).
  std::vector<Sample> take_samples() {
    std::vector<Sample> out;
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(samples_);
    return out;
  }

  /// Runs `fn` on the server loop thread (where engine stats are safe) and
  /// waits for it.
  void on_loop(std::function<void()> fn) {
    std::packaged_task<void()> task(std::move(fn));
    auto done = task.get_future();
    {
      std::lock_guard<std::mutex> lock(task_mu_);
      tasks_.push_back(std::move(task));
    }
    done.get();
  }

  serving::Engine::Stats stats() {
    serving::Engine::Stats s;
    on_loop([&] { s = server_->stats(); });
    return s;
  }

  [[nodiscard]] std::int64_t fanout_mismatches() {
    std::lock_guard<std::mutex> lock(mu_);
    return fanout_mismatch_;
  }
  [[nodiscard]] std::int64_t unexpected_responses() {
    std::lock_guard<std::mutex> lock(mu_);
    return unexpected_;
  }
  [[nodiscard]] double flop_per_window() const { return flop_per_window_; }
  [[nodiscard]] const std::shared_ptr<serving::Model>& inner() const { return inner_; }

  net::OpenRequest open_request() const {
    net::OpenRequest req;
    req.model = spec_.model;
    req.stream = spec_.stream;
    req.instance = static_cast<std::uint8_t>(mtsr::data::MtsrInstance::kUp4);
    req.log_transform = inputs_.log_transform;
    req.rows = spec_.side;
    req.cols = spec_.side;
    req.window = kWindow;
    req.stitch_stride = kStride;
    req.mean = inputs_.norm.mean;
    req.stddev = inputs_.norm.stddev;
    return req;
  }

 private:
  void connect_and_warm() {
    client_ = std::make_unique<net::Client>("127.0.0.1", server_->port());
    const int sessions = spec_.cities * spec_.group_size;
    for (int i = 0; i < sessions; ++i) {
      const auto open = client_->open(open_request());
      if (open.status != net::Status::kOk) {
        throw std::runtime_error("OPEN failed: " + open.error);
      }
      session_ids_.push_back(open.session);
      session_index_[open.session] = i;
    }
    outstanding_.resize(static_cast<std::size_t>(sessions));
    next_ordinal_.assign(static_cast<std::size_t>(spec_.cities), 0);
    reader_ = std::thread([this] { read_loop(); });

    const PhaseResult warm = closed_loop(0, kWarmupRounds, /*sample=*/false);
    if (warm.counts.failed() > 0) throw std::runtime_error("warm-up pushes failed");
  }

  void shutdown() {
    reader_stop_.store(true);
    if (reader_.joinable()) reader_.join();
    client_.reset();  // the server closes this connection's sessions
    loop_stop_.store(true);
    if (loop_.joinable()) loop_.join();
    server_.reset();
    engine_.reset();
  }

  /// The server loop: polls, and drains once a whole round is parsed.
  void loop() {
    pin_current_thread(kServingCpu);
    const std::int64_t round_pushes = spec_.cities * spec_.group_size;
    while (!loop_stop_.load()) {
      std::deque<std::packaged_task<void()>> tasks;
      {
        std::lock_guard<std::mutex> lock(task_mu_);
        tasks.swap(tasks_);
      }
      for (auto& t : tasks) t();
      {
        trace::Scope span("net.poll");
        server_->poll_once(2);
      }
      if (server_->front_door_stats().queue_depth >= round_pushes) {
        trace::Scope span("net.drain");
        server_->drain();
      }
    }
  }

  void begin_phase() {
    std::lock_guard<std::mutex> lock(mu_);
    pushes_.clear();
    sends_.clear();
    answered_ = 0;
  }

  void send_group(int g, std::int64_t due_ns, bool sample) {
    const std::int64_t ordinal = next_ordinal_[static_cast<std::size_t>(g)]++;
    const Tensor& frame =
        inputs_.city[static_cast<std::size_t>(g)]
                    [static_cast<std::size_t>(ordinal % kFramesPerCity)];
    const std::int64_t sent_ns = trace::now_ns();
    std::size_t first = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      SendRec send;
      send.group = g;
      send.ordinal = ordinal;
      send.pending = spec_.group_size;
      send.sampled = sample && ordinal % kSampleEvery == 0;
      send.sent_ns = sent_ns;
      sends_.push_back(std::move(send));
      first = pushes_.size();
      for (int k = 0; k < spec_.group_size; ++k) {
        PushRec p;
        p.group = g;
        p.session = g * spec_.group_size + k;
        p.send = static_cast<std::int64_t>(sends_.size()) - 1;
        p.due_ns = due_ns;
        p.sent_ns = sent_ns;
        outstanding_[static_cast<std::size_t>(p.session)].push_back(pushes_.size());
        pushes_.push_back(p);
      }
    }
    for (int k = 0; k < spec_.group_size; ++k) {
      const int session = g * spec_.group_size + k;
      trace::Scope span("client.send", static_cast<std::int64_t>(first) + k + 1);
      client_->send_push(session_ids_[static_cast<std::size_t>(session)], frame);
    }
  }

  void read_loop() {
    pin_current_thread(kReaderCpu);
    while (!reader_stop_.load()) {
      std::optional<net::PushResponse> resp;
      try {
        resp = client_->poll_push(20);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        read_error_ = e.what();
        cv_.notify_all();
        return;
      }
      if (resp) on_response(std::move(*resp));
    }
  }

  void on_response(net::PushResponse&& resp) {
    const std::int64_t now = trace::now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    const auto idx = session_index_.find(resp.session);
    if (idx == session_index_.end() ||
        outstanding_[static_cast<std::size_t>(idx->second)].empty()) {
      ++unexpected_;
      return;
    }
    auto& queue = outstanding_[static_cast<std::size_t>(idx->second)];
    PushRec& p = pushes_[queue.front()];
    const std::int64_t push_id = static_cast<std::int64_t>(queue.front()) + 1;
    queue.pop_front();
    p.answered = true;
    p.done_ns = now;
    p.status = resp.status;
    ++answered_;
    SendRec& send = sends_[static_cast<std::size_t>(p.send)];
    if (resp.status == net::Status::kOk) {
      trace::record("client.push", p.due_ns, now, push_id);
      if (spec_.group_size > 1) {
        if (!send.has_first) {
          send.first = resp.frame;
          send.has_first = true;
        } else if (!bitwise_equal(send.first, resp.frame)) {
          ++fanout_mismatch_;
        }
      }
      const bool first_of_send = send.pending == spec_.group_size;
      if ((send.sampled && first_of_send) || collect_all_) {
        samples_.push_back({p.group, p.session, send.ordinal, std::move(resp.frame)});
      }
    }
    if (--send.pending == 0) {
      send.done_ns = now;
      send.first = Tensor();
    }
    cv_.notify_all();
  }

  /// Waits up to kResponseTimeoutS for an answer to every push sent so far;
  /// false on a timeout or a read error.
  bool wait_answered() {
    std::unique_lock<std::mutex> lock(mu_);
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(kResponseTimeoutS));
    return cv_.wait_until(lock, deadline, [&] {
      return answered_ == static_cast<std::int64_t>(pushes_.size()) || !read_error_.empty();
    }) && read_error_.empty();
  }

  /// Waits for every push of the phase, then fills counts and latencies.
  void finish_phase(PhaseResult& r) {
    (void)wait_answered();
    std::lock_guard<std::mutex> lock(mu_);
    if (!read_error_.empty()) throw std::runtime_error("client: " + read_error_);
    r.seconds = static_cast<double>(r.end_ns - r.start_ns) / 1e9;
    for (const PushRec& p : pushes_) {
      ++r.counts.attempted;
      if (!p.answered) {
        ++r.counts.timed_out;
        r.latency.add_miss();
        continue;
      }
      switch (p.status) {
        case net::Status::kOk:
          ++r.counts.served;
          r.latency.add(static_cast<double>(p.done_ns - p.due_ns) / 1e6);
          break;
        case net::Status::kWarmup:
          ++r.counts.warmup;
          r.latency.add_miss();
          break;
        case net::Status::kRejected:
          ++r.counts.rejected;
          r.latency.add_miss();
          break;
        case net::Status::kError:
          ++r.counts.errored;
          r.latency.add_miss();
          break;
      }
    }
    if (r.counts.timed_out > 0) {
      // Late answers would be matched to the next phase's pushes.
      throw std::runtime_error("pushes timed out; the run cannot continue");
    }
  }

  const WireSpec& spec_;
  const Inputs& inputs_;
  double flop_per_window_ = 0;
  std::shared_ptr<serving::Model> inner_;
  std::unique_ptr<serving::Engine> engine_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<net::Client> client_;
  std::vector<std::int64_t> session_ids_;
  std::unordered_map<std::int64_t, int> session_index_;
  std::vector<std::int64_t> next_ordinal_;  ///< writer thread only

  std::mutex task_mu_;
  std::deque<std::packaged_task<void()>> tasks_;
  std::atomic<bool> loop_stop_{false};

  std::mutex mu_;  ///< guards everything below
  std::condition_variable cv_;
  std::vector<PushRec> pushes_;
  std::vector<SendRec> sends_;
  std::vector<std::deque<std::size_t>> outstanding_;
  std::vector<Sample> samples_;
  std::int64_t answered_ = 0;
  std::int64_t fanout_mismatch_ = 0;
  std::int64_t unexpected_ = 0;
  bool collect_all_ = false;
  std::string read_error_;

  std::atomic<bool> reader_stop_{false};
  // Threads last: they use the members above.
  std::thread loop_;
  std::thread reader_;
};

/// Replays samples through a control in-process engine: for each sample, a
/// fresh session of the same geometry is fed the frames of ordinals
/// k-2, k-1 and k. Returns the control frames in sample order.
std::vector<Tensor> control_single(const WireSpec& spec, const Inputs& inputs,
                                   const std::shared_ptr<serving::Model>& model,
                                   const net::OpenRequest& open,
                                   const std::vector<Sample>& samples) {
  serving::Engine engine;
  engine.register_model(spec.model, model);
  serving::SessionConfig cfg;
  cfg.model = open.model;
  cfg.stream = open.stream;
  cfg.instance = mtsr::data::MtsrInstance::kUp4;
  cfg.rows = open.rows;
  cfg.cols = open.cols;
  cfg.window = open.window;
  cfg.stitch_stride = open.stitch_stride;
  cfg.stats = {open.mean, open.stddev};
  cfg.log_transform = open.log_transform;
  std::vector<Tensor> out;
  for (const Sample& s : samples) {
    const auto id = engine.open_session(cfg);
    std::optional<Tensor> frame;
    for (std::int64_t k = s.ordinal - 2; k <= s.ordinal; ++k) {
      const auto& city = inputs.city[static_cast<std::size_t>(s.group)];
      frame = engine.push(id, city[static_cast<std::size_t>(
                                  ((k % kFramesPerCity) + kFramesPerCity) % kFramesPerCity)]);
    }
    engine.close_session(id);
    out.push_back(frame ? std::move(*frame) : Tensor());
  }
  return out;
}

/// Control for the gate round: every session opened in wire order, fed its
/// last two frames and the gate frame through push_all, so the round fuses
/// exactly as the server's did.
std::vector<Tensor> control_round(const WireSpec& spec, const Inputs& inputs,
                                  const std::shared_ptr<serving::Model>& model,
                                  const net::OpenRequest& open,
                                  const std::vector<Sample>& gate) {
  serving::Engine engine;
  engine.register_model(spec.model, model);
  serving::SessionConfig cfg;
  cfg.model = open.model;
  cfg.stream = open.stream;
  cfg.instance = mtsr::data::MtsrInstance::kUp4;
  cfg.rows = open.rows;
  cfg.cols = open.cols;
  cfg.window = open.window;
  cfg.stitch_stride = open.stitch_stride;
  cfg.stats = {open.mean, open.stddev};
  cfg.log_transform = open.log_transform;
  std::vector<serving::Engine::SessionId> ids;
  for (std::size_t i = 0; i < gate.size(); ++i) ids.push_back(engine.open_session(cfg));
  std::vector<std::optional<Tensor>> last;
  for (std::int64_t back = 2; back >= 0; --back) {
    std::vector<Tensor> frames;
    for (const Sample& s : gate) {
      const std::int64_t k = s.ordinal - back;
      frames.push_back(inputs.city[static_cast<std::size_t>(s.group)][static_cast<std::size_t>(
          ((k % kFramesPerCity) + kFramesPerCity) % kFramesPerCity)]);
    }
    last = engine.push_all(ids, frames);
  }
  std::vector<Tensor> out;
  for (auto& f : last) out.push_back(f ? std::move(*f) : Tensor());
  return out;
}

/// Median encode / decode cost of one push round trip on `frame`, in us.
std::pair<double, double> codec_us(const Tensor& frame) {
  constexpr int kReps = 200;
  std::vector<double> enc, dec;
  for (int i = 0; i < kReps; ++i) {
    net::PushRequest req;
    req.session = 1;
    req.frame = frame;
    net::PushResponse resp;
    resp.session = 1;
    resp.frame = frame;
    auto t0 = Clock::now();
    const auto req_bytes = net::encode_push(req);
    const auto resp_bytes = net::encode_response(resp);
    auto t1 = Clock::now();
    std::size_t used = 0;
    const auto f1 = net::try_extract_frame(req_bytes.data(), req_bytes.size(), &used);
    const auto decoded_req = net::decode_request(*f1);
    const auto f2 = net::try_extract_frame(resp_bytes.data(), resp_bytes.size(), &used);
    const auto decoded_resp = net::decode_response(*f2);
    auto t2 = Clock::now();
    if (decoded_req.push.frame.size() != frame.size() ||
        decoded_resp.push.frame.size() != frame.size()) {
      throw std::runtime_error("codec round trip lost the frame");
    }
    enc.push_back(seconds_between(t0, t1) * 1e6);
    dec.push_back(seconds_between(t1, t2) * 1e6);
  }
  return {median(enc), median(dec)};
}

std::string phase_json(const PhaseResult& r) {
  const double miss_ms = kResponseTimeoutS * 1e3;
  return "{\"seconds\": " + json_number(r.seconds) +
         ", \"samples\": " + std::to_string(r.latency.count()) +
         ", \"p50_ms\": " + json_number(r.latency.quantile(0.5, miss_ms)) +
         ", \"p99_ms\": " + json_number(r.latency.quantile(0.99, miss_ms)) +
         ", \"p99_samples_beyond\": " + std::to_string(r.latency.beyond(0.99)) +
         ", \"frames_per_s\": " +
         json_number(static_cast<double>(r.counts.served) / r.seconds) +
         ", \"rounds\": " + std::to_string(r.round_ms.size()) +
         ", \"median_round_ms\": " + json_number(median(r.round_ms)) + "}";
}

}  // namespace

void run_wire_workload(const Args& args, Report& report, std::string& spans_csv) {
  const WireSpec spec = spec_for(args.workload);
  const Inputs inputs = make_inputs(spec, args.seed);
  pin_current_thread(kWriterCpu);  // this thread writes the pushes

  // Set-up is timed several times. The first instance serves the measured
  // rounds; the others are built after peak memory has been read, only for
  // the set-up median.
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    auto made = std::make_unique<WireRig>(spec, inputs);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    std::printf("set-up %zu: %.3f s\n", setup_s.size(), setup_s.back());
    return made;
  };
  std::unique_ptr<WireRig> rig = timed_setup();

  // A traced run measures half its time untraced and half traced.
  std::vector<Sample> timed_samples;
  const double miss_ms = kResponseTimeoutS * 1e3;
  if (!args.trace) {
    const PhaseResult a = rig->closed_loop(args.seconds, 0, /*sample=*/true);
    report.phase("rounds", a.counts);
    timed_samples = rig->take_samples();
    report.metric("serve_p50_ms", a.latency.quantile(0.5, miss_ms), "ms");
    // Every session gets one frame per round; the median round keeps a
    // stall of the host from reading as lost capacity.
    report.metric("serve_frames_per_s",
                  1e3 * spec.cities * spec.group_size / median(a.round_ms), "1/s");
    report.detail("rounds", phase_json(a));
  } else {
    zero_per_layer(report);
    const PhaseResult base = rig->closed_loop(args.seconds / 2, 0, /*sample=*/true);
    report.phase("rounds-untraced", base.counts);
    timed_samples = rig->take_samples();

    const auto s0 = rig->stats();
    trace::set_enabled(true);
    const PhaseResult a = rig->closed_loop(args.seconds / 2, 0, /*sample=*/false);
    trace::set_enabled(false);
    const auto s1 = rig->stats();
    const auto spans_a = trace::collect();
    report.phase("rounds-traced", a.counts);
    trace::append_csv(spans_csv, "rounds", spans_a);

    const double p50_untraced = base.latency.quantile(0.5, miss_ms);
    const double p50_traced = a.latency.quantile(0.5, miss_ms);
    const auto& fd = *s1.front_door;
    report.metric("net.server_p50_ms", fd.p50_ms, "ms");
    report.metric("net.wire_p50_ms", p50_traced - fd.p50_ms, "ms");
    const auto [enc, dec] = codec_us(inputs.city[0][0]);
    report.metric("net.encode_us", enc, "us");
    report.metric("net.decode_us", dec, "us");
    const auto& fd0 = *s0.front_door;
    const auto& fd1 = *s1.front_door;
    report.metric("net.bytes_per_push",
                  ratio(static_cast<double>(fd1.bytes_in + fd1.bytes_out - fd0.bytes_in -
                                            fd0.bytes_out),
                        static_cast<double>(fd1.pushes - fd0.pushes)),
                  "B");
    report.metric("net.max_queue_depth", static_cast<double>(fd.max_queue_depth), "count");
    report.metric("net.rejected", static_cast<double>(fd.rejected), "count");
    report_engine_layers(report, spans_a, "net.drain", s0, s1, rig->flop_per_window());

    const Attribution at = attribute(spans_a, "client.push",
                                     {{"self.net_ms", "client.send", true},
                                      {"self.net_ms", "net.poll", false},
                                      {"self.engine_ms", "net.drain", false},
                                      {"self.model_ms", "model.predict", false}});
    for (const auto& [metric, ms] : at.layer_ms) report.metric(metric, ms, "ms");
    report.metric("trace.e2e_p50_ms", p50_traced, "ms");
    report.metric("trace.residual_ms", p50_traced - (at.band_latency_ms - at.residual_ms),
                  "ms");
    report.metric("trace.overhead_ms", p50_traced - p50_untraced, "ms");
    report.detail("attribution", "{\"band_requests\": " + std::to_string(at.band_requests) +
                                     ", \"band_latency_ms\": " +
                                     json_number(at.band_latency_ms) +
                                     ", \"band_residual_ms\": " + json_number(at.residual_ms) +
                                     ", \"untraced_p50_ms\": " + json_number(p50_untraced) + "}");
    report.detail("rounds_untraced", phase_json(base));
    report.detail("rounds_traced", phase_json(a));
  }

  // ---- Correctness gate ----------------------------------------------------
  PhaseCounts gate_counts;
  const std::vector<Sample> gate = rig->gate_round(gate_counts);
  report.phase("gate", gate_counts);
  const double peak_mb = peak_rss_mb();
  const net::OpenRequest open = rig->open_request();
  const auto model = rig->inner();
  const std::int64_t fanout_mismatch = rig->fanout_mismatches();
  const std::int64_t unexpected = rig->unexpected_responses();
  rig.reset();  // the control engines below run with the server gone

  if (fanout_mismatch > 0) {
    report.fail_gate(std::to_string(fanout_mismatch) +
                     " fan-out responses differ from their interval's first frame");
  }
  if (unexpected > 0) report.fail_gate(std::to_string(unexpected) + " unmatched responses");
  if (gate.size() != static_cast<std::size_t>(spec.cities * spec.group_size)) {
    report.fail_gate("gate round answered " + std::to_string(gate.size()) + " frames");
  }
  const std::vector<Tensor> gate_control = control_round(spec, inputs, model, open, gate);
  std::int64_t gate_mismatch = 0;
  for (std::size_t i = 0; i < gate.size() && i < gate_control.size(); ++i) {
    if (!bitwise_equal(gate[i].frame, gate_control[i])) ++gate_mismatch;
  }
  if (gate_mismatch > 0) {
    report.fail_gate(std::to_string(gate_mismatch) +
                     " gate-round frames differ bitwise from the control engine");
  }
  // Timed samples: int8 passes are batch-invariant, so they must be bitwise
  // equal to a session served alone.
  const std::vector<Tensor> control = control_single(spec, inputs, model, open, timed_samples);
  double worst = 0;
  std::int64_t sample_mismatch = 0;
  for (std::size_t i = 0; i < timed_samples.size(); ++i) {
    const Sample& s = timed_samples[i];
    worst = std::max(worst, relative_max_diff(s.frame, control[i]));
    if (!bitwise_equal(s.frame, control[i])) ++sample_mismatch;
  }
  if (timed_samples.empty()) report.fail_gate("no timed frames were sampled");
  if (sample_mismatch > 0) {
    report.fail_gate(std::to_string(sample_mismatch) + " of " +
                     std::to_string(timed_samples.size()) +
                     " sampled timed frames differ from the control engine");
  }
  report.detail("gate", "{\"round_frames\": " + std::to_string(gate.size()) +
                            ", \"round_mismatch\": " + std::to_string(gate_mismatch) +
                            ", \"sampled\": " + std::to_string(timed_samples.size()) +
                            ", \"sampled_mismatch\": " + std::to_string(sample_mismatch) +
                            ", \"sampled_max_rel_diff\": " + json_number(worst) +
                            ", \"fanout_mismatch\": " + std::to_string(fanout_mismatch) + "}");
  if (!args.trace) {
    for (int i = 1; i < kSetups; ++i) (void)timed_setup();
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_mb, "MB");
    report.detail("setup_s_samples", json_list(setup_s));
  }
}

}  // namespace perfbench
