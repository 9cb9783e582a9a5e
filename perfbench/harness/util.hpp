// Shared plumbing of the benchmark harness: command line, the result
// report, latency summaries with miss accounting, and host facts.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double rate = 0;        ///< frozen open-loop offered rate, req/s
  std::string out_dir = ".bench_build/results";
};

/// Parses `--name value` pairs; throws std::runtime_error on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// Outcome counts of one phase. Every attempted push ends in exactly one of
/// served / warmup / rejected / errored / timed_out.
struct PhaseCounts {
  std::int64_t attempted = 0;
  std::int64_t served = 0;
  std::int64_t warmup = 0;
  std::int64_t rejected = 0;
  std::int64_t errored = 0;
  std::int64_t timed_out = 0;
  [[nodiscard]] std::int64_t failed() const {
    return rejected + errored + timed_out;
  }
};

/// Latency samples of one phase, in ms. A push that did not produce a
/// frame (refused, errored, timed out) is a miss: it ranks above every
/// served sample, so backpressure can never read as low latency.
class LatencySet {
 public:
  void add(double ms) { values_.push_back(ms); }
  void add_miss() { ++misses_; }
  [[nodiscard]] std::int64_t count() const {
    return static_cast<std::int64_t>(values_.size()) + misses_;
  }
  /// Nearest-rank quantile over served samples plus misses; a rank that
  /// lands on a miss reads as `miss_ms`.
  [[nodiscard]] double quantile(double q, double miss_ms) const;
  /// Samples strictly above the nearest rank of `q`.
  [[nodiscard]] std::int64_t beyond(double q) const;

 private:
  std::vector<double> values_;
  std::int64_t misses_ = 0;
};

/// Open-loop arrival offsets, in seconds from the phase start, of `count`
/// requests on a fixed cadence of `rate` per second, each displaced by a
/// seeded uniform jitter of up to 10% of the period (arrivals never
/// reorder). A cadence, not Poisson arrivals: on a shared 4-vCPU VM whose
/// speed drifted by up to a third between minutes, Poisson queueing at ~60%
/// load amplified that drift into p50 spreads of 0.2-0.5 between runs. A
/// probe-aggregate feed arrives on its interval cadence anyway.
[[nodiscard]] std::vector<double> periodic_schedule(double rate, std::int64_t count,
                                                    std::uint64_t seed);

/// Median of a copy of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank quantile of a copy of `v` (0 when empty).
[[nodiscard]] double quantile_of(std::vector<double> v, double q);

/// The run's report: the headline metrics plus a detail section that
/// goes to a JSON file beside the spans.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Free-form detail entry; `json` must already be a JSON value.
  void detail(const std::string& key, const std::string& json);
  void phase(const std::string& name, const PhaseCounts& counts);

  bool correct = true;
  std::vector<std::string> gate_failures;
  void fail_gate(const std::string& why);

  [[nodiscard]] std::int64_t attempted() const;
  [[nodiscard]] std::int64_t failed() const;
  /// The single-line result object: correct, attempted, failed, metrics.
  [[nodiscard]] std::string result_line() const;
  /// Everything, for the results file.
  [[nodiscard]] std::string full_json() const;
  /// One line per phase with its push accounting, for the log.
  [[nodiscard]] std::string phase_lines() const;

 private:
  struct Entry {
    std::string name, unit;
    double value = 0;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::vector<std::pair<std::string, PhaseCounts>> phases_;
};

[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_list(const std::vector<double>& v);

/// num / den, or 0 when den is not positive (a layer the phase never used).
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// CPUs the benchmark's own threads are pinned to. The pool runs with the
/// compact affinity policy, which puts its one dedicated worker on cpu 0;
/// the serving thread (server loop, or the in-process pusher) takes cpu 1;
/// the load generator's writer and reader, or the online trainer, take cpus
/// 2 and 3, so that every run places them alike.
inline constexpr int kServingCpu = 1;
inline constexpr int kWriterCpu = 2;
inline constexpr int kReaderCpu = 3;

/// Pins the calling thread to `cpu` (taken modulo the online cpu count);
/// new threads it creates inherit the pin. Returns false when the kernel
/// refuses, leaving the thread unpinned.
bool pin_current_thread(int cpu);

/// Peak resident set size of this process so far, MB.
[[nodiscard]] double peak_rss_mb();

/// nproc, pool slots and dispatched kernels, as a JSON object.
[[nodiscard]] std::string host_fingerprint_json();

/// Creates `dir` and its parents; throws on failure.
void make_dirs(const std::string& dir);
void write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
