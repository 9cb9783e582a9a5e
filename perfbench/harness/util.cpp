#include "util.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/topology.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--rate") {
      args.rate = std::stod(value);
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (args.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(args.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return args;
}

namespace {

/// 1-based nearest rank of quantile q among n samples.
std::int64_t nearest_rank(double q, std::int64_t n) {
  const auto rank = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::int64_t>(rank, 1, n);
}

}  // namespace

double LatencySet::quantile(double q, double miss_ms) const {
  const std::int64_t n = count();
  if (n == 0) return 0;
  const std::int64_t rank = nearest_rank(q, n);
  if (rank > static_cast<std::int64_t>(values_.size())) return miss_ms;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return sorted[static_cast<std::size_t>(rank - 1)];
}

std::int64_t LatencySet::beyond(double q) const {
  const std::int64_t n = count();
  return n == 0 ? 0 : n - nearest_rank(q, n);
}

std::vector<double> periodic_schedule(double rate, std::int64_t count,
                                      std::uint64_t seed) {
  mtsr::Rng rng(seed);
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(count));
  for (std::int64_t n = 0; n < count; ++n) {
    at.push_back((static_cast<double>(n) + 0.5 + rng.uniform(-0.1, 0.1)) / rate);
  }
  return at;
}

double median(std::vector<double> v) { return quantile_of(std::move(v), 0.5); }

double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(
      nearest_rank(q, static_cast<std::int64_t>(v.size())) - 1)];
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_number(v[i]);
  }
  return s + "]";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, unit, value});
}

void Report::detail(const std::string& key, const std::string& json) {
  details_.emplace_back(key, json);
}

void Report::phase(const std::string& name, const PhaseCounts& counts) {
  phases_.emplace_back(name, counts);
}

void Report::fail_gate(const std::string& why) {
  correct = false;
  gate_failures.push_back(why);
}

std::int64_t Report::attempted() const {
  std::int64_t n = 0;
  for (const auto& [name, c] : phases_) n += c.attempted;
  return n;
}

std::int64_t Report::failed() const {
  std::int64_t n = 0;
  for (const auto& [name, c] : phases_) n += c.failed();
  return n;
}

std::string Report::result_line() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max<std::int64_t>(attempted(), 1)
     << ", \"failed\": " << failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << json_string(metrics_[i].name)
       << ": {\"value\": " << json_number(metrics_[i].value)
       << ", \"unit\": " << json_string(metrics_[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

std::string Report::full_json() const {
  std::ostringstream os;
  os << "{\n  \"result\": " << result_line() << ",\n  \"phases\": {";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const auto& [name, c] = phases_[i];
    os << (i ? ", " : "") << "\n    " << json_string(name)
       << ": {\"attempted\": " << c.attempted << ", \"served\": " << c.served
       << ", \"warmup\": " << c.warmup << ", \"rejected\": " << c.rejected
       << ", \"errored\": " << c.errored << ", \"timed_out\": " << c.timed_out
       << "}";
  }
  os << "\n  },\n  \"gate_failures\": [";
  for (std::size_t i = 0; i < gate_failures.size(); ++i) {
    os << (i ? ", " : "") << json_string(gate_failures[i]);
  }
  os << "]";
  for (const auto& [key, json] : details_) {
    os << ",\n  " << json_string(key) << ": " << json;
  }
  os << "\n}\n";
  return os.str();
}

std::string Report::phase_lines() const {
  std::string out;
  char line[256];
  for (const auto& [name, c] : phases_) {
    std::snprintf(line, sizeof(line),
                  "phase %s: attempted %lld, served %lld, warm-up %lld, rejected %lld, "
                  "errored %lld, timed out %lld\n",
                  name.c_str(), static_cast<long long>(c.attempted),
                  static_cast<long long>(c.served), static_cast<long long>(c.warmup),
                  static_cast<long long>(c.rejected), static_cast<long long>(c.errored),
                  static_cast<long long>(c.timed_out));
    out += line;
  }
  return out;
}

bool pin_current_thread(int cpu) {
  const int cpus = std::max(1, mtsr::Topology::instance().cpu_count());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % cpus, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

std::string host_fingerprint_json() {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"online_cpus\": " << mtsr::Topology::instance().cpu_count()
     << ", \"pool_slots\": " << mtsr::num_threads()
     << ", \"pool_shards\": " << mtsr::num_shards()
     << ", \"float_kernel\": " << json_string(mtsr::matmul_kernel_name())
     << ", \"int8_kernel\": " << json_string(mtsr::gemm_u8s8_kernel_name())
     << ", \"topology\": " << json_string(mtsr::Topology::instance().summary())
     << "}";
  return os.str();
}

void make_dirs(const std::string& dir) { std::filesystem::create_directories(dir); }

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

}  // namespace perfbench
