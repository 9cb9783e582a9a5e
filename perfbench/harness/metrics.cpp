// Per-layer metric catalogue and the traced-run reporting shared by the
// workloads.
#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/serving/engine.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Per-layer metrics of a traced run, (name, unit).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      // net
      {"net.server_p50_ms", "ms"},
      {"net.wire_p50_ms", "ms"},
      {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.bytes_per_push", "B"},
      {"net.max_queue_depth", "count"},
      {"net.rejected", "count"},
      // serving.scheduler
      {"sched.passes_per_round", "count"},
      {"sched.windows_per_pass", "count"},
      {"sched.fused_pass_frac", "ratio"},
      {"sched.dedup_hit_rate", "ratio"},
      {"sched.memo_entries", "count"},
      // serving.session
      {"session.coarsen_skips", "count"},
      {"session.arena_growth", "count"},
      // serving.engine
      {"engine.round_ms", "ms"},
      {"engine.self_ms", "ms"},
      // serving.model / core / tensor
      {"model.predict_ms", "ms"},
      {"model.predict_share", "ratio"},
      {"model.flop_per_window", "flop"},
      {"model.gflops", "GFLOP/s"},
      // common pool
      {"pool.utilization", "ratio"},
      {"pool.busy_s", "s"},
      // online
      {"trainer.round_ms", "ms"},
      {"trainer.step_ms", "ms"},
      {"trainer.ckpt_round_ms", "ms"},
      {"trainer.steps_per_s", "1/s"},
      {"trainer.promote_ms", "ms"},
      {"ckpt.load_ms", "ms"},
      {"trainer.promoted", "count"},
      {"trainer.rejected", "count"},
      {"tap.dropped", "count"},
      {"online.bg_steps", "count"},
      {"online.nrmse", "ratio"},
      // load generator
      {"gen.late_p99_ms", "ms"},
      // traced-run breakdown of the open-loop p50
      {"self.net_ms", "ms"},
      {"self.engine_ms", "ms"},
      {"self.model_ms", "ms"},
      {"trace.e2e_p50_ms", "ms"},
      {"trace.residual_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return list;
}

}  // namespace

void zero_per_layer(Report& report) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    report.metric(name, 0.0, unit);
  }
}

void report_engine_layers(Report& report, const std::vector<trace::Span>& spans,
                          const char* round_span, const mtsr::serving::Engine::Stats& before,
                          const mtsr::serving::Engine::Stats& after, double flop_per_window) {
  const auto& a = before.scheduler;
  const auto& b = after.scheduler;
  const auto passes = static_cast<double>(b.passes - a.passes);
  const auto windows = static_cast<double>(b.windows - a.windows);
  report.metric("sched.passes_per_round",
                ratio(passes, static_cast<double>(b.rounds - a.rounds)), "count");
  report.metric("sched.windows_per_pass", ratio(windows, passes), "count");
  report.metric("sched.fused_pass_frac",
                ratio(static_cast<double>(b.fused_passes - a.fused_passes), passes), "ratio");
  report.metric("sched.dedup_hit_rate",
                ratio(static_cast<double>(b.dedup_hits - a.dedup_hits),
                      static_cast<double>(b.dedup_lookups - a.dedup_lookups)),
                "ratio");
  report.metric("sched.memo_entries", static_cast<double>(b.memo_entries), "count");

  std::int64_t skips = 0, growth = 0;
  for (std::size_t i = 0; i < after.sessions.size() && i < before.sessions.size(); ++i) {
    skips += after.sessions[i].coarsen_skips - before.sessions[i].coarsen_skips;
    growth += after.sessions[i].arena.growth_events - before.sessions[i].arena.growth_events;
  }
  report.metric("session.coarsen_skips", static_cast<double>(skips), "count");
  report.metric("session.arena_growth", static_cast<double>(growth), "count");

  // Engine rounds: the spans that wrap one dispatch, minus their predicts.
  std::unordered_map<std::int64_t, double> predict_ms;
  for (const auto& s : spans) {
    if (std::strcmp(s.name, "model.predict") == 0) {
      predict_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::vector<double> round_ms, self_ms;
  for (const auto& s : spans) {
    if (std::strcmp(s.name, round_span) != 0) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    round_ms.push_back(ms);
    const auto it = predict_ms.find(s.id);
    self_ms.push_back(ms - (it == predict_ms.end() ? 0.0 : it->second));
  }
  const double predict_ms_total = trace::total_ms(spans, "model.predict");
  report.metric("engine.round_ms", median(round_ms), "ms");
  report.metric("engine.self_ms", median(self_ms), "ms");
  report.metric("model.predict_ms", median(trace::durations_ms(spans, "model.predict")), "ms");
  report.metric("model.predict_share",
                ratio(predict_ms_total, trace::total_ms(spans, round_span)), "ratio");
  report.metric("model.flop_per_window", flop_per_window, "flop");
  report.metric("model.gflops", ratio(flop_per_window * windows, predict_ms_total * 1e-3) / 1e9,
                "GFLOP/s");

  double busy = 0;
  int workers = 0;
  for (std::size_t i = 0; i < after.shards.size(); ++i) {
    busy += after.shards[i].busy_seconds -
            (i < before.shards.size() ? before.shards[i].busy_seconds : 0.0);
    workers += after.shards[i].workers;
  }
  report.metric("pool.utilization",
                ratio(busy, (after.wall_seconds - before.wall_seconds) * workers), "ratio");
  report.metric("pool.busy_s", busy, "s");
}

Attribution attribute(const std::vector<trace::Span>& spans,
                      const char* request_span,
                      const std::vector<LayerSource>& layers) {
  std::vector<std::string> overlap_names;
  for (const LayerSource& l : layers) {
    if (!l.own_request) overlap_names.push_back(l.span);
  }
  const auto self = trace::self_intervals(spans, overlap_names);

  // Own-request spans, summed per (layer, request).
  std::vector<std::unordered_map<std::int64_t, std::int64_t>> own(layers.size());
  for (const trace::Span& s : spans) {
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (layers[i].own_request && layers[i].span == s.name) {
        own[i][s.request] += s.end_ns - s.start_ns;
      }
    }
  }

  std::vector<const trace::Span*> requests;
  for (const trace::Span& s : spans) {
    if (std::strcmp(s.name, request_span) == 0) requests.push_back(&s);
  }
  Attribution out;
  if (requests.empty()) return out;
  std::sort(requests.begin(), requests.end(),
            [](const trace::Span* a, const trace::Span* b) {
              return a->end_ns - a->start_ns < b->end_ns - b->start_ns;
            });
  const std::size_t lo = requests.size() * 40 / 100;
  const std::size_t hi = std::max(lo + 1, requests.size() * 60 / 100);

  std::vector<double> sums(layers.size(), 0.0);
  double latency = 0;
  for (std::size_t r = lo; r < hi && r < requests.size(); ++r) {
    const trace::Span& req = *requests[r];
    latency += static_cast<double>(req.end_ns - req.start_ns);
    std::size_t k = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (layers[i].own_request) {
        const auto it = own[i].find(req.request);
        if (it != own[i].end()) sums[i] += static_cast<double>(it->second);
      } else {
        sums[i] += static_cast<double>(
            trace::overlap_ns(self[k++], req.start_ns, req.end_ns));
      }
    }
  }
  const double n = static_cast<double>(std::min(hi, requests.size()) - lo);
  out.band_requests = static_cast<std::int64_t>(n);
  out.band_latency_ms = latency / n / 1e6;
  double covered = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const double ms = sums[i] / n / 1e6;
    covered += ms;
    auto it = std::find_if(out.layer_ms.begin(), out.layer_ms.end(),
                           [&](const auto& e) { return e.first == layers[i].metric; });
    if (it == out.layer_ms.end()) {
      out.layer_ms.emplace_back(layers[i].metric, ms);
    } else {
      it->second += ms;
    }
  }
  out.residual_ms = out.band_latency_ms - covered;
  return out;
}

}  // namespace perfbench
