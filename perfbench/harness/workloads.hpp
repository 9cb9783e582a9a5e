// The benchmark's workloads. Each runs in this process against the
// library's public API and fills the report; spans of a traced run are
// appended to `spans_csv`.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/serving/engine.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

/// wire-fanout-int8: loopback TCP front door.
void run_wire_workload(const Args& args, Report& report, std::string& spans_csv);

/// online-drift: in-process serving with the online trainer attached.
void run_online_workload(const Args& args, Report& report,
                         std::string& spans_csv);

/// Sets every per-layer metric of a traced run to 0, so a workload fills
/// only the layers it exercises and reports 0 for the rest.
void zero_per_layer(Report& report);

/// Reports the scheduler, session, engine, model and pool metrics of a
/// traced stretch between two engine snapshots. `round_span` names the span
/// that wraps one engine dispatch ("net.drain" or "engine.push").
void report_engine_layers(Report& report, const std::vector<trace::Span>& spans,
                          const char* round_span, const mtsr::serving::Engine::Stats& before,
                          const mtsr::serving::Engine::Stats& after, double flop_per_window);

/// Per-request attribution of a traced open-loop phase: for requests whose
/// latency lies in the 40th-60th percentile band, the mean time each layer
/// spent on the blocking thread inside the request's interval, and the
/// residual the layers do not cover.
struct Attribution {
  std::vector<std::pair<std::string, double>> layer_ms;  ///< metric, ms
  double band_latency_ms = 0;
  double residual_ms = 0;
  std::int64_t band_requests = 0;
};

/// One attributed layer: spans named `span` count toward `metric`, either
/// by their overlap with the request's interval (self time, children
/// excluded; the spans must all run on one thread) or, when `own_request`,
/// only those recorded with the request's own id.
struct LayerSource {
  std::string metric;
  std::string span;
  bool own_request = false;
};

[[nodiscard]] Attribution attribute(const std::vector<trace::Span>& spans,
                                    const char* request_span,
                                    const std::vector<LayerSource>& layers);

}  // namespace perfbench
