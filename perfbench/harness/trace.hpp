// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only around calls the harness itself makes into the
// library's public API (client verbs, server loop steps, engine pushes, the
// model decorator, trainer rounds); nothing inside the library is
// instrumented. With tracing off a Scope costs one relaxed atomic load.
//
// Each thread appends to its own buffer; parents come from a per-thread
// stack of open scopes. Spans of one request share its request id (0 marks
// a span that serves several requests at once, such as a dispatch round).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0, end_ns = 0;
  std::int64_t id = 0, parent = 0, request = 0;
  int thread = 0;
};

void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Nanoseconds on the steady clock since the first call in this process.
[[nodiscard]] std::int64_t now_ns();

/// RAII span around one call; records only if tracing was on when opened.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  std::int64_t request_;
  std::int64_t start_ = 0;
  std::int64_t id_ = 0;
  std::int64_t parent_ = 0;
  bool on_ = false;
};

/// Records a span timed by the caller, e.g. a push that starts on the writer
/// thread and ends on the reader thread.
void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::int64_t request);

/// Moves every thread's recorded spans out (buffers are left empty).
[[nodiscard]] std::vector<Span> collect();

/// Appends `spans` as CSV rows (phase,name,start_ns,end_ns,id,parent,
/// request,thread) to the text `out`.
void append_csv(std::string& out, const std::string& phase,
                const std::vector<Span>& spans);

/// Self intervals of every span named in `layers`: the span's interval
/// minus the intervals of its direct children. Returned per layer name,
/// sorted by start.
struct Interval {
  std::int64_t start_ns = 0, end_ns = 0;
};
[[nodiscard]] std::vector<std::vector<Interval>> self_intervals(
    const std::vector<Span>& spans, const std::vector<std::string>& layers);

/// Total overlap of [a, b) with a start-sorted list of disjoint intervals
/// (the self intervals of spans that all ran on one thread).
[[nodiscard]] std::int64_t overlap_ns(const std::vector<Interval>& sorted,
                                      std::int64_t a, std::int64_t b);

/// Summed duration (ms) of the spans named `name`.
[[nodiscard]] double total_ms(const std::vector<Span>& spans, const char* name);

/// Durations (ms) of the spans named `name`.
[[nodiscard]] std::vector<double> durations_ms(const std::vector<Span>& spans,
                                               const char* name);

}  // namespace perfbench::trace
