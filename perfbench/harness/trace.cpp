#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_next_id{1};

struct ThreadBuffer {
  std::mutex mu;  // collect() may run while the owner thread is alive
  std::vector<Span> spans;
  std::vector<std::int64_t> stack;  // open scope ids, owner thread only
  int thread = 0;
};

std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& local() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    b->thread = static_cast<int>(g_registry.size());
    g_registry.push_back(b);
    return b;
  }();
  return *buf;
}

const auto g_epoch = std::chrono::steady_clock::now();

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

Scope::Scope(const char* name, std::int64_t request)
    : name_(name), request_(request) {
  if (!enabled()) return;
  on_ = true;
  ThreadBuffer& buf = local();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = buf.stack.empty() ? 0 : buf.stack.back();
  buf.stack.push_back(id_);
  start_ = now_ns();
}

Scope::~Scope() {
  if (!on_) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& buf = local();
  buf.stack.pop_back();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.spans.push_back({name_, start_, end, id_, parent_, request_, buf.thread});
}

void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::int64_t request) {
  if (!enabled()) return;
  ThreadBuffer& buf = local();
  const std::int64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.spans.push_back({name, start_ns, end_ns, id, 0, request, buf.thread});
}

std::vector<Span> collect() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    buffers = g_registry;
  }
  std::vector<Span> all;
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return all;
}

void append_csv(std::string& out, const std::string& phase,
                const std::vector<Span>& spans) {
  char line[256];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof(line), "%s,%s,%lld,%lld,%lld,%lld,%lld,%d\n",
                  phase.c_str(), s.name, static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request), s.thread);
    out += line;
  }
}

std::vector<std::vector<Interval>> self_intervals(
    const std::vector<Span>& spans, const std::vector<std::string>& layers) {
  std::unordered_map<std::int64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<std::vector<Interval>> out(layers.size());
  for (const Span& s : spans) {
    const auto it = std::find(layers.begin(), layers.end(), s.name);
    if (it == layers.end()) continue;
    auto& dst = out[static_cast<std::size_t>(it - layers.begin())];
    std::vector<Interval> kids;
    if (const auto c = children.find(s.id); c != children.end()) kids = c->second;
    std::sort(kids.begin(), kids.end(), [](const Interval& a, const Interval& b) {
      return a.start_ns < b.start_ns;
    });
    std::int64_t cursor = s.start_ns;
    for (const Interval& k : kids) {
      if (k.start_ns > cursor) dst.push_back({cursor, std::min(k.start_ns, s.end_ns)});
      cursor = std::max(cursor, k.end_ns);
    }
    if (cursor < s.end_ns) dst.push_back({cursor, s.end_ns});
  }
  for (auto& v : out) {
    std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
      return a.start_ns < b.start_ns;
    });
  }
  return out;
}

std::int64_t overlap_ns(const std::vector<Interval>& sorted, std::int64_t a,
                        std::int64_t b) {
  // The intervals are disjoint, so only the one just before the first start
  // >= a can reach into [a, b).
  auto it = std::lower_bound(sorted.begin(), sorted.end(), a,
                             [](const Interval& iv, std::int64_t t) {
                               return iv.start_ns < t;
                             });
  if (it != sorted.begin() && std::prev(it)->end_ns > a) --it;
  std::int64_t total = 0;
  for (; it != sorted.end() && it->start_ns < b; ++it) {
    const std::int64_t lo = std::max(a, it->start_ns);
    const std::int64_t hi = std::min(b, it->end_ns);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

double total_ms(const std::vector<Span>& spans, const char* name) {
  double ms = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return ms;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

}  // namespace perfbench::trace
