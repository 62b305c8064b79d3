#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu
thread_local std::uint64_t t_current = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool tracing() { return g_on.load(std::memory_order_relaxed); }

}  // namespace

void set_tracing(bool on) { g_on.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t request) {
  if (!tracing()) return;
  live_ = true;
  rec_.name = name;
  rec_.request = request;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_current;
  saved_parent_ = t_current;
  t_current = rec_.id;
  rec_.t0_ns = now_ns();
}

Span::~Span() {
  if (!live_) return;
  rec_.t1_ns = now_ns();
  t_current = saved_parent_;
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(rec_);
}

std::vector<SpanRecord> spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.clear();
}

std::map<std::string, std::vector<double>> self_times_ms(
    const std::vector<SpanRecord>& all) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& s : all) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t lo = std::max(c->t0_ns, s.t0_ns);
        const std::int64_t hi = std::min(c->t1_ns, s.t1_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, end = s.t0_ns;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, end);
      if (hi > from) covered += hi - from;
      end = std::max(end, hi);
    }
    out[s.name].push_back(1e-6 * static_cast<double>(s.t1_ns - s.t0_ns -
                                                     covered));
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<SpanRecord>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const SpanRecord& s : all) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.t0_ns),
                 static_cast<long long>(s.t1_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
