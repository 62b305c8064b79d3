// In-memory span recorder for the traced run. The benchmark wraps its
// own calls into each layer's public API in a Span (name, start, end,
// parent span, request id); nothing inside the library is instrumented.
// Spans are kept in memory while the workload runs and written out once
// at the end. When tracing is off a Span costs one relaxed load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

void set_tracing(bool on);

class Span {
 public:
  Span(const char* name, std::uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  bool live_ = false;
  std::uint64_t saved_parent_ = 0;
};

/// Every span recorded so far, in completion order.
std::vector<SpanRecord> spans();
void clear_spans();

/// Self time per span name, in milliseconds: each span's duration minus
/// the part of its interval covered by its child spans.
std::map<std::string, std::vector<double>> self_times_ms(
    const std::vector<SpanRecord>& all);

/// Writes the spans as JSON lines ({"name",...}); false on I/O error.
bool write_spans(const std::string& path, const std::vector<SpanRecord>& all);

}  // namespace perfbench
